package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// reqCtx is a request's deadline: what context.WithTimeout(parent, timeout)
// returns, without what WithTimeout builds per call — a timerCtx, a cancel
// closure, a timer, and a child entry in the parent's map. Values come from
// reqCtxPool and keep their one timer across requests, Reset per request.
//
//   - Err is an atomic load plus parent.Err(), with no clock read: the engine
//     calls it once per descent step.
//   - Done is made on its first call only (the arrangement fan-out's derived
//     contexts, a shard waiting for admission, the executor's retry
//     backoff), and closes at the deadline and on parent cancellation.
//   - Deadline and Value answer as WithTimeout's context would.
//
// Reuse rule: a value goes back to the pool only once its timer callback can
// no longer touch it. Stop succeeding proves that; so does the callback
// having run. Otherwise the callback has started but not yet run its body,
// and it cannot tell which request armed it — a late callback comparing a
// generation would compare against the next request's — so release hands
// the value over instead: the callback finds it released and pools it
// itself. A value whose Done channel was made is never pooled again, since
// goroutines waiting on that channel may outlive the request.
type reqCtx struct {
	parent   context.Context
	deadline time.Time
	timer    *time.Timer // calls expire
	expired  atomic.Bool // the deadline passed before the parent was canceled

	mu        sync.Mutex
	fired     bool // expire ran for the current request
	released  bool // the request ended before expire ran: expire pools the value
	done      chan struct{}
	closed    bool
	stopWatch func() bool // detaches the watch Done set on parent
}

var reqCtxPool sync.Pool

// withTimeout returns a request context that expires timeout from now (or
// at parent's deadline, if that is sooner). The caller must release it once
// the request is over and nothing it started still uses it.
func withTimeout(parent context.Context, timeout time.Duration) *reqCtx {
	c, _ := reqCtxPool.Get().(*reqCtx)
	if c == nil {
		c = new(reqCtx)
	}
	now := time.Now()
	c.parent, c.deadline = parent, now.Add(timeout)
	if pd, ok := parent.Deadline(); ok && pd.Before(c.deadline) {
		c.deadline = pd
	}
	wait := c.deadline.Sub(now)
	if wait <= 0 && parent.Err() == nil {
		c.expired.Store(true) // already past, as WithTimeout reports at once
	}
	if c.timer == nil {
		c.timer = time.AfterFunc(wait, c.expire)
	} else {
		c.timer.Reset(wait)
	}
	return c
}

// expire is the timer's callback.
func (c *reqCtx) expire() {
	c.mu.Lock()
	if c.released {
		c.mu.Unlock()
		c.recycle()
		return
	}
	c.fired = true
	// A parent canceled first keeps its error, as under WithTimeout.
	if c.parent.Err() == nil {
		c.expired.Store(true)
	}
	c.closeDone()
	c.mu.Unlock()
}

// release ends the request's use of c; see the reuse rule on reqCtx.
func (c *reqCtx) release() {
	stopped := c.timer.Stop()
	c.mu.Lock()
	if c.done != nil {
		if c.stopWatch != nil {
			c.stopWatch()
		}
		c.mu.Unlock()
		return
	}
	if !stopped && !c.fired {
		c.released = true
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	c.recycle()
}

// recycle clears c for its next request and pools it.
func (c *reqCtx) recycle() {
	c.parent, c.deadline = nil, time.Time{}
	c.expired.Store(false)
	c.fired, c.released = false, false
	reqCtxPool.Put(c)
}

func (c *reqCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *reqCtx) Err() error {
	if c.expired.Load() {
		return context.DeadlineExceeded
	}
	return c.parent.Err()
}

func (c *reqCtx) Value(key any) any { return c.parent.Value(key) }

func (c *reqCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		if c.expired.Load() || c.parent.Err() != nil {
			c.closeDone()
		} else {
			c.stopWatch = context.AfterFunc(c.parent, c.parentDone)
		}
	}
	return c.done
}

// parentDone closes Done on parent cancellation.
func (c *reqCtx) parentDone() {
	c.mu.Lock()
	c.closeDone()
	c.mu.Unlock()
}

// closeDone closes the Done channel, if one was made, once. c.mu is held.
func (c *reqCtx) closeDone() {
	if c.done != nil && !c.closed {
		close(c.done)
		c.closed = true
	}
}
