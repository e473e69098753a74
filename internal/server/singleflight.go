package server

import "sync"

// flightGroup collapses concurrent calls with the same key onto one
// execution: the first caller (the leader) runs fn, everyone else blocks
// and shares the leader's result. A minimal in-repo singleflight — the
// standard library does not ship one and the repo takes no dependencies.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	wg  sync.WaitGroup
	val cached
	err error
	// joined counts the followers, under the group's mu.
	joined int
}

// Do executes fn under key, collapsing duplicates. shared reports whether
// this caller piggybacked on another caller's execution. The result lives
// in the call, the one object a leader allocates, and is returned by value.
// Its buf comes back only to a leader no follower joined: everyone else
// reads the matches in a buffer another caller owns, which nobody may then
// recycle, so they come back with buf nil and are left to the collector.
func (g *flightGroup) Do(key string, fn func() (cached, error)) (val cached, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		c.joined++
		g.mu.Unlock()
		c.wg.Wait()
		val = c.val
		val.buf = nil
		return val, c.err, true
	}
	c := &flightCall{}
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	val, err = fn()
	c.val, c.err = val, err
	// The key goes before the count is read, so no follower joins after it.
	g.mu.Lock()
	delete(g.m, key)
	joined := c.joined
	g.mu.Unlock()
	c.wg.Done()
	if joined > 0 {
		val.buf = nil
	}
	return val, err, false
}
