package compact

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a background Compactor (the scrubber's loop idiom: periodic
// passes, throttled, yielding to foreground load).
type Config struct {
	// Interval between compaction attempts for Start (default 5m).
	Interval time.Duration
	// MemBudget per compaction (0 = 32 MiB).
	MemBudget int64
	// Throttle is the sleep every 64 drained/replayed documents, bounding
	// the compactor's I/O share.
	Throttle time.Duration
	// Busy, when non-nil, reports foreground pressure; the compactor backs
	// off BusyBackoff while it returns true.
	Busy        func() bool
	BusyBackoff time.Duration
	// CatchupThreshold / MaxRounds bound the pre-freeze chase
	// (CompactOptions semantics).
	CatchupThreshold int
	MaxRounds        int
}

func (c *Config) interval() time.Duration {
	if c.Interval <= 0 {
		return 5 * time.Minute
	}
	return c.Interval
}

// Stats is a point-in-time snapshot of the compactor's counters.
type Stats struct {
	Runs          uint64 `json:"runs"`
	Failures      uint64 `json:"failures"`
	Skipped       uint64 `json:"skipped"`
	DocsCompacted uint64 `json:"docs_compacted"`
	// Epoch is the Root's current serving epoch.
	Epoch uint64 `json:"epoch"`
	// Running reports a compaction in flight right now.
	Running bool `json:"running"`
	// LastPause / LastElapsed describe the most recent successful run;
	// LastDrain / LastBuild / LastPublish are its Report's phase split.
	LastPause   time.Duration `json:"last_pause_ns"`
	LastElapsed time.Duration `json:"last_elapsed_ns"`
	LastDrain   time.Duration `json:"last_drain_ns"`
	LastBuild   time.Duration `json:"last_build_ns"`
	LastPublish time.Duration `json:"last_publish_ns"`
	// LabelerNodes / LabelerBytes size the serving epoch's resident
	// labeler trie (prix.DynamicIndex.LabelerStats).
	LabelerNodes int `json:"labeler_nodes"`
	LabelerBytes int `json:"labeler_bytes"`
}

// Compactor periodically compacts a live Root in the background. Runs that
// would be no-ops — no insert, delete, update or patch since the last
// committed epoch — are skipped and counted, so an idle index is not
// rewritten every interval.
type Compactor struct {
	root *Root
	cfg  Config

	runs     atomic.Uint64
	failures atomic.Uint64
	skipped  atomic.Uint64
	docs     atomic.Uint64

	mu      sync.Mutex
	last    *Report
	lastRun *Report // most recent non-skipped run, feeding the gauges
	lastErr error
	// lastGen is the Root's Generation right after the last committed
	// epoch (set when primed): it moves on every mutation and every swap.
	lastGen uint64
	primed  bool
	stopped bool
	forced  sync.WaitGroup // in-flight RunOnce calls; Stop waits them out

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a Compactor over a live Root. A Root already serving a
// committed epoch is treated as up to date: the first interval only runs
// after a mutation (POST /compact forces a run regardless).
func New(r *Root, cfg Config) *Compactor {
	c := &Compactor{
		root: r,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if r.Epoch() > 0 {
		c.lastGen, c.primed = r.Generation(), true
	}
	return c
}

// Start launches the background loop: one attempt every Interval until Stop.
func (c *Compactor) Start() {
	c.startOnce.Do(func() {
		go c.loop()
	})
}

// Stop ends the compactor's lifetime: it halts the loop, cancels and waits
// out any in-flight compaction (including a forced RunOnce), and makes
// later RunOnce calls fail with ErrStopped — so a caller can safely close
// the underlying Root the moment Stop returns. Safe to call without Start
// and more than once.
func (c *Compactor) Stop() {
	c.stopOnce.Do(func() {
		c.mu.Lock()
		c.stopped = true
		c.mu.Unlock()
		close(c.stop)
	})
	c.startOnce.Do(func() { close(c.done) })
	<-c.done
	c.forced.Wait()
}

func (c *Compactor) loop() {
	defer close(c.done)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-c.stop
		cancel()
	}()
	ticker := time.NewTicker(c.cfg.interval())
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		if _, err := c.runOnce(ctx, false); err != nil && ctx.Err() != nil {
			return
		}
	}
}

// ErrStopped reports a forced run against a compactor whose Stop already
// ran.
var ErrStopped = errors.New("compact: compactor stopped")

// RunOnce compacts now, regardless of whether anything changed (the
// POST /compact entry point). It still refuses to overlap a running
// compaction (ErrCompacting). The run is detached from ctx's cancellation
// — a client disconnect or proxy timeout must not throw away minutes of
// drain/build work on an operator-triggered maintenance action — and is
// canceled only by Stop; ctx's values still flow through.
func (c *Compactor) RunOnce(ctx context.Context) (*Report, error) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return nil, ErrStopped
	}
	c.forced.Add(1)
	c.mu.Unlock()
	run, cancel := context.WithCancel(context.WithoutCancel(ctx))
	defer cancel()
	watch := make(chan struct{})
	defer func() {
		close(watch)
		c.forced.Done()
	}()
	go func() {
		select {
		case <-c.stop:
			cancel()
		case <-watch:
		}
	}()
	return c.runOnce(run, true)
}

func (c *Compactor) runOnce(ctx context.Context, force bool) (*Report, error) {
	if !force && c.upToDate() {
		c.skipped.Add(1)
		rep := &Report{Epoch: c.root.Epoch(), Skipped: true}
		c.mu.Lock()
		c.last = rep
		c.lastErr = nil
		c.mu.Unlock()
		return rep, nil
	}
	rep, err := c.root.Compact(ctx, CompactOptions{
		MemBudget:        c.cfg.MemBudget,
		CatchupThreshold: c.cfg.CatchupThreshold,
		MaxRounds:        c.cfg.MaxRounds,
		Throttle:         c.cfg.Throttle,
		Busy:             c.cfg.Busy,
		BusyBackoff:      c.cfg.BusyBackoff,
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.failures.Add(1)
		c.lastErr = err
		if rep != nil {
			c.last = rep
		}
		return rep, err
	}
	c.runs.Add(1)
	c.docs.Add(uint64(rep.Docs) + uint64(rep.DeltaDocs))
	c.last, c.lastRun, c.lastErr = rep, rep, nil
	c.lastGen, c.primed = c.root.Generation(), true
	return rep, nil
}

// upToDate reports that nothing — no mutation, no swap — happened since
// this compactor (or startup) last saw an epoch committed. A document count
// would miss deletes, updates and patches, which keep it.
func (c *Compactor) upToDate() bool {
	if c.root.NumDocs() == 0 {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.primed && c.root.Generation() == c.lastGen
}

// Stats returns the lifetime counters.
func (c *Compactor) Stats() Stats {
	st := Stats{
		Runs:          c.runs.Load(),
		Failures:      c.failures.Load(),
		Skipped:       c.skipped.Load(),
		DocsCompacted: c.docs.Load(),
		Epoch:         c.root.Epoch(),
		Running:       c.root.Compacting(),
	}
	st.LabelerNodes, st.LabelerBytes = c.root.LabelerStats()
	c.mu.Lock()
	if r := c.lastRun; r != nil {
		st.LastPause, st.LastElapsed = r.Pause, r.Elapsed
		st.LastDrain, st.LastBuild, st.LastPublish = r.DrainElapsed, r.BuildElapsed, r.PublishElapsed
	}
	c.mu.Unlock()
	return st
}
