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
}

// Do executes fn under key, collapsing duplicates. shared reports whether
// this caller piggybacked on another caller's execution. The result lives
// in the call, the one object a leader allocates, and is returned by value.
func (g *flightGroup) Do(key string, fn func() (cached, error)) (val cached, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := &flightCall{}
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	c.wg.Done()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	return c.val, c.err, false
}
