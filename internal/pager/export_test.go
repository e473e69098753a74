package pager

// Accessors the external tests (package pager_test) read internals through.

// TablePages is tablePages: the pages a table of n records over nfiles takes.
var TablePages = tablePages

// Active reports whether a transaction is open (header active on disk).
func (j *Journal) Active() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.active
}

// Journal returns the attached journal (nil without one).
func (bp *BufferPool) Journal() *Journal { return bp.journal }
