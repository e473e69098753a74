package server

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// SlowEntry is one logged query in the slow-query ring buffer, shaped for
// JSON at GET /debug/slowlog. The trace tree is included when the server
// traced the request, so a slow query can be diagnosed stage by stage after
// the fact without reproducing it.
type SlowEntry struct {
	Time        string        `json:"time"`
	Query       string        `json:"query"`
	Unordered   bool          `json:"unordered,omitempty"`
	Parallelism int           `json:"parallelism,omitempty"`
	ElapsedUS   int64         `json:"elapsed_us"`
	Count       int           `json:"count"`
	Candidates  int           `json:"candidates"`
	PagesRead   uint64        `json:"pages_read"`
	Degraded    bool          `json:"degraded,omitempty"`
	Trace       *obs.SpanJSON `json:"trace,omitempty"`
}

// SlowLog is a fixed-capacity ring buffer of the most recent slow queries.
// Writers take a short mutex (the slow path is by definition not latency
// critical); readers copy the ring under the same mutex, newest first.
type SlowLog struct {
	threshold time.Duration // queries at or above this are logged

	mu    sync.Mutex
	buf   []SlowEntry
	next  int    // ring write cursor
	total uint64 // entries ever logged (exceeds len(buf) after wrap)
}

// NewSlowLog sizes the ring. capacity <= 0 returns a nil log (disabled:
// every method no-ops); threshold <= 0 logs every query.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity <= 0 {
		return nil
	}
	return &SlowLog{threshold: threshold, buf: make([]SlowEntry, 0, capacity)}
}

// Threshold returns the logging threshold (0 on a disabled log).
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Slow reports whether a query that took elapsed belongs in the log (never,
// on a disabled log). Callers ask before they build the entry.
func (l *SlowLog) Slow(elapsed time.Duration) bool { return l != nil && elapsed >= l.threshold }

// Add logs the entry of a query Slow said yes to.
func (l *SlowLog) Add(e SlowEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
	} else {
		l.buf[l.next] = e
	}
	l.next = (l.next + 1) % cap(l.buf)
	l.total++
}

// Snapshot returns the logged entries, newest first, plus the total number
// ever logged (so callers can tell how much the ring has dropped).
func (l *SlowLog) Snapshot() ([]SlowEntry, uint64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, 0, len(l.buf))
	// The newest entry sits just behind the cursor; walk backwards.
	for i := 0; i < len(l.buf); i++ {
		idx := (l.next - 1 - i + len(l.buf)) % len(l.buf)
		out = append(out, l.buf[idx])
	}
	return out, l.total
}
