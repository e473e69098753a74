// Package obs is the query-observability layer: hierarchical spans with
// monotonic stage timings, per-span I/O attribution and bounded attribute
// bags. A Trace is created per query and threaded through the engine via
// MatchOptions; every pipeline component opens child spans and charges its
// work to a fixed stage taxonomy (trie descent, prefetch, the refinement
// phases, reduction).
//
// The package is allocation-conscious by design: every method is safe on a
// nil *Span or nil *Trace and the nil path performs no allocation, no time
// syscall and no atomic — so the untraced hot path stays exactly as fast
// as before instrumentation (see the AllocsPerRun regression tests).
//
// Concurrency contract: a Span's stage accumulators and attributes are
// owned by the goroutine executing that pipeline piece — never shared —
// while child-span creation is serialized through the trace mutex, so
// concurrent workers can hang their spans off a shared parent. Children
// are ordered deterministically at read time: sorted by their explicit
// ordering key (descent path, shard or part index), not by
// the scheduling-dependent creation order, so span trees from concurrent
// workers merge identically run to run.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Stage enumerates where query time goes. The taxonomy follows the
// paper's pipeline: Algorithm 1 trie descent (with B+-tree readahead) and
// the Algorithm 2 refinement phases.
type Stage uint8

const (
	// StageCompile is query preparation against the index dictionary.
	StageCompile Stage = iota
	// StageColdStart is dropping clean cached pages before a cold query.
	StageColdStart
	// StageDescent is the Algorithm 1 virtual-trie walk: B+-tree range
	// scans, MaxGap pruning and docid scans. For single-node queries it is
	// the document scan's non-fetch remainder.
	StageDescent
	// StagePrefetch is B+-tree readahead ahead of the descent's scans.
	StagePrefetch
	// StageFetch is resolving a candidate's document image: its resident
	// shape and LPS, or a superseded record read from the store.
	StageFetch
	// StageConnect is refinement by connectedness (Algorithm 2 lines 1-4
	// with the wildcard chase of §4.5), including building N from S.
	StageConnect
	// StageStructure is refinement by structure: gap consistency and
	// frequency consistency (Definitions 3-4).
	StageStructure
	// StageLeaves is root placement, leaf matching (§4.4) and building the
	// canonical embedding.
	StageLeaves
	// StageReduce is deduplication and result ordering: the embedding
	// dedup, unordered image-set dedup and the final sort.
	StageReduce
	// NumStages is the number of stages (array sizing).
	NumStages
)

var stageNames = [NumStages]string{
	"compile", "cold_start", "descent", "prefetch", "fetch", "connect",
	"structure", "leaves", "reduce",
}

// String returns the stage's stable snake_case name (used as the metric
// label and the JSON key).
func (st Stage) String() string {
	if st < NumStages {
		return stageNames[st]
	}
	return "unknown"
}

// StageNames returns every stage name in enum order, for metric
// registration and table headers.
func StageNames() []string {
	out := make([]string, NumStages)
	for i := range stageNames {
		out[i] = stageNames[i]
	}
	return out
}

// IOFunc samples live (physical, logical) page-read counters. Spans call
// it at their start and end to attribute I/O deltas, so it must be cheap
// (two atomic loads) and monotonic.
type IOFunc func() (physical, logical uint64)

// Trace is one query's span tree. The zero of *Trace (nil) is a valid
// "tracing off" value: Root returns a nil span and the whole span API
// no-ops from there.
type Trace struct {
	start time.Time
	mu    sync.Mutex // guards span and attribute-slot creation and tree reads
	root  *Span
	// A serial query's whole tree — root, match, filter, refine, and the
	// match span's attributes — lives in the trace's own allocation; spans
	// and attribute slots beyond these come from slabs, which the trace
	// keeps across Release (up to keptSlabs of each), so a fan-out's tree
	// allocates nothing once a pooled trace has held one as large.
	spans     [inlineSpans]Span
	nspans    int
	attrs     [inlineAttrs]attr
	nattrs    int
	spanSlabs []*[slabSpans]Span
	attrSlabs []*[slabAttrs]attr
	slabSpan  int // spans handed out of spanSlabs
	slabAttr  int // attribute slots handed out of attrSlabs, skipped ones included
}

const (
	inlineSpans = 4
	inlineAttrs = 7
	slabSpans   = 8
	slabAttrs   = 32
	// keptSlabs bounds the slabs of each kind a released trace keeps, so
	// one huge trace does not pin its high-water mark in the pool: 36 spans
	// and 135 attribute slots in all, well past a 2×2 fan-out's ≈ 11 spans.
	keptSlabs = 4
	// firstAttrs is the attribute slots a span's first slab claim takes.
	firstAttrs = 4
)

// tracePool holds released traces. A server traces every request it
// executes, and a Trace with its inline spans is ≈ 1.7 KB.
var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// NewTrace starts a trace rooted at a span with the given name. The trace
// comes from a pool that Release refills; one never released is collected
// like any other value.
func NewTrace(name string) *Trace {
	t := tracePool.Get().(*Trace)
	t.start = time.Now()
	t.root = t.newSpanLocked()
	*t.root = Span{t: t, name: name, endNS: -1}
	return t
}

// Release resets the trace and returns it to NewTrace's pool. Call it once
// nothing touches the trace again: the traced operation has returned, no
// goroutine it started still holds a span, and whatever StageTotals, Tree
// or Render was wanted has been taken (a SpanJSON shares nothing with the
// trace). The slabs that held spans and attributes past the inline slots
// are zeroed and kept for the trace's next use, up to keptSlabs of each.
// Release a trace once: a second Release would pool it twice. Nil-safe.
func (t *Trace) Release() {
	if t == nil {
		return
	}
	spans := keepSlabs(t.spanSlabs, t.slabSpan, slabSpans)
	attrs := keepSlabs(t.attrSlabs, t.slabAttr, slabAttrs)
	*t = Trace{spanSlabs: spans, attrSlabs: attrs}
	tracePool.Put(t)
}

// keepSlabs returns the slabs a released trace keeps, those that held its
// used slots (per to a slab) zeroed; the ones after them are still zero.
func keepSlabs[T any](slabs []*T, used, per int) []*T {
	slabs = slabs[:min(len(slabs), keptSlabs)]
	for _, sl := range slabs[:min(len(slabs), (used+per-1)/per)] {
		var zero T
		*sl = zero
	}
	return slabs
}

// newSpanLocked hands out the next inline span, or the next slab slot after
// those.
func (t *Trace) newSpanLocked() *Span {
	if t.nspans < len(t.spans) {
		t.nspans++
		return &t.spans[t.nspans-1]
	}
	i := t.slabSpan
	if i/slabSpans == len(t.spanSlabs) {
		t.spanSlabs = append(t.spanSlabs, new([slabSpans]Span))
	}
	t.slabSpan++
	return &t.spanSlabs[i/slabSpans][i%slabSpans]
}

// claimAttrsLocked hands a span holding n attributes an empty run of slots
// with room for more: what is left of the inline slots when that is more
// than n, else 2n of a slab's (at least firstAttrs, at most maxAttrs). A run
// never straddles two slabs; the tail a slab cannot fit is skipped.
func (t *Trace) claimAttrsLocked(n int) []attr {
	if left := len(t.attrs) - t.nattrs; left > n {
		run := t.attrs[t.nattrs:t.nattrs:len(t.attrs)]
		t.nattrs = len(t.attrs)
		return run
	}
	want := min(max(2*n, firstAttrs), maxAttrs)
	i := t.slabAttr
	if i%slabAttrs+want > slabAttrs {
		i += slabAttrs - i%slabAttrs
	}
	if i/slabAttrs == len(t.attrSlabs) {
		t.attrSlabs = append(t.attrSlabs, new([slabAttrs]attr))
	}
	t.slabAttr = i + want
	o := i % slabAttrs
	return t.attrSlabs[i/slabAttrs][o : o : o+want]
}

// Root returns the root span (nil on a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// nowNS is nanoseconds since the trace began (monotonic).
func (t *Trace) nowNS() int64 { return int64(time.Since(t.start)) }

// Finish ends every still-open span in the tree (idempotent). Call it
// after the traced operation returns and before reading the tree.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.nowNS()
	var end func(s *Span)
	end = func(s *Span) {
		if s.endNS < 0 {
			s.endNS = now
			if s.io != nil {
				s.phys1, s.logi1 = s.io()
			}
		}
		for _, c := range s.children {
			end(c)
		}
	}
	end(t.root)
}

// StageTotals sums the stage accumulators over the whole tree. Every
// nanosecond of instrumented work is charged to exactly one span's
// accumulator, so the totals never double-count nested spans.
func (t *Trace) StageTotals() (durs [NumStages]time.Duration, counts [NumStages]int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var walk func(s *Span)
	walk = func(s *Span) {
		for st := Stage(0); st < NumStages; st++ {
			durs[st] += time.Duration(s.stages[st])
			counts[st] += s.counts[st]
		}
		for _, c := range s.children {
			walk(c)
		}
	}
	walk(t.root)
	return
}

// maxAttrs bounds a span's attribute bag; sets beyond the bound are
// dropped silently so a runaway caller cannot balloon a trace.
const maxAttrs = 16

// attr is one key/value pair; a bounded slice beats a map here (tiny N,
// no hashing, deterministic insertion order preserved for rendering).
type attr struct {
	key   string
	str   string
	val   fmt.Stringer // a string attribute rendered only when it is read
	num   int64
	isStr bool
}

// text is a string attribute's value.
func (a *attr) text() string {
	if a.val != nil {
		return a.val.String()
	}
	return a.str
}

// Span is one timed node of the trace tree. All methods are nil-safe
// no-ops. The stage accumulators and attributes are owned by a single
// goroutine; only child creation is synchronized (via the trace mutex).
type Span struct {
	t        *Trace
	name     string
	key      string // deterministic sibling-ordering key ("" sorts first)
	io       IOFunc
	startNS  int64
	endNS    int64 // -1 while open
	phys0    uint64
	logi0    uint64
	phys1    uint64
	logi1    uint64
	stages   [NumStages]int64
	counts   [NumStages]int64
	attrs    []attr
	children []*Span
	kids     [2]*Span // children's first backing array
}

// Now returns nanoseconds since the trace began, 0 on a nil span (no
// time syscall on the untraced path).
func (s *Span) Now() int64 {
	if s == nil {
		return 0
	}
	return s.t.nowNS()
}

// Start opens a stage window: pair it with Stage. Returns 0 on nil.
func (s *Span) Start() int64 { return s.Now() }

// Stage closes a window opened by Start, accumulating the elapsed time
// into the stage and bumping its window count.
func (s *Span) Stage(st Stage, startNS int64) {
	if s == nil {
		return
	}
	s.stages[st] += s.t.nowNS() - startNS
	s.counts[st]++
}

// AddStage credits a pre-computed duration (clamped at zero) and n
// windows to a stage. Used for derived stages such as "walk time minus
// its timed sub-stages".
func (s *Span) AddStage(st Stage, d time.Duration, n int64) {
	if s == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	s.stages[st] += int64(d)
	s.counts[st] += n
}

// StageNS returns the accumulated nanoseconds of a stage.
func (s *Span) StageNS(st Stage) int64 {
	if s == nil {
		return 0
	}
	return s.stages[st]
}

// StageCount returns how many windows were accumulated into a stage.
func (s *Span) StageCount(st Stage) int64 {
	if s == nil {
		return 0
	}
	return s.counts[st]
}

// Child opens an unkeyed child span inheriting the parent's I/O source.
func (s *Span) Child(name string) *Span { return s.child(name, "", s.ioSource()) }

// ChildKeyed opens a child span with an explicit sibling-ordering key.
// Concurrent creators may race on creation order; the key — not arrival —
// orders siblings when the tree is read, keeping traces deterministic.
func (s *Span) ChildKeyed(name, key string) *Span { return s.child(name, key, s.ioSource()) }

// precomputedOrdinals is how many OrdinalKey keys are kept ready: every
// shard, replica and scan-worker ordinal in practice, in 768 bytes of heap.
const precomputedOrdinals = 256

// ordinals holds OrdinalKey's keys "000" through "255", three bytes each.
var ordinals = func() string {
	b := make([]byte, 0, 3*precomputedOrdinals)
	for i := 0; i < precomputedOrdinals; i++ {
		b = append(b, byte('0'+i/100), byte('0'+i/10%10), byte('0'+i%10))
	}
	return string(b)
}()

// OrdinalKey is the ChildKeyed key of the i-th of a fan-out's sibling spans
// (shard, replica, part, scan worker): i in at least three decimal
// digits, so up to a thousand siblings sort in ordinal order. Keys below
// 256 are slices of one precomputed string and allocate nothing.
func OrdinalKey(i int) string {
	if i >= 0 && i < precomputedOrdinals {
		return ordinals[3*i : 3*i+3]
	}
	return fmt.Sprintf("%03d", i)
}

// ChildIO opens a keyed child with its own I/O source (e.g. a specific
// index's buffer pools), sampled at the child's start and end.
func (s *Span) ChildIO(name, key string, io IOFunc) *Span { return s.child(name, key, io) }

func (s *Span) ioSource() IOFunc {
	if s == nil {
		return nil
	}
	return s.io
}

func (s *Span) child(name, key string, io IOFunc) *Span {
	if s == nil {
		return nil
	}
	start := s.t.nowNS()
	var phys, logi uint64
	if io != nil {
		phys, logi = io()
	}
	s.t.mu.Lock()
	c := s.t.newSpanLocked()
	*c = Span{t: s.t, name: name, key: key, io: io, startNS: start, endNS: -1, phys0: phys, logi0: logi}
	if s.children == nil {
		s.children = s.kids[:0]
	}
	s.children = append(s.children, c)
	s.t.mu.Unlock()
	return c
}

// End closes the span, sampling its I/O source. Idempotent; open spans
// are also closed by Trace.Finish.
func (s *Span) End() {
	if s == nil || s.endNS >= 0 {
		return
	}
	s.endNS = s.t.nowNS()
	if s.io != nil {
		s.phys1, s.logi1 = s.io()
	}
}

// SetStr sets a string attribute (replacing an existing key; dropped
// beyond the bag bound).
func (s *Span) SetStr(key, v string) { s.set(attr{key: key, str: v, isStr: true}) }

// SetStringer sets a string attribute whose value is v.String(), called
// only when the attribute is read (Str, Tree): a query that nobody asks to
// see rendered is never rendered. v must not change after the call.
func (s *Span) SetStringer(key string, v fmt.Stringer) { s.set(attr{key: key, val: v, isStr: true}) }

// SetInt sets an integer attribute.
func (s *Span) SetInt(key string, v int64) { s.set(attr{key: key, num: v}) }

func (s *Span) set(a attr) {
	if s == nil {
		return
	}
	if i := s.find(a.key); i >= 0 {
		s.attrs[i] = a
	} else {
		s.add(a)
	}
}

// AddInt accumulates into an integer attribute (creating it at v).
func (s *Span) AddInt(key string, v int64) {
	if s == nil {
		return
	}
	if i := s.find(key); i >= 0 {
		s.attrs[i].num += v
	} else {
		s.add(attr{key: key, num: v})
	}
}

func (s *Span) find(key string) int {
	for i := range s.attrs {
		if s.attrs[i].key == key {
			return i
		}
	}
	return -1
}

// add appends a new attribute. A span's first one claims what is left of
// the trace's inline slots as its backing array; past that the span's
// attributes move to a larger run of slab slots (claimAttrsLocked).
func (s *Span) add(a attr) {
	if len(s.attrs) >= maxAttrs {
		return
	}
	if len(s.attrs) == cap(s.attrs) {
		s.t.mu.Lock()
		run := s.t.claimAttrsLocked(len(s.attrs))
		s.t.mu.Unlock()
		s.attrs = append(run, s.attrs...)
	}
	s.attrs = append(s.attrs, a)
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Key returns the span's sibling-ordering key.
func (s *Span) Key() string {
	if s == nil {
		return ""
	}
	return s.key
}

// Duration is the span's wall time (elapsed-so-far while open).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	end := s.endNS
	if end < 0 {
		end = s.t.nowNS()
	}
	return time.Duration(end - s.startNS)
}

// PagesRead is the physical page reads attributed to the span (0 until
// ended or without an I/O source).
func (s *Span) PagesRead() uint64 {
	if s == nil || s.endNS < 0 || s.phys1 < s.phys0 {
		return 0
	}
	return s.phys1 - s.phys0
}

// CacheHits is the buffer-pool hits attributed to the span: logical
// minus physical reads over its window.
func (s *Span) CacheHits() uint64 {
	if s == nil || s.endNS < 0 {
		return 0
	}
	logical := s.logi1 - s.logi0
	physical := s.phys1 - s.phys0
	if s.logi1 < s.logi0 || s.phys1 < s.phys0 || logical < physical {
		return 0
	}
	return logical - physical
}

// Int returns an integer attribute's value.
func (s *Span) Int(key string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	for i := range s.attrs {
		if s.attrs[i].key == key && !s.attrs[i].isStr {
			return s.attrs[i].num, true
		}
	}
	return 0, false
}

// Children returns the child spans in deterministic order: sorted by
// ordering key (then name), with creation order as the final tie-break.
// The returned slice is a copy; take it after the traced work is done
// (or after Trace.Finish) — it snapshots under the trace mutex.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	s.t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].key != out[j].key {
			return out[i].key < out[j].key
		}
		return out[i].name < out[j].name
	})
	return out
}
