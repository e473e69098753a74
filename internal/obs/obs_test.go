package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilAPIZeroAllocs is the overhead regression test for the untraced
// hot path: the whole span API on a nil receiver must perform zero
// allocations (and, by construction, no time syscalls).
func TestNilAPIZeroAllocs(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Root()
		t0 := sp.Start()
		sp.Stage(StageDescent, t0)
		sp.AddStage(StageFetch, time.Millisecond, 1)
		c := sp.Child("filter")
		k := c.ChildKeyed("worker", "000")
		k.SetInt("n", 1)
		k.SetStr("q", "//a")
		k.SetStringer("q", time.Second)
		k.AddInt("pages", 3)
		_ = k.Now()
		_ = k.StageNS(StageReduce)
		_ = k.Duration()
		k.End()
		c.End()
		sp.End()
		tr.Finish()
		_ = tr.Tree()
		_, _ = tr.StageTotals()
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer path allocates: %v allocs/op", allocs)
	}
}

// TestStageAccumulation checks windows accumulate and totals sum over the
// whole tree without double counting.
func TestStageAccumulation(t *testing.T) {
	tr := NewTrace("q")
	sp := tr.Root().Child("match")
	sp.AddStage(StageDescent, 10*time.Millisecond, 2)
	c := sp.Child("refine")
	c.AddStage(StageFetch, 5*time.Millisecond, 1)
	c.AddStage(StageFetch, 2*time.Millisecond, 1)
	c.AddStage(StageConnect, -time.Second, 1) // clamped to zero
	tr.Finish()

	if got := c.StageDuration(StageFetch); got != 7*time.Millisecond {
		t.Errorf("fetch = %v, want 7ms", got)
	}
	if got := c.StageCount(StageFetch); got != 2 {
		t.Errorf("fetch count = %d, want 2", got)
	}
	if got := c.StageDuration(StageConnect); got != 0 {
		t.Errorf("negative AddStage not clamped: %v", got)
	}
	durs, counts := tr.StageTotals()
	if durs[StageDescent] != 10*time.Millisecond || durs[StageFetch] != 7*time.Millisecond {
		t.Errorf("totals = %v", durs)
	}
	if counts[StageDescent] != 2 || counts[StageFetch] != 2 {
		t.Errorf("total counts = %v", counts)
	}
}

// TestDeterministicChildOrder: siblings created out of key order (as
// concurrent workers would) must read back sorted by key.
func TestDeterministicChildOrder(t *testing.T) {
	tr := NewTrace("q")
	root := tr.Root()
	var wg sync.WaitGroup
	keys := []string{"003", "001", "004", "000", "002"}
	for _, k := range keys {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			root.ChildKeyed("worker", k).End()
		}(k)
	}
	wg.Wait()
	tr.Finish()
	kids := root.Children()
	for i, c := range kids {
		want := []string{"000", "001", "002", "003", "004"}[i]
		if c.Key() != want {
			t.Fatalf("child %d key = %q, want %q", i, c.Key(), want)
		}
	}
	// The JSON form must be byte-identical across encodings.
	a, err := json.Marshal(tr.Tree())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(tr.Tree())
	if !bytes.Equal(a, b) {
		t.Error("tree encoding not deterministic")
	}
}

// TestIODeltas: spans attribute (physical, logical) counter deltas over
// their window, and cache hits are the logical-minus-physical remainder.
func TestIODeltas(t *testing.T) {
	var phys, logi uint64
	io := func() (uint64, uint64) { return phys, logi }
	tr := NewTrace("q")
	sp := tr.Root().ChildIO("match", "", io)
	phys, logi = 10, 40
	inner := sp.Child("filter") // inherits the I/O source
	phys, logi = 15, 60
	inner.End()
	sp.End()
	if got := inner.PagesRead(); got != 5 {
		t.Errorf("inner pages = %d, want 5", got)
	}
	if got := inner.CacheHits(); got != 15 {
		t.Errorf("inner hits = %d, want 15 (20 logical - 5 physical)", got)
	}
	if got := sp.PagesRead(); got != 15 {
		t.Errorf("outer pages = %d, want 15", got)
	}
	if got := tr.Root().PagesRead(); got != 0 {
		t.Errorf("root without IO source reported pages = %d", got)
	}
}

// TestAttrBagBounded: the 17th attribute is dropped, not stored.
func TestAttrBagBounded(t *testing.T) {
	tr := NewTrace("q")
	sp := tr.Root()
	for i := 0; i < maxAttrs+8; i++ {
		sp.SetInt(string(rune('a'+i)), int64(i))
	}
	if len(sp.attrs) != maxAttrs {
		t.Fatalf("attr bag grew to %d, bound is %d", len(sp.attrs), maxAttrs)
	}
	sp.SetInt("a", 99) // replacing an existing key still works at the bound
	if v, _ := sp.Int("a"); v != 99 {
		t.Errorf("replace at bound: a = %d", v)
	}
	sp.AddInt("a", 1)
	if v, _ := sp.Int("a"); v != 100 {
		t.Errorf("AddInt: a = %d", v)
	}
}

// stringer counts how often it is rendered.
type stringer struct{ calls *int }

func (s stringer) String() string { *s.calls++; return "//a[./b]" }

// buildQueryTrace lays out the tree of one serial query: root, match with
// its seven attributes, filter, refine, and extra further spans under refine.
func buildQueryTrace(query func(sp *Span), extra int) *Trace {
	tr := NewTrace("query")
	m := tr.Root().ChildKeyed("match", "ep")
	query(m)
	m.Child("filter").End()
	r := m.Child("refine")
	for i := 0; i < extra; i++ {
		r.ChildKeyed("worker", string(rune('a'+i))).SetInt("n", int64(i))
	}
	r.End()
	for i, k := range []string{"range_queries", "pruned", "candidates", "matches", "record_fetches", "degraded"} {
		m.SetInt(k, int64(i))
	}
	m.End()
	tr.Finish()
	return tr
}

// TestTraceTreeAllocs: a serial query's whole span tree — four spans, the
// match span's seven attributes, the child lists — lives in the Trace's own
// allocation, and the query attribute is not rendered unless the tree is.
// Spans and attributes past the inline slots still work (they come from the
// heap), and a tree built either way encodes to the same bytes, whether the
// query attribute was set as a string or as a value rendered on demand.
func TestTraceTreeAllocs(t *testing.T) {
	calls := 0
	lazy := func(sp *Span) { sp.SetStringer("query", stringer{&calls}) }
	if n := testing.AllocsPerRun(100, func() { buildQueryTrace(lazy, 0) }); n > 1 {
		t.Errorf("a serial query's trace costs %.0f objects, want 1", n)
	}
	if calls != 0 {
		t.Errorf("the query attribute was rendered %d times with no reader", calls)
	}
	eager := func(sp *Span) { sp.SetStr("query", "//a[./b]") }
	for _, extra := range []int{0, 5} {
		a, err := json.Marshal(zeroTimes(buildQueryTrace(lazy, extra).Tree()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(zeroTimes(buildQueryTrace(eager, extra).Tree()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("extra=%d: trees differ\n%s\n%s", extra, a, b)
		}
		if want := 4 + extra; bytes.Count(a, []byte(`"name"`)) != want {
			t.Errorf("extra=%d: %d spans encoded, want %d: %s", extra, bytes.Count(a, []byte(`"name"`)), want, a)
		}
	}
	if calls == 0 {
		t.Error("Tree never rendered the query attribute")
	}
	tr := buildQueryTrace(lazy, 0)
	if q, ok := tr.Root().Children()[0].Str("query"); !ok || q != "//a[./b]" {
		t.Errorf("Str(query) = %q, %v", q, ok)
	}
}

// zeroTimes strips the clock from a tree so two builds compare equal.
func zeroTimes(j *SpanJSON) *SpanJSON {
	j.StartNS, j.DurNS = 0, 0
	for _, c := range j.Children {
		zeroTimes(c)
	}
	return j
}

// TestFinishClosesOpenSpans: spans left open (error paths) get end times
// and I/O samples from Finish, and Finish is idempotent.
func TestFinishClosesOpenSpans(t *testing.T) {
	var phys uint64
	tr := NewTrace("q")
	sp := tr.Root().ChildIO("match", "", func() (uint64, uint64) { return phys, phys })
	phys = 7
	tr.Finish()
	tr.Finish()
	if sp.Duration() <= 0 {
		t.Error("open span not closed by Finish")
	}
	if got := sp.PagesRead(); got != 7 {
		t.Errorf("Finish did not sample IO: pages = %d", got)
	}
}

// TestRender smoke-tests the human renderer: names, keys, stages and
// attrs all appear, indented by depth.
func TestRender(t *testing.T) {
	tr := NewTrace("query")
	sp := tr.Root().Child("match")
	sp.AddStage(StageDescent, 3*time.Millisecond, 4)
	sp.SetStr("query", "//a/b")
	sp.ChildKeyed("worker", "001").End()
	tr.Finish()
	var buf bytes.Buffer
	Render(&buf, tr)
	out := buf.String()
	for _, want := range []string{"query", "match", "descent 3ms/4", "query=//a/b", "worker(001)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	var nilBuf bytes.Buffer
	Render(&nilBuf, nil) // must not panic
	if nilBuf.Len() != 0 {
		t.Error("nil trace rendered output")
	}
}

// TestStageNames: the enum and the name table stay in sync.
func TestStageNames(t *testing.T) {
	names := StageNames()
	if len(names) != int(NumStages) {
		t.Fatalf("StageNames: %d names, %d stages", len(names), NumStages)
	}
	seen := map[string]bool{}
	for st := Stage(0); st < NumStages; st++ {
		n := st.String()
		if n == "" || n == "unknown" || seen[n] {
			t.Errorf("stage %d name %q invalid or duplicate", st, n)
		}
		seen[n] = true
	}
	if NumStages.String() != "unknown" {
		t.Error("out-of-range stage must stringify as unknown")
	}
}

// BenchmarkNilSpanStage measures the untraced fast path (the per-candidate
// cost when tracing is off).
func BenchmarkNilSpanStage(b *testing.B) {
	var sp *Span
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t0 := sp.Start()
		sp.Stage(StageFetch, t0)
	}
}

// BenchmarkTracedSpanStage measures the traced window cost (two monotonic
// clock reads plus integer adds).
func BenchmarkTracedSpanStage(b *testing.B) {
	tr := NewTrace("bench")
	sp := tr.Root().Child("span")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t0 := sp.Start()
		sp.Stage(StageFetch, t0)
	}
}
