package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
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

// buildFanOutTrace lays out the tree of a traced 2×2 shard fan-out: root,
// two shard spans, a replica span under each, and under each replica one
// query's match span with its seven attributes, filter and refine — eleven
// spans, every one with attributes.
func buildFanOutTrace() *Trace {
	tr := NewTrace("query")
	root := tr.Root()
	root.SetStr("query", "//a[./b]")
	for s := 0; s < 2; s++ {
		sh := root.ChildKeyed("shard", OrdinalKey(s))
		sh.SetInt("docs", 3000)
		rep := sh.ChildKeyed("replica", OrdinalKey(s))
		m := rep.ChildKeyed("match", "ep")
		m.Child("filter").SetInt("n", 1)
		m.Child("refine").SetInt("n", 2)
		m.SetStr("query", "//a[./b]")
		for i, k := range []string{"range_queries", "pruned", "candidates", "matches", "record_fetches", "degraded"} {
			m.SetInt(k, int64(i))
		}
		m.End()
		rep.SetInt("degraded", 1)
		rep.End()
		sh.SetInt("matches", 7)
		sh.SetInt("degraded", 1)
		sh.End()
	}
	tr.Finish()
	return tr
}

// TestTraceTreeAllocs: a serial query's whole span tree — four spans, the
// match span's seven attributes, the child lists — lives in the Trace's own
// allocation, and the query attribute is not rendered unless the tree is.
// Spans and attributes past the inline slots still work (they come from the
// trace's slabs), and a tree built either way encodes to the same bytes,
// whether the query attribute was set as a string or as a value rendered on
// demand. A fan-out's tree, eleven spans each with attributes, costs nothing
// once a released trace has held one: the slabs come back with it.
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

	fan := buildFanOutTrace()
	j, err := json.Marshal(zeroTimes(fan.Tree()))
	if err != nil {
		t.Fatal(err)
	}
	fan.Release()
	if n := bytes.Count(j, []byte(`"name"`)); n != 11 {
		t.Errorf("the fan-out encodes %d spans, want 11: %s", n, j)
	}
	if n := bytes.Count(j, []byte(`"attrs"`)); n != 11 {
		t.Errorf("%d of the fan-out's 11 spans encode attributes: %s", n, j)
	}
	if raceEnabled {
		return // sync.Pool sheds pooled traces, slabs and all, under the detector
	}
	if n := testing.AllocsPerRun(100, func() { buildFanOutTrace().Release() }); n > 0 {
		t.Errorf("a released fan-out trace costs %.2f objects, want 0", n)
	}
}

// TestTraceRelease: a released trace comes back from NewTrace as new — its
// name, no spans or attributes of the last use, inline or spilled, and zero
// stage totals — and a trace released every time costs no allocation. The
// tree taken before Release keeps its content. Under the race detector
// sync.Pool drops a quarter of its Puts, so the bound allows half an object.
func TestTraceRelease(t *testing.T) {
	noQuery := func(*Span) {}
	tr := buildQueryTrace(func(sp *Span) { sp.SetStr("query", "//a") }, 5)
	tr.Root().AddStage(StageDescent, time.Millisecond, 1)
	tree := tr.Tree()
	want, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	tr.Release()
	var nilTrace *Trace
	nilTrace.Release()
	for i := 0; i < 3; i++ {
		fresh := NewTrace("next")
		if fresh.Root().Name() != "next" || len(fresh.Root().Children()) != 0 {
			t.Fatalf("reused trace: root %q with %d children", fresh.Root().Name(), len(fresh.Root().Children()))
		}
		fresh.Finish()
		if durs, counts := fresh.StageTotals(); durs != ([NumStages]time.Duration{}) || counts != ([NumStages]int64{}) {
			t.Fatalf("reused trace carries stage totals %v %v", durs, counts)
		}
		j := buildQueryTrace(noQuery, 0).Tree()
		if _, ok := j.Children[0].Attrs["query"]; ok || len(j.Children[0].Children[1].Children) != 0 {
			t.Fatalf("reused trace carries the last use's spans: %+v", j.Children[0])
		}
		fresh.Release()
	}
	if got, err := json.Marshal(tree); err != nil || !bytes.Equal(got, want) {
		t.Errorf("the tree changed after Release:\n%s\n%s", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { buildQueryTrace(noQuery, 0).Release() }); n > 0.5 {
		t.Errorf("a released serial trace costs %.2f objects, want 0", n)
	}
}

// TestTraceSlabsBounded: a released trace keeps at most keptSlabs slabs of
// spans and of attribute slots, zeroed, however large the tree it held; a
// span's attributes keep their order and values as they move from one run
// of slab slots to a larger one.
func TestTraceSlabsBounded(t *testing.T) {
	tr := NewTrace("q")
	for i := 0; i < 200; i++ {
		sp := tr.Root().ChildKeyed("worker", OrdinalKey(i))
		for a := 0; a < maxAttrs; a++ {
			sp.SetInt(OrdinalKey(a), int64(i*a))
		}
	}
	for i, c := range tr.Root().Children() {
		for a := 0; a < maxAttrs; a++ {
			if v, ok := c.Int(OrdinalKey(a)); !ok || v != int64(i*a) {
				t.Fatalf("span %d attribute %d = %d, %v; want %d", i, a, v, ok, i*a)
			}
		}
	}
	if len(tr.spanSlabs) <= keptSlabs || len(tr.attrSlabs) <= keptSlabs {
		t.Fatalf("200 spans took %d span slabs and %d attribute slabs", len(tr.spanSlabs), len(tr.attrSlabs))
	}
	tr.Release()
	if len(tr.spanSlabs) != keptSlabs || len(tr.attrSlabs) != keptSlabs {
		t.Errorf("a released trace keeps %d span slabs and %d attribute slabs, want %d", len(tr.spanSlabs), len(tr.attrSlabs), keptSlabs)
	}
	for _, sl := range tr.spanSlabs {
		if !reflect.ValueOf(*sl).IsZero() {
			t.Fatal("a kept span slab was not zeroed")
		}
	}
	for _, sl := range tr.attrSlabs {
		if !reflect.ValueOf(*sl).IsZero() {
			t.Fatal("a kept attribute slab was not zeroed")
		}
	}
}

// TestOrdinalKey: keys are the ordinal in at least three digits, the
// precomputed ones and the formatted ones alike.
func TestOrdinalKey(t *testing.T) {
	for _, i := range []int{-1, 0, 7, 42, 255, 256, 999, 1000, 12345} {
		if got, want := OrdinalKey(i), fmt.Sprintf("%03d", i); got != want {
			t.Errorf("OrdinalKey(%d) = %q, want %q", i, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = OrdinalKey(123) }); n != 0 {
		t.Errorf("OrdinalKey(123) costs %.0f objects, want 0", n)
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
