package prix

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/twig"
)

// TestTracedQueryStageSum is the tentpole acceptance test: a traced
// SWISSPROT twig query (serial, with an injected per-page read latency so
// instrumented stages dominate untracked glue on a cold run) must
// return a span tree whose stage durations sum to within 10% of the query's
// wall time — i.e. the taxonomy accounts for essentially all the work.
func TestTracedQueryStageSum(t *testing.T) {
	ds, err := datagen.ByName("SWISSPROT", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(ds.Docs, Options{Extended: true, BufferPoolPages: 2000})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ix.SetReadDelay(100 * time.Microsecond)
	defer ix.SetReadDelay(0)
	// Host load can stretch a run's wall time outside every stage, so a
	// query passes when any of five runs lands inside the bound; a stage
	// counted twice or not at all is outside it on every run. Each run
	// starts from empty buffer pools, so every one reads its pages under
	// the delay, as the bound assumes.
	for _, qs := range ds.Queries {
		var miss string
		for run := 0; run < 5; run++ {
			if err := ix.ResetIOStats(); err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTrace("test")
			ms, stats, err := ix.Match(qs.Query(), MatchOptions{
				Parallelism: 1, // serial: stages partition wall time exactly
				Trace:       tr,
			})
			if err != nil {
				t.Fatalf("%s: %v", qs.ID, err)
			}
			if len(ms) != qs.Want {
				t.Errorf("%s: matches = %d, want %d", qs.ID, len(ms), qs.Want)
			}
			tr.Finish()
			durs, _ := tr.StageTotals()
			var sum time.Duration
			for _, d := range durs {
				sum += d
			}
			wall := stats.Elapsed
			if sum >= wall*9/10 && sum <= wall*11/10 {
				miss = ""
				break
			}
			miss = fmt.Sprintf("stage sum %v vs wall %v (%.1f%%): breakdown %v",
				sum, wall, 100*float64(sum)/float64(wall), stageBreakdown(durs))
		}
		if miss != "" {
			t.Errorf("%s: outside 90-110%% on all 5 runs; the last: %s", qs.ID, miss)
		}
	}
}

func stageBreakdown(durs [obs.NumStages]time.Duration) string {
	out := ""
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		if durs[st] > 0 {
			out += fmt.Sprintf("%s=%v ", st, durs[st])
		}
	}
	return out
}

// TestTraceSpanTreeShape checks the wiring end to end on the differential
// corpus: span names and keys land where trace.go documents them, window
// counts agree with the engine's own counters, and the I/O attributed to
// the match span equals the query's PagesRead delta.
func TestTraceSpanTreeShape(t *testing.T) {
	docs := parallelCorpus()
	ix := build(t, false, docs...)
	q := twig.MustParse(`//a[./b/c]/d`)

	// Serial: match → {filter, refine}, fetch window per candidate.
	tr := obs.NewTrace("q")
	_, stats, err := ix.Match(q, MatchOptions{Parallelism: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	kids := tr.Root().Children()
	if len(kids) != 1 || kids[0].Name() != "match" || kids[0].Key() != "rp" {
		t.Fatalf("trace root children = %v", names(kids))
	}
	match := kids[0]
	if got := match.PagesRead(); got != stats.PagesRead {
		t.Errorf("match span pages = %d, stats.PagesRead = %d", got, stats.PagesRead)
	}
	if v, _ := match.Int("candidates"); v != int64(stats.Candidates) {
		t.Errorf("candidates attr = %d, want %d", v, stats.Candidates)
	}
	var filter, refine *obs.Span
	for _, c := range match.Children() {
		switch c.Name() {
		case "filter":
			filter = c
		case "refine":
			refine = c
		}
	}
	if filter == nil || refine == nil {
		t.Fatalf("match children = %v", names(match.Children()))
	}
	if filter.StageCount(obs.StageDescent) == 0 {
		t.Error("filter span has no descent windows")
	}
	if got := refine.StageCount(obs.StageFetch); got != int64(stats.Candidates) {
		t.Errorf("serial fetch windows = %d, want one per candidate (%d)", got, stats.Candidates)
	}

	// Parallelism 4: no worker spans. Every walker charges its refine
	// stages to its own span — the root walk to refine, each branch to its
	// branch span under filter, keyed in descent-path order — so the fetch
	// windows over those spans count every candidate exactly once.
	tr = obs.NewTrace("q")
	_, pstats, err := ix.Match(q, MatchOptions{Parallelism: 4, WarmCache: true, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	match = tr.Root().Children()[0]
	filter, refine = nil, nil
	for _, c := range match.Children() {
		switch c.Name() {
		case "filter":
			filter = c
		case "refine":
			refine = c
		}
	}
	if filter == nil || refine == nil {
		t.Fatalf("par=4 match children = %v", names(match.Children()))
	}
	if kids := refine.Children(); len(kids) != 0 {
		t.Errorf("refine span children = %v, want none", names(kids))
	}
	fetches := refine.StageCount(obs.StageFetch)
	branches := filter.Children()
	if len(branches) == 0 {
		t.Fatal("no branch spans: the walk never spawned")
	}
	for k, bsp := range branches {
		if bsp.Name() != "branch" {
			t.Errorf("filter child %s, want only branches", names(branches[k:k+1]))
		}
		if k > 0 && bsp.Key() <= branches[k-1].Key() {
			t.Errorf("branch keys %q then %q: not in descent-path order", branches[k-1].Key(), bsp.Key())
		}
		fetches += bsp.StageCount(obs.StageFetch)
	}
	if fetches != int64(pstats.Candidates) {
		t.Errorf("par=4 fetch windows = %d, want one per candidate (%d)", fetches, pstats.Candidates)
	}

	// Unordered multi-arrangement: one keyed arrangement span each.
	tr = obs.NewTrace("q")
	_, _, err = ix.Match(twig.MustParse(`//a[./b/c]/d`), MatchOptions{
		Unordered: true, Parallelism: 2, WarmCache: true, Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	match = tr.Root().Children()[0]
	arr := 0
	for _, c := range match.Children() {
		if c.Name() == "arrangement" {
			if c.Key() != fmt.Sprintf("%03d", arr) {
				t.Errorf("arrangement %d key = %q", arr, c.Key())
			}
			arr++
		}
	}
	if arr < 2 {
		t.Errorf("arrangement spans = %d, want >= 2", arr)
	}
}

func names(spans []*obs.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name() + "(" + s.Key() + ")"
	}
	return out
}

// TestConcurrentTracedQueries races traced and untraced queries over one
// shared index (run under -race in CI): every trace is private to its
// request, so concurrent Match calls must never trip the race detector or
// corrupt each other's span trees.
func TestConcurrentTracedQueries(t *testing.T) {
	docs := parallelCorpus()
	ix := build(t, true, docs...)
	queries := []string{`//a[./b/c]/d`, `//a//d/e`, `//a`, `/a/b/c`}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 6; rep++ {
				q := twig.MustParse(queries[(g+rep)%len(queries)])
				var tr *obs.Trace
				if (g+rep)%3 != 0 { // mix traced and untraced traffic
					tr = obs.NewTrace("q")
				}
				_, _, err := ix.Match(q, MatchOptions{
					WarmCache:   rep%2 == 0,
					Parallelism: 1 + g%4,
					Unordered:   rep%2 == 1,
					Trace:       tr,
				})
				if err != nil {
					errs <- err
					return
				}
				tr.Finish()
				if tr != nil {
					if _, err := json.Marshal(tr.Tree()); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTraceOverheadAllocs is the overhead regression test: with tracing
// off, Match runs the identical instrumented code over nil spans, so the
// allocation profile must match the traced run to within what the trace
// itself costs: one object, the Trace, whose inline slots hold a serial
// query's four spans and the match span's attributes (measured 1; it was 16
// while every span, child list and attribute bag was its own object and the
// query attribute was rendered up front). A regression that puts
// per-candidate or per-page allocations on the trace path blows well past
// the bound. Under the race detector sync.Pool sheds scratches at random, so
// the two averages differ by whatever each run happened to rebuild: only the
// old bound of 64 holds there. The nil API's own zero-alloc guarantee is
// pinned in obs.TestNilAPIZeroAllocs.
func TestTraceOverheadAllocs(t *testing.T) {
	bound := 2.0
	if raceEnabled {
		bound = 64
	}
	docs := parallelCorpus()
	ix := build(t, false, docs...)
	q := twig.MustParse(`//a[./b/c]/d`)
	mo := MatchOptions{WarmCache: true, Parallelism: 1}
	if _, _, err := ix.Match(q, mo); err != nil { // warm the pool
		t.Fatal(err)
	}
	off := testing.AllocsPerRun(5, func() {
		if _, _, err := ix.Match(q, mo); err != nil {
			t.Error(err)
		}
	})
	on := testing.AllocsPerRun(5, func() {
		tmo := mo
		tmo.Trace = obs.NewTrace("t")
		if _, _, err := ix.Match(q, tmo); err != nil {
			t.Error(err)
		}
		tmo.Trace.Finish()
	})
	if delta := on - off; delta > bound {
		t.Errorf("tracing adds %.0f allocs/op (off %.0f, on %.0f), want <= %.0f", delta, off, on, bound)
	}
}

// BenchmarkMatchTraceOverhead compares a warm serial query with tracing
// off (the production default) and on — the numbers behind the <1%
// nil-path overhead claim (the off case executes the identical code with
// nil spans; see also obs.TestNilAPIZeroAllocs for the allocation proof).
func BenchmarkMatchTraceOverhead(b *testing.B) {
	docs := parallelCorpus()
	ix, err := Build(docs, Options{Extended: false, BufferPoolPages: 2000})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	q := twig.MustParse(`//a[./b/c]/d`)
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := ix.Match(q, MatchOptions{WarmCache: true, Parallelism: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := obs.NewTrace("bench")
			if _, _, err := ix.Match(q, MatchOptions{WarmCache: true, Parallelism: 1, Trace: tr}); err != nil {
				b.Fatal(err)
			}
			tr.Finish()
		}
	})
}
