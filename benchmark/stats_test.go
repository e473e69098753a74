package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 5}, {0.95, 10}, {0.9, 9}, {1, 10}, {0.01, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the rule the acceptance check computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4)
	// [1.75, 3.5, 5.25]
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles = %v, %v; want 1.75, 5.25", q1, q3)
	}
	// >>> statistics.quantiles([10, 20, 30, 40, 50], n=4)
	// [15.0, 30.0, 45.0]
	q1, q3 = quartiles([]float64{50, 10, 40, 20, 30})
	if q1 != 15 || q3 != 45 {
		t.Errorf("quartiles = %v, %v; want 15, 45", q1, q3)
	}
	// >>> statistics.quantiles([1, 2], n=4)
	// [0.75, 1.5, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

// TestReduceBlocksIgnoresSlowBlocks is the reason the measured phase is cut
// into blocks: disturbed blocks — one, or most of them — move none of the
// reported figures as long as a quarter of the run was quiet.
func TestReduceBlocksIgnoresSlowBlocks(t *testing.T) {
	mk := func(wall time.Duration, scale float64) block {
		b := block{wall: wall, ops: 100}
		for i := 1; i <= 100; i++ {
			b.lat = append(b.lat, scale*float64(i))
		}
		return b
	}
	var blocks []block
	for i := 0; i < 9; i++ {
		blocks = append(blocks, mk(time.Second, 1))
	}
	clean := reduceBlocks(blocks)
	blocks[4] = mk(5*time.Second, 1)
	for i := 90; i < 100; i++ {
		blocks[4].lat[i] *= 50 // a stall in the slow block's tail
	}
	got := reduceBlocks(blocks)
	if got.opsPerSec != clean.opsPerSec || got.p95 != clean.p95 || got.p50 != clean.p50 {
		t.Errorf("one slow block moved the figures: %+v vs %+v", got, clean)
	}
	for _, i := range []int{0, 1, 2, 3, 5} { // six of nine blocks a quarter slower
		blocks[i] = mk(1250*time.Millisecond, 1.25)
	}
	if noisy := reduceBlocks(blocks); noisy.opsPerSec != clean.opsPerSec || noisy.p95 != clean.p95 || noisy.p50 != clean.p50 {
		t.Errorf("six slow blocks of nine moved the figures: %+v vs %+v", noisy, clean)
	}
	if clean.opsPerSec != 100 || clean.p95 != 95 || clean.p50 != 50 {
		t.Errorf("clean figures %+v, want ops_s 100, p95 95, p50 50", clean)
	}
	if got.max != 5000 {
		t.Errorf("max = %v, want the stall (5000) to show in the diagnostic", got.max)
	}
}

func TestSpreadAndVerdicts(t *testing.T) {
	bench := &benchFile{
		EndToEnd: []metricDef{{"allocs_op", "count", "lower", 0.10}},
		PerLayer: []metricDef{{Name: "ops_s", Unit: "1/s", Better: "higher"}},
	}
	// Each run carries the gated count in its result line and the ungated
	// throughput in its header; here both take the same values.
	set := func(vals ...float64) []suiteRun {
		var out []suiteRun
		for _, v := range vals {
			out = append(out, suiteRun{Header: header{Workload: "hot_single", Side: map[string]float64{"ops_s": v}},
				Result: resultLine{Metrics: map[string]metricValue{"allocs_op": {v, "count"}}}})
		}
		return out
	}
	for _, c := range []struct {
		name          string
		b             []suiteRun
		gated, ungate string
	}{
		{"same", set(100, 101, 99, 100, 100), "unchanged", "unchanged"},
		{"lower", set(80, 81, 79, 80, 80), "improved", "unchanged"}, // fewer allocations; 20 % less throughput is inside the ungated 25 %
		{"higher", set(120, 121, 119, 120, 120), "regressed", "improved"},
		{"noisy", set(60, 140, 100, 70, 130), "unresolved", "unresolved"},
	} {
		rows := compareSets(bench, set(100, 101, 99, 100, 100), c.b)
		if len(rows) != 2 || !rows[0].gated || rows[1].gated {
			t.Fatalf("%s: rows %+v, want the gated metric then the ungated one", c.name, rows)
		}
		if rows[0].verdict != c.gated || rows[1].verdict != c.ungate {
			t.Errorf("%s: verdicts %s / %s, want %s / %s", c.name, rows[0].verdict, rows[1].verdict, c.gated, c.ungate)
		}
	}
	rows := compareSets(bench, set(100, 100, 100), set(80, 80, 80))
	if math.Abs(rows[1].gap-0.2) > 1e-9 {
		t.Errorf("gap = %v, want +0.2 (a higher-is-better metric that fell by a fifth)", rows[1].gap)
	}
}
