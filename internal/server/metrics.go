package server

import (
	"fmt"
	"io"
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Metrics is the service's counter registry. Everything is lock-free: the
// hot path only does atomic adds, and readers (/metrics, /stats) only do
// atomic loads, so scraping never stalls query traffic.
type Metrics struct {
	// Served counts successfully answered queries.
	Served Counter
	// Errors counts queries that failed (parse errors excluded: those are
	// rejected before execution and counted in BadRequests).
	Errors Counter
	// BadRequests counts malformed requests (unparsable body or query).
	BadRequests Counter
	// Rejected counts requests turned away by admission control (429).
	Rejected Counter
	// Deadline counts queries cut off by their deadline or cancellation.
	Deadline Counter
	// CacheHits / CacheMisses count result-cache lookups.
	CacheHits   Counter
	CacheMisses Counter
	// FlightShared counts queries answered by piggybacking on an identical
	// in-flight query (singleflight collapse).
	FlightShared Counter
	// Corruptions counts queries that failed on detected storage corruption
	// (checksum mismatch, undecodable record).
	Corruptions Counter
	// TransientRetries counts the executor's single-shot retries of
	// transiently failed matches.
	TransientRetries Counter
	// DegradedServed counts queries answered with quarantined documents
	// skipped (partial but correct-for-healthy-data answers).
	DegradedServed Counter
	// PagesRead accumulates physical page reads attributed to queries.
	PagesRead Counter
	// InFlight is the number of requests currently being served.
	InFlight Gauge
	// Latency is the wall-clock time of each served POST /query, from its
	// admission to its reply written: body read, parse, execution and the
	// reply's encode and write. Rejected and failed requests are not in it.
	Latency Histogram
	// Stages holds one latency histogram per execution stage (descent,
	// fetch, connect, ... — the obs stage taxonomy), fed from per-query
	// traces. A stage with zero observations is omitted from /metrics.
	Stages [obs.NumStages]Histogram

	start time.Time
}

// ObserveStages records one executed query's per-stage durations. Stages
// the query never entered (zero windows) are skipped so their histograms
// keep reflecting only queries that actually exercised them.
func (m *Metrics) ObserveStages(durs [obs.NumStages]time.Duration, counts [obs.NumStages]int64) {
	for st := range durs {
		if counts[st] > 0 {
			m.Stages[st].Observe(durs[st])
		}
	}
}

// NewMetrics returns a zeroed registry.
func NewMetrics() *Metrics { return &Metrics{start: time.Now()} }

// Uptime is the time since the registry was created.
func (m *Metrics) Uptime() time.Duration { return time.Since(m.start) }

// Counter is an atomic monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic up/down gauge.
type Gauge struct{ v atomic.Int64 }

// Inc increments the gauge.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements the gauge.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the number of exponential latency buckets: bucket i covers
// latencies up to 64µs·2^i, so the range spans 64µs to ~34s before the
// overflow bucket.
const histBuckets = 20

// Histogram is a fixed-layout exponential latency histogram with atomic
// buckets. Quantiles are estimated as the upper bound of the bucket holding
// the requested rank — good to a factor of two, which is what a serving
// dashboard needs.
type Histogram struct {
	counts   [histBuckets + 1]atomic.Uint64 // +1 = overflow bucket
	sumNanos atomic.Uint64
	count    atomic.Uint64
}

// bucketBound returns the inclusive upper bound of bucket i.
func bucketBound(i int) time.Duration {
	return time.Duration(64<<uint(i)) * time.Microsecond
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < histBuckets && d > bucketBound(i) {
		i++
	}
	h.counts[i].Add(1)
	h.sumNanos.Add(uint64(d.Nanoseconds()))
	h.count.Add(1)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the mean observed latency (0 with no samples).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNanos.Load() / n)
}

// Quantile estimates the q-quantile (0 < q < 1) as the upper bound of the
// bucket containing that rank; the overflow bucket reports the largest
// tracked bound.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i := 0; i <= histBuckets; i++ {
		cum += h.counts[i].Load()
		if cum > rank {
			if i == histBuckets {
				return bucketBound(histBuckets - 1)
			}
			return bucketBound(i)
		}
	}
	return bucketBound(histBuckets - 1)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (text/plain; version=0.0.4).
func (m *Metrics) WritePrometheus(w io.Writer) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("prix_queries_served_total", "Queries answered successfully.", m.Served.Load())
	counter("prix_query_errors_total", "Queries that failed during execution.", m.Errors.Load())
	counter("prix_bad_requests_total", "Requests rejected as malformed.", m.BadRequests.Load())
	counter("prix_rejected_total", "Requests rejected by admission control.", m.Rejected.Load())
	counter("prix_deadline_total", "Queries cut off by deadline or cancellation.", m.Deadline.Load())
	counter("prix_cache_hits_total", "Result cache hits.", m.CacheHits.Load())
	counter("prix_cache_misses_total", "Result cache misses.", m.CacheMisses.Load())
	counter("prix_flight_shared_total", "Queries collapsed onto an identical in-flight query.", m.FlightShared.Load())
	counter("prix_pages_read_total", "Physical pages read by queries.", m.PagesRead.Load())
	counter("prix_corruption_errors_total", "Queries failed on detected storage corruption.", m.Corruptions.Load())
	counter("prix_transient_retries_total", "Single-shot retries of transiently failed matches.", m.TransientRetries.Load())
	counter("prix_degraded_responses_total", "Queries answered with quarantined documents skipped.", m.DegradedServed.Load())
	fmt.Fprintf(w, "# HELP prix_in_flight Requests currently being served.\n# TYPE prix_in_flight gauge\nprix_in_flight %d\n", m.InFlight.Load())

	fmt.Fprintf(w, "# HELP prix_query_latency_seconds Wall-clock time of a served query, admission to reply written.\n# TYPE prix_query_latency_seconds histogram\n")
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += m.Latency.counts[i].Load()
		fmt.Fprintf(w, "prix_query_latency_seconds_bucket{le=\"%g\"} %d\n", bucketBound(i).Seconds(), cum)
	}
	cum += m.Latency.counts[histBuckets].Load()
	fmt.Fprintf(w, "prix_query_latency_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "prix_query_latency_seconds_sum %g\n", float64(m.Latency.sumNanos.Load())/1e9)
	fmt.Fprintf(w, "prix_query_latency_seconds_count %d\n", m.Latency.count.Load())

	fmt.Fprintf(w, "# HELP prix_stage_latency_seconds Per-stage query execution latency.\n# TYPE prix_stage_latency_seconds histogram\n")
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		h := &m.Stages[st]
		if h.Count() == 0 {
			continue
		}
		var scum uint64
		for i := 0; i < histBuckets; i++ {
			scum += h.counts[i].Load()
			fmt.Fprintf(w, "prix_stage_latency_seconds_bucket{stage=%q,le=\"%g\"} %d\n",
				st.String(), bucketBound(i).Seconds(), scum)
		}
		scum += h.counts[histBuckets].Load()
		fmt.Fprintf(w, "prix_stage_latency_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", st.String(), scum)
		fmt.Fprintf(w, "prix_stage_latency_seconds_sum{stage=%q} %g\n", st.String(), float64(h.sumNanos.Load())/1e9)
		fmt.Fprintf(w, "prix_stage_latency_seconds_count{stage=%q} %d\n", st.String(), h.count.Load())
	}
}

// runtimeMetrics are the Go runtime's own numbers /metrics exports: the heap
// a resident index keeps live, the goal the collector paces towards, what
// collecting it costs, how much of the heap the collector must look inside —
// its object count and the bytes it scans, which pointer-free resident
// structures keep small — and what the process allocates: the growth of the
// two allocation counters over that of prix_queries_served_total is the
// objects and bytes a request costs, the benchmark's allocs_op and
// alloc_kb_op read off a live server.
var runtimeMetrics = []struct{ key, name, kind, help string }{
	{"/gc/heap/live:bytes", "go_heap_live_bytes", "gauge", "Heap bytes marked live by the last garbage collection."},
	{"/gc/heap/goal:bytes", "go_heap_goal_bytes", "gauge", "Heap size the current garbage-collection cycle aims to end at."},
	{"/gc/cycles/total:gc-cycles", "go_gc_cycles_total", "counter", "Completed garbage-collection cycles."},
	{"/cpu/classes/gc/total:cpu-seconds", "go_gc_cpu_seconds_total", "counter", "Estimated CPU time spent in the garbage collector."},
	{"/gc/heap/objects:objects", "go_gc_heap_objects", "gauge", "Heap objects occupied by live or not-yet-swept memory."},
	{"/gc/scan/heap:bytes", "go_gc_scan_heap_bytes", "gauge", "Heap bytes that may hold pointers, which a garbage collection must scan."},
	{"/gc/heap/allocs:objects", "go_gc_heap_allocs_objects_total", "counter", "Heap objects allocated since the process started."},
	{"/gc/heap/allocs:bytes", "go_gc_heap_allocs_bytes_total", "counter", "Heap bytes allocated since the process started."},
}

// writeRuntimeMetrics renders runtimeMetrics from one runtime/metrics read.
// A key this runtime does not know (KindBad) is left out.
func writeRuntimeMetrics(w io.Writer) {
	samples := make([]rtmetrics.Sample, len(runtimeMetrics))
	for i, m := range runtimeMetrics {
		samples[i].Name = m.key
	}
	rtmetrics.Read(samples)
	for i, m := range runtimeMetrics {
		var v string
		switch val := samples[i].Value; val.Kind() {
		case rtmetrics.KindUint64:
			v = fmt.Sprint(val.Uint64())
		case rtmetrics.KindFloat64:
			v = fmt.Sprint(val.Float64())
		default:
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", m.name, m.help, m.name, m.kind, m.name, v)
	}
}
