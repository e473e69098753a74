package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/prix"
	"repro/internal/twig"
)

// Source is the engine a service executes queries against: *prix.Index,
// *prix.DynamicIndex, *compact.Root or *shard.Coordinator.
type Source = prix.Source

// QueryOptions are the per-request execution knobs exposed by the service.
type QueryOptions struct {
	// Unordered finds unordered twig matches (§5.7).
	Unordered bool
	// DisableMaxGap turns off Theorem 4 pruning.
	DisableMaxGap bool
	// Parallelism caps the workers the engine schedules this query's walk
	// over (prix.MatchOptions.Parallelism): 0 means GOMAXPROCS, 1 the calling
	// goroutine alone. It is deliberately NOT part of the result-cache key —
	// results are byte-identical at every setting, so requests differing
	// only in Parallelism share cache entries and singleflight leaders.
	Parallelism int
	// Trace, when non-nil, collects a span tree of the execution. Like
	// Parallelism it is NOT part of the cache key: tracing never changes the
	// result, so traced requests share cache entries with untraced ones —
	// which also means a cache hit (or a singleflight follower) comes back
	// with the trace unfilled. Callers must treat those traces as absent.
	Trace *obs.Trace
	// AsOf answers the query at a historical version (0 = latest); see
	// prix.MatchOptions.AsOf. Part of the cache key — different versions
	// see different documents.
	AsOf uint64
}

// appendKey appends the options' contribution to the cache key.
func (o QueryOptions) appendKey(b []byte) []byte {
	u, g := byte('-'), byte('-')
	if o.Unordered {
		u = 'u'
	}
	if o.DisableMaxGap {
		g = 'g'
	}
	b = append(b, u, g)
	if o.AsOf != 0 {
		b = strconv.AppendUint(append(b, '@'), o.AsOf, 16)
	}
	return b
}

// Result is one executed query.
type Result struct {
	// Query is the query's canonical form, rendered once per request: the
	// cache key starts with it, and the response and the slow log echo it.
	Query string
	// Matches are the twig occurrences. The slice may be shared with the
	// cache and other requests: treat it as immutable. It is valid until
	// Release.
	Matches []prix.Match
	// Stats is the engine-level accounting of the execution that produced
	// the matches: a cache hit carries the stats of the miss that filled
	// the entry, PagesRead and Elapsed included, with Cached set.
	Stats prix.QueryStats
	// Cached reports the result came from the cache.
	Cached bool
	// Shared reports the result was computed by a concurrent identical
	// request (singleflight).
	Shared bool
	// buf is the memory the engine packed Matches into when this request
	// alone reads them: nil when they are cached or shared.
	buf *prix.MatchBuf
}

// Release ends the result's use of Matches, whose memory the next request
// may then reuse. Matches is nil afterwards; a second Release does nothing.
// A result never released is collected like any other value.
func (r *Result) Release() {
	r.buf.Release()
	r.buf, r.Matches = nil, nil
}

// Executor runs parsed queries against a Source through the result cache
// and the singleflight collapse. It is the single execution path shared by
// the HTTP service, cmd/prixquery and the benchmark/ workloads, so every
// entry point observes the same semantics.
type Executor struct {
	src     Source
	cache   *Cache
	metrics *Metrics
	flight  flightGroup
}

// NewExecutor wires an executor. capacity < 1 disables the result cache;
// metrics may be nil (a private registry is created).
func NewExecutor(src Source, cacheCapacity, cacheShards int, m *Metrics) *Executor {
	if m == nil {
		m = NewMetrics()
	}
	return &Executor{src: src, cache: NewCache(cacheCapacity, cacheShards), metrics: m}
}

// Source returns the executor's index.
func (e *Executor) Source() Source { return e.src }

// CacheLen returns the number of cached results.
func (e *Executor) CacheLen() int { return e.cache.Len() }

// InvalidateCache drops every cached result.
func (e *Executor) InvalidateCache() { e.cache.Flush() }

// Execute runs one parsed query. The context bounds execution: its
// cancellation is observed between the engine's B+-tree range queries.
func (e *Executor) Execute(ctx context.Context, q *twig.Query, qo QueryOptions) (Result, error) {
	// The key is canonical form, options and source generation in one
	// string, built on the stack when it fits; the canonical form is its
	// prefix, not a second rendering. The generation is read before Match:
	// a mutation landing mid-query moves it, so the entry this execution
	// fills sits under a key no request minted after the mutation reads.
	b := q.AppendString(make([]byte, 0, 256))
	n := len(b)
	b = qo.appendKey(append(b, 0))
	b = strconv.AppendUint(append(b, 0), e.src.Generation(), 16)
	key := string(b)
	res := Result{Query: key[:n]}
	if ent, ok := e.cache.Get(key); ok {
		e.metrics.CacheHits.Inc()
		res.Matches, res.Stats, res.Cached = ent.matches, ent.stats, true
		return res, nil
	}
	e.metrics.CacheMisses.Inc()
	ent, err, shared := e.flight.Do(key, func() (cached, error) {
		return e.run(ctx, q, qo, key)
	})
	if shared {
		e.metrics.FlightShared.Inc()
		if isContextErr(err) && ctx.Err() == nil {
			// The leader died of its own deadline/cancellation but this
			// follower is still live: retry once, alone.
			ent, err = e.run(ctx, q, qo, key)
		}
	}
	if err != nil {
		return Result{}, err
	}
	res.Matches, res.Stats, res.Shared, res.buf = ent.matches, ent.stats, shared, ent.buf
	return res, nil
}

// transientRetryBackoff is how long the executor waits before its single
// retry of a transiently failed match (an I/O hiccup, not corruption).
const transientRetryBackoff = 25 * time.Millisecond

// run performs the actual index match and fills the cache on success; the
// entry is allocated only when there is a cache to put it in. Without a
// cache the answer is packed into a pooled buffer, which the result carries
// to Release (a failed match leaves its buffer to the collector): the cache
// keeps the engine's own exactly sized copy, but an uncached answer is read
// once and dropped.
// Transient read faults get exactly one retry after a short backoff —
// bounded so an unhealthy disk degrades to fast errors, not a retry storm.
func (e *Executor) run(ctx context.Context, q *twig.Query, qo QueryOptions, key string) (cached, error) {
	mo := prix.MatchOptions{
		WarmCache:     true, // shared pools: queries keep each other's pages hot
		Unordered:     qo.Unordered,
		DisableMaxGap: qo.DisableMaxGap,
		Parallelism:   qo.Parallelism,
		Trace:         qo.Trace,
		AsOf:          qo.AsOf,
		Ctx:           ctx,
	}
	if e.cache == nil {
		mo.Into = prix.NewMatchBuf()
	}
	ms, stats, err := e.src.Match(q, mo)
	if err != nil && prix.IsTransient(err) && ctx.Err() == nil {
		e.metrics.TransientRetries.Inc()
		select {
		case <-time.After(transientRetryBackoff):
		case <-ctx.Done():
			return cached{}, fmt.Errorf("server: retry canceled: %w", ctx.Err())
		}
		ms, stats, err = e.src.Match(q, mo)
	}
	if err != nil {
		return cached{}, err
	}
	e.metrics.PagesRead.Add(stats.PagesRead)
	// Degraded answers (quarantined documents skipped) are deliberately not
	// cached: once the corruption is repaired, the next identical query
	// returns the full answer instead of a stale partial one.
	if e.cache != nil && !stats.Degraded {
		e.cache.Put(key, &cached{matches: ms, stats: *stats})
	}
	return cached{matches: ms, stats: *stats, buf: mo.Into}, nil
}

// isContextErr reports whether err stems from context cancellation or
// deadline expiry.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ParseQuery parses the service's XPath subset, normalizing the error for
// transport boundaries.
func ParseQuery(src string) (*twig.Query, error) {
	q, err := twig.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	return q, nil
}
