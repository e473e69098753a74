// Package server is the PRIX query service: an HTTP front end over one
// shared read-optimized index (the deployment shape of §6 at serving time —
// many concurrent clients, one index). It layers, bottom up:
//
//   - an Executor: the single query execution path (parse → result cache →
//     singleflight collapse → Index.Match with context cancellation),
//     shared by the HTTP handlers, cmd/prixquery and the benchmark/ workloads;
//   - admission control: a bounded in-flight slot pool; requests beyond the
//     bound are rejected immediately with 429 instead of queueing into
//     collapse;
//   - per-request deadlines plumbed into the engine, which observes
//     cancellation between B+-tree range queries;
//   - graceful drain: new work is refused while in-flight queries finish;
//   - a lock-free metrics registry rendered in Prometheus text format.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/compact"
	"repro/internal/obs"
	"repro/internal/prix"
	"repro/internal/scrub"
	"repro/internal/shard"
)

// Config tunes the service.
type Config struct {
	// MaxInFlight bounds concurrently executing requests; excess requests
	// get 429. 0 means DefaultMaxInFlight.
	MaxInFlight int
	// DefaultTimeout bounds queries that do not ask for a deadline.
	// 0 means DefaultQueryTimeout; negative means no default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (default 30s).
	MaxTimeout time.Duration
	// CacheCapacity is the result cache size in entries (default 1024);
	// negative disables caching.
	CacheCapacity int
	// CacheShards is the cache shard count (default 16).
	CacheShards int
	// MaxBodyBytes bounds the request body (default 1 MiB).
	MaxBodyBytes int64
	// MaxMatches caps the matches serialized per response (default 1000;
	// negative means unlimited). The count field always reports the full
	// cardinality.
	MaxMatches int
	// Parallelism is the default per-query worker cap handed to the engine
	// (prix.MatchOptions.Parallelism) when a request does not set its own:
	// 0 means GOMAXPROCS, 1 keeps a query on the goroutine serving it, and
	// the engine clamps large values. Results are identical at every
	// setting; this only trades single-query latency against cross-request
	// throughput on a loaded server.
	Parallelism int
	// SlowLogCapacity sizes the slow-query ring buffer served at
	// GET /debug/slowlog (default 64; negative disables it).
	SlowLogCapacity int
	// SlowLogThreshold is the elapsed time at which a query is logged
	// (default 100ms; negative logs every query).
	SlowLogThreshold time.Duration
	// DisableTracing turns off per-request span collection. With tracing on
	// (the default) every executed query feeds the per-stage latency
	// histograms and the slow log, and clients may request their span tree
	// with POST /query?trace=1.
	DisableTracing bool
	// DisablePprof removes the net/http/pprof handlers from /debug/pprof/.
	DisablePprof bool
}

// Defaults for Config zero values.
const (
	DefaultMaxInFlight  = 64
	DefaultQueryTimeout = 2 * time.Second
	DefaultMaxTimeout   = 30 * time.Second
	DefaultCacheSize    = 1024
	DefaultCacheShards  = 16
	DefaultMaxBody      = 1 << 20
	DefaultMaxMatches   = 1000
	DefaultSlowLogCap   = 64
	DefaultSlowLogAfter = 100 * time.Millisecond
)

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxInFlight <= 0 {
		out.MaxInFlight = DefaultMaxInFlight
	}
	if out.DefaultTimeout == 0 {
		out.DefaultTimeout = DefaultQueryTimeout
	}
	if out.MaxTimeout <= 0 {
		out.MaxTimeout = DefaultMaxTimeout
	}
	if out.CacheCapacity == 0 {
		out.CacheCapacity = DefaultCacheSize
	}
	if out.CacheShards <= 0 {
		out.CacheShards = DefaultCacheShards
	}
	if out.MaxBodyBytes <= 0 {
		out.MaxBodyBytes = DefaultMaxBody
	}
	if out.MaxMatches == 0 {
		out.MaxMatches = DefaultMaxMatches
	}
	if out.SlowLogCapacity == 0 {
		out.SlowLogCapacity = DefaultSlowLogCap
	}
	if out.SlowLogThreshold == 0 {
		out.SlowLogThreshold = DefaultSlowLogAfter
	} else if out.SlowLogThreshold < 0 {
		out.SlowLogThreshold = 0 // log everything
	}
	return out
}

// Server is the HTTP query service.
type Server struct {
	cfg      Config
	exec     *Executor
	metrics  *Metrics
	sem      chan struct{}
	draining chan struct{} // closed when draining starts
	drainOne sync.Once
	inflight sync.WaitGroup
	scrs     []*scrub.Scrubber
	cmp      *compact.Compactor
	slowlog  *SlowLog
}

// New builds a service over the source. Result-cache keys carry the
// source's generation, so a mutable source's writes retire stale entries.
func New(src Source, cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	return &Server{
		cfg:      cfg,
		exec:     NewExecutor(src, cfg.CacheCapacity, cfg.CacheShards, m),
		metrics:  m,
		sem:      make(chan struct{}, cfg.MaxInFlight),
		draining: make(chan struct{}),
		slowlog:  NewSlowLog(cfg.SlowLogCapacity, cfg.SlowLogThreshold),
	}
}

// Metrics returns the server's registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// SetScrubbers attaches one scrubber per backing index — the sharded
// deployment shape, where every shard replica scrubs (and repairs)
// independently. GET /scrub reports all of them; POST /repair runs a pass
// on each.
func (s *Server) SetScrubbers(scs []*scrub.Scrubber) { s.scrs = scs }

// SetCompactor attaches the background compactor of a compact.Root source,
// enabling POST /compact and the compaction gauges in /metrics and /stats.
// Like SetScrubber, the server only reports on it and triggers runs; the
// caller owns Start/Stop.
func (s *Server) SetCompactor(c *compact.Compactor) { s.cmp = c }

// Handler returns the service's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /scrub", s.handleScrub)
	mux.HandleFunc("POST /repair", s.handleRepair)
	mux.HandleFunc("POST /compact", s.handleCompact)
	mux.HandleFunc("GET /debug/slowlog", s.handleSlowLog)
	if !s.cfg.DisablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Drain stops admitting queries and waits for in-flight ones to finish, or
// for ctx to expire. It is idempotent; /healthz reports 503 once draining.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOne.Do(func() { close(s.draining) })
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// QueryRequest is the POST /query body. A plain-text body is accepted too:
// the whole body is then the XPath and every option takes its default.
type QueryRequest struct {
	// Query is the XPath-subset query text.
	Query string `json:"query"`
	// Unordered finds unordered twig matches (§5.7).
	Unordered bool `json:"unordered,omitempty"`
	// NoMaxGap disables Theorem 4 pruning.
	NoMaxGap bool `json:"no_maxgap,omitempty"`
	// TimeoutMS overrides the server's default query deadline (capped by
	// the server's MaxTimeout).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// CountOnly omits the matches array from the response.
	CountOnly bool `json:"count_only,omitempty"`
	// Limit caps the matches serialized (0 = server default).
	Limit int `json:"limit,omitempty"`
	// Parallelism overrides the server's default per-query worker cap
	// (0 = server default; 1 = one goroutine; the engine clamps large
	// values). Results are identical at every setting, so it never affects
	// result caching.
	Parallelism int `json:"parallelism,omitempty"`
	// AsOf answers the query at a historical version (0 = latest): the
	// document set reflects exactly the inserts/updates/deletes whose
	// versions are <= as_of. Requires a versioned index.
	AsOf uint64 `json:"as_of,omitempty"`
}

// QueryResponse is the POST /query response.
type QueryResponse struct {
	Query     string `json:"query"`
	Count     int    `json:"count"`
	Cached    bool   `json:"cached"`
	Shared    bool   `json:"shared,omitempty"`
	Truncated bool   `json:"truncated,omitempty"`
	// Degraded reports that quarantined (corrupt) documents were skipped:
	// the answer is complete over every healthy document but may miss
	// matches in the quarantined ones. Mirrored in the X-Prix-Degraded
	// response header so proxies can flag it without parsing the body.
	Degraded bool `json:"degraded,omitempty"`
	// DegradedShards names the shards that contributed only partial (or no)
	// results, when the service runs a sharded backend ("shard-002", ...).
	// The X-Prix-Degraded header carries the same names comma-joined; a
	// degraded single-index service sends "true" there instead.
	DegradedShards []string `json:"degraded_shards,omitempty"`
	// Quarantined lists the skipped docids when Degraded is set.
	Quarantined []uint32     `json:"quarantined,omitempty"`
	Matches     []MatchJSON  `json:"matches,omitempty"`
	Stats       ResponseStat `json:"stats"`
	// Trace is the execution span tree, present only when the request asked
	// for it (?trace=1), the server has tracing enabled, and the result was
	// actually computed by this request — cache hits and singleflight
	// followers have no execution of their own to trace.
	Trace *obs.SpanJSON `json:"trace,omitempty"`
}

// MatchJSON is one twig occurrence on the wire.
type MatchJSON struct {
	Doc    uint32  `json:"doc"`
	Images []int32 `json:"images"`
	Root   int32   `json:"root"`
}

// ResponseStat is the engine accounting on the wire.
type ResponseStat struct {
	ElapsedUS     int64  `json:"elapsed_us"`
	RangeQueries  int    `json:"range_queries"`
	Candidates    int    `json:"candidates"`
	PagesRead     uint64 `json:"pages_read"`
	RecordFetches int    `json:"record_fetches,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// bufPool holds the per-request buffers of POST /query: one holds the
// request body and then the reply. bufKeep bounds what one keeps, so a
// single large body or reply does not pin its buffer in the pool.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

const bufKeep = 64 << 10

func putBuf(b *[]byte) {
	if cap(*b) <= bufKeep {
		bufPool.Put(b)
	}
}

// readBody reads r into buf's backing array, growing it as needed, and stops
// after limit bytes: io.ReadAll over an io.LimitReader, without the reader
// and into a buffer the caller reuses.
func readBody(r io.Reader, limit int64, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for int64(len(buf)) < limit {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		room := buf[len(buf):min(int64(cap(buf)), limit)]
		n, err := r.Read(room)
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// timeout is a request's deadline: timeout_ms when it asks for one, the
// server default otherwise, and MaxTimeout at most. timeout_ms is clamped in
// milliseconds before it becomes a Duration, whose nanoseconds it would
// otherwise overflow.
func (s *Server) timeout(ms int64) time.Duration {
	t := s.cfg.DefaultTimeout
	if ms > 0 {
		if ms <= s.cfg.MaxTimeout.Milliseconds() {
			t = time.Duration(ms) * time.Millisecond
		} else {
			t = s.cfg.MaxTimeout
		}
	}
	return min(t, s.cfg.MaxTimeout)
}

// parseRequest decodes the body: JSON when it looks like an object, raw
// XPath text otherwise.
func parseRequest(body []byte) (QueryRequest, error) {
	trimmed := bytes.TrimSpace(body)
	if bytes.HasPrefix(trimmed, []byte("{")) {
		var req QueryRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return QueryRequest{}, fmt.Errorf("bad JSON body: %w", err)
		}
		return req, nil
	}
	return QueryRequest{Query: string(trimmed)}, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.metrics.Rejected.Inc()
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is draining"})
		return
	}
	// Admission control: try-acquire an in-flight slot; never queue. A
	// rejected request costs one channel operation, so overload degrades
	// to cheap 429s instead of a growing queue.
	select {
	case s.sem <- struct{}{}:
	default:
		s.metrics.Rejected.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			Error: fmt.Sprintf("over capacity (%d in flight)", cap(s.sem)),
		})
		return
	}
	s.inflight.Add(1)
	s.metrics.InFlight.Inc()
	defer func() {
		s.metrics.InFlight.Dec()
		s.inflight.Done()
		<-s.sem
	}()

	start := time.Now()
	// The body is read into a pooled buffer that the reply is then encoded
	// into: parseRequest copies everything it keeps, so nothing aliases the
	// body once it is decoded.
	buf := bufPool.Get().(*[]byte)
	defer putBuf(buf)
	body, err := readBody(r.Body, s.cfg.MaxBodyBytes+1, *buf)
	*buf = body
	if err != nil {
		s.metrics.BadRequests.Inc()
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "read body: " + err.Error()})
		return
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		s.metrics.BadRequests.Inc()
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
			Error: fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes),
		})
		return
	}
	req, err := parseRequest(body)
	if err != nil {
		s.metrics.BadRequests.Inc()
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		s.metrics.BadRequests.Inc()
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty query"})
		return
	}
	q, err := ParseQuery(req.Query)
	if err != nil {
		s.metrics.BadRequests.Inc()
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	ctx := r.Context()
	if timeout := s.timeout(req.TimeoutMS); timeout > 0 {
		rc := withTimeout(ctx, timeout)
		defer rc.release()
		ctx = rc
	}

	par := s.cfg.Parallelism
	if req.Parallelism > 0 {
		par = req.Parallelism
	}
	// With tracing enabled every executed query carries a trace: it feeds
	// the per-stage histograms and the slow log even when the client did not
	// ask to see it. The engine's zero-trace fast path is reserved for
	// servers that opt out via DisableTracing.
	var tr *obs.Trace
	if !s.cfg.DisableTracing {
		tr = obs.NewTrace("query")
	}
	wantTrace := r.URL.RawQuery != "" && r.URL.Query().Get("trace") == "1"
	res, err := s.exec.Execute(ctx, q, QueryOptions{
		Unordered:     req.Unordered,
		DisableMaxGap: req.NoMaxGap,
		Parallelism:   par,
		Trace:         tr,
		AsOf:          req.AsOf,
	})
	if err != nil {
		tr.Release()
		switch {
		case isContextErr(err):
			s.metrics.Deadline.Inc()
			writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: err.Error()})
		case errors.Is(err, prix.ErrNeedsExtendedIndex):
			s.metrics.Errors.Inc()
			writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		case prix.IsCorruption(err):
			// Corruption the engine could not route around (e.g. an index
			// page, not a document record). Permanent until repaired.
			s.metrics.Corruptions.Inc()
			s.metrics.Errors.Inc()
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		case prix.IsTransient(err):
			// Already retried once by the executor; tell the client to back
			// off and try again rather than declaring the query failed.
			s.metrics.Errors.Inc()
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		default:
			s.metrics.Errors.Inc()
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		}
		return
	}
	// The reply is encoded from res.Matches and written before this runs.
	defer res.Release()

	s.metrics.Served.Inc()
	elapsed := time.Since(start)

	// A cache hit or a singleflight follower executed nothing, so its trace
	// is empty: only results this request computed feed the stage
	// histograms, the slow log and the response's trace tree.
	executed := tr != nil && !res.Cached && !res.Shared
	var tree *obs.SpanJSON
	if executed {
		tr.Finish()
		durs, counts := tr.StageTotals()
		s.metrics.ObserveStages(durs, counts)
		// The tree and the log entry are built only for a request that keeps
		// them: nearly every query is below the threshold and asked for neither.
		slow := s.slowlog.Slow(elapsed)
		if wantTrace || slow {
			tree = tr.Tree()
		}
		if slow {
			s.slowlog.Add(SlowEntry{
				Time:        start.UTC().Format(time.RFC3339Nano),
				Query:       res.Query,
				Unordered:   req.Unordered,
				Parallelism: par,
				ElapsedUS:   elapsed.Microseconds(),
				Count:       len(res.Matches),
				Candidates:  res.Stats.Candidates,
				PagesRead:   res.Stats.PagesRead,
				Degraded:    res.Stats.Degraded,
				Trace:       tree,
			})
		}
	}
	// Everything wanted from the trace is taken, and no goroutine of the
	// execution outlives Match: the next request may have it.
	tr.Release()

	resp := QueryResponse{
		Query:    res.Query,
		Count:    len(res.Matches),
		Cached:   res.Cached,
		Shared:   res.Shared,
		Degraded: res.Stats.Degraded,
		Stats: ResponseStat{
			ElapsedUS:     res.Stats.Elapsed.Microseconds(),
			RangeQueries:  res.Stats.RangeQueries,
			Candidates:    res.Stats.Candidates,
			PagesRead:     res.Stats.PagesRead,
			RecordFetches: res.Stats.RecordFetches,
		},
	}
	if wantTrace && executed {
		resp.Trace = tree
	}
	if resp.Degraded {
		s.metrics.DegradedServed.Inc()
		resp.Quarantined = s.exec.Source().Stats().Quarantined
		if names := shardNames(res.Stats.DegradedShards); len(names) > 0 {
			resp.DegradedShards = names
			w.Header().Set("X-Prix-Degraded", strings.Join(names, ","))
		} else {
			w.Header().Set("X-Prix-Degraded", "true")
		}
	}
	var ms []prix.Match
	if !req.CountOnly {
		limit := req.Limit
		if limit <= 0 {
			limit = s.cfg.MaxMatches
		}
		ms = res.Matches
		if limit > 0 && len(ms) > limit {
			ms = ms[:limit]
			resp.Truncated = true
		}
	}
	out, err := appendReply((*buf)[:0], &resp, ms)
	*buf = out
	if err != nil {
		s.metrics.Errors.Inc()
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "encode reply: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(out)
	// Observed after the write, so a large reply's encode is in the histogram.
	s.metrics.Latency.Observe(time.Since(start))
}

// shardNames renders shard ordinals as their canonical names.
func shardNames(ids []int) []string {
	if len(ids) == 0 {
		return nil
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = shard.Name(id)
	}
	return out
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	st := s.exec.Source().Stats()
	body := map[string]any{
		"status":   "ok",
		"docs":     st.Docs,
		"extended": st.Extended,
	}
	degraded := false
	if len(st.Shards) > 0 {
		body["shards"] = len(st.Shards)
		body["topology_epoch"] = st.Epoch
		if names := shardNames(st.DegradedShards()); len(names) > 0 {
			degraded = true
			body["degraded_shards"] = names
			w.Header().Set("X-Prix-Degraded", strings.Join(names, ","))
		}
	}
	// A quarantine (or a down shard) makes the service degraded, not down:
	// it still answers over every healthy document, so the status stays 200
	// (load balancers keep routing) while the body and header flag the
	// partial coverage.
	if q := st.Quarantined; len(q) > 0 {
		degraded = true
		body["quarantined"] = q
		if w.Header().Get("X-Prix-Degraded") == "" {
			w.Header().Set("X-Prix-Degraded", "true")
		}
	}
	if degraded {
		body["status"] = "degraded"
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
	writeRuntimeMetrics(w)
	// The source's own state (quarantine, shards, hot tier, versions) is not
	// in the registry, so it is rendered here where the source is in reach.
	st := s.exec.Source().Stats()
	fmt.Fprintf(w, "# HELP prix_quarantined_docs Documents quarantined after corruption was detected.\n"+
		"# TYPE prix_quarantined_docs gauge\nprix_quarantined_docs %d\n", len(st.Quarantined))
	fmt.Fprintf(w, "# HELP prix_pool_resident_pages Pages held in the buffer pools.\n"+
		"# TYPE prix_pool_resident_pages gauge\nprix_pool_resident_pages %d\n", st.PoolResidentPages)
	fmt.Fprintf(w, "# HELP prix_dict_bytes Heap bytes the symbol dictionaries hold.\n"+
		"# TYPE prix_dict_bytes gauge\nprix_dict_bytes %d\n", st.DictBytes)
	fmt.Fprintf(w, "# HELP prix_shapes Distinct document shapes the shape dictionaries hold.\n"+
		"# TYPE prix_shapes gauge\nprix_shapes %d\n", st.Shapes)
	fmt.Fprintf(w, "# HELP prix_shape_bytes Heap bytes the shape dictionaries hold.\n"+
		"# TYPE prix_shape_bytes gauge\nprix_shape_bytes %d\n", st.ShapeBytes)
	fmt.Fprintf(w, "# HELP prix_btree_leaf_splits_total B+-tree leaves split by inserts since the serving forest was opened.\n"+
		"# TYPE prix_btree_leaf_splits_total counter\nprix_btree_leaf_splits_total %d\n", st.LeafSplits)
	if len(st.Shards) > 0 {
		fmt.Fprintf(w, "# HELP prix_degraded_shards Shards currently serving partial results.\n"+
			"# TYPE prix_degraded_shards gauge\nprix_degraded_shards %d\n", len(st.DegradedShards()))
	}
	if hot := st.Hot; hot.Enabled {
		fmt.Fprintf(w, "# HELP prix_hot_bytes Bytes resident in the in-memory hot tier.\n"+
			"# TYPE prix_hot_bytes gauge\nprix_hot_bytes %d\n", hot.Tier.Bytes)
		fmt.Fprintf(w, "# HELP prix_hot_budget_bytes Configured hot-tier byte budget.\n"+
			"# TYPE prix_hot_budget_bytes gauge\nprix_hot_budget_bytes %d\n", hot.Tier.Budget)
		fmt.Fprintf(w, "# HELP prix_hot_items B+-tree leaves (postings and Docid) resident in the hot tier.\n"+
			"# TYPE prix_hot_items gauge\nprix_hot_items %d\n", hot.Tier.Items)
		fmt.Fprintf(w, "# HELP prix_hot_hits_total Lookups served from the hot tier.\n"+
			"# TYPE prix_hot_hits_total counter\nprix_hot_hits_total %d\n", hot.Tier.Hits)
		fmt.Fprintf(w, "# HELP prix_hot_misses_total Hot-tier lookups that fell back to the B+-trees or store.\n"+
			"# TYPE prix_hot_misses_total counter\nprix_hot_misses_total %d\n", hot.Tier.Misses)
		fmt.Fprintf(w, "# HELP prix_hot_evictions_total Structures demoted from the hot tier under budget pressure.\n"+
			"# TYPE prix_hot_evictions_total counter\nprix_hot_evictions_total %d\n", hot.Tier.Evictions)
	}
	if vs := st.Versions; vs.Enabled {
		fmt.Fprintf(w, "# HELP prix_versions_total Latest assigned MVCC version (insert/update/delete counter).\n"+
			"# TYPE prix_versions_total counter\nprix_versions_total %d\n", vs.Current)
		fmt.Fprintf(w, "# HELP prix_tombstones_total Documents deleted at the latest version.\n"+
			"# TYPE prix_tombstones_total gauge\nprix_tombstones_total %d\n", vs.Tombstones)
	}
	if s.cmp != nil {
		cs := s.cmp.Stats()
		running := 0
		if cs.Running {
			running = 1
		}
		fmt.Fprintf(w, "# HELP prix_compactions_total Completed background compactions.\n"+
			"# TYPE prix_compactions_total counter\nprix_compactions_total %d\n", cs.Runs)
		fmt.Fprintf(w, "# HELP prix_compaction_failures_total Compactions aborted before commit.\n"+
			"# TYPE prix_compaction_failures_total counter\nprix_compaction_failures_total %d\n", cs.Failures)
		fmt.Fprintf(w, "# HELP prix_compactions_skipped_total Compaction intervals skipped with nothing to do.\n"+
			"# TYPE prix_compactions_skipped_total counter\nprix_compactions_skipped_total %d\n", cs.Skipped)
		fmt.Fprintf(w, "# HELP prix_compaction_docs_total Documents rewritten by compactions.\n"+
			"# TYPE prix_compaction_docs_total counter\nprix_compaction_docs_total %d\n", cs.DocsCompacted)
		fmt.Fprintf(w, "# HELP prix_compaction_epoch Serving epoch (bumps on every swap).\n"+
			"# TYPE prix_compaction_epoch gauge\nprix_compaction_epoch %d\n", cs.Epoch)
		fmt.Fprintf(w, "# HELP prix_compaction_running Whether a compaction is in flight.\n"+
			"# TYPE prix_compaction_running gauge\nprix_compaction_running %d\n", running)
		fmt.Fprintf(w, "# HELP prix_compaction_last_pause_seconds Insert freeze window of the last compaction.\n"+
			"# TYPE prix_compaction_last_pause_seconds gauge\nprix_compaction_last_pause_seconds %g\n",
			cs.LastPause.Seconds())
		for _, phase := range []struct {
			name string
			d    time.Duration
		}{{"drain", cs.LastDrain}, {"build", cs.LastBuild}, {"publish", cs.LastPublish}} {
			fmt.Fprintf(w, "# HELP prix_compaction_last_%[1]s_seconds Time the last compaction spent in its %[1]s phase.\n"+
				"# TYPE prix_compaction_last_%[1]s_seconds gauge\nprix_compaction_last_%[1]s_seconds %[2]g\n",
				phase.name, phase.d.Seconds())
		}
		fmt.Fprintf(w, "# HELP prix_chained_docs Documents the serving epoch labeled as chains since it was built: the prefix sharing the next compaction restores.\n"+
			"# TYPE prix_chained_docs gauge\nprix_chained_docs %d\n", cs.ChainedDocs)
	}
}

// StatsSnapshot is the GET /stats payload.
type StatsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Docs          int     `json:"docs"`
	Served        uint64  `json:"served"`
	Errors        uint64  `json:"errors"`
	BadRequests   uint64  `json:"bad_requests"`
	Rejected      uint64  `json:"rejected"`
	Deadline      uint64  `json:"deadline"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	CacheEntries  int     `json:"cache_entries"`
	FlightShared  uint64  `json:"flight_shared"`
	PagesRead     uint64  `json:"pages_read"`
	Corruptions   uint64  `json:"corruptions"`
	Retries       uint64  `json:"transient_retries"`
	Degraded      uint64  `json:"degraded_served"`
	Quarantined   int     `json:"quarantined_docs"`
	InFlight      int64   `json:"in_flight"`
	LatencyMeanUS int64   `json:"latency_mean_us"`
	LatencyP50US  int64   `json:"latency_p50_us"`
	LatencyP95US  int64   `json:"latency_p95_us"`
	LatencyP99US  int64   `json:"latency_p99_us"`
	// PoolResidentPages is the pages the source's buffer pools hold. Hot-tier
	// builds read around the pools, so over a fully resident tier it stays at
	// the handful of pages Open decodes.
	PoolResidentPages uint64 `json:"pool_resident_pages"`
	// DictBytes is the heap the source's symbol dictionaries hold, summed
	// over every shard replica.
	DictBytes int `json:"dict_bytes"`
	// Shapes is the distinct document shapes the source's shape dictionaries
	// hold and ShapeBytes their heap, summed over every shard replica.
	Shapes     int `json:"shapes"`
	ShapeBytes int `json:"shape_bytes"`
	// LeafSplits is the B+-tree leaves inserts have split since the serving
	// forest was opened: split churn that a compaction's bulk load resets.
	LeafSplits uint64 `json:"leaf_splits"`
	// Sharded backends only: topology and the per-shard serving counters.
	// The top-level fields (docs, pages_read, quarantined_docs, ...) already
	// aggregate across every shard and replica; this is the breakdown.
	NumShards      int               `json:"num_shards,omitempty"`
	Epoch          uint64            `json:"topology_epoch,omitempty"`
	DegradedShards []string          `json:"degraded_shards,omitempty"`
	Shards         []prix.ShardStats `json:"shards,omitempty"`
	// Compaction is present when a background compactor is attached.
	Compaction *compact.Stats `json:"compaction,omitempty"`
	// Hot is present when the backend serves from an in-memory
	// hot tier (prix.Options.HotBudget > 0): residency and hit counters.
	Hot *prix.HotStats `json:"hot,omitempty"`
	// Versions is present when the backend carries MVCC version state:
	// the current version counter and the tombstone census. AS OF queries
	// ("as_of" in QueryRequest) resolve against any version up to Current.
	Versions *prix.VersionStats `json:"versions,omitempty"`
}

// Snapshot assembles the current stats.
func (s *Server) Snapshot() StatsSnapshot {
	m := s.metrics
	st := s.exec.Source().Stats()
	snap := StatsSnapshot{
		UptimeSeconds: m.Uptime().Seconds(),
		Docs:          st.Docs,
		Served:        m.Served.Load(),
		Errors:        m.Errors.Load(),
		BadRequests:   m.BadRequests.Load(),
		Rejected:      m.Rejected.Load(),
		Deadline:      m.Deadline.Load(),
		CacheHits:     m.CacheHits.Load(),
		CacheMisses:   m.CacheMisses.Load(),
		CacheEntries:  s.exec.CacheLen(),
		FlightShared:  m.FlightShared.Load(),
		PagesRead:     m.PagesRead.Load(),
		Corruptions:   m.Corruptions.Load(),
		Retries:       m.TransientRetries.Load(),
		Degraded:      m.DegradedServed.Load(),
		Quarantined:   len(st.Quarantined),
		InFlight:      m.InFlight.Load(),
		LatencyMeanUS: m.Latency.Mean().Microseconds(),
		LatencyP50US:  m.Latency.Quantile(0.50).Microseconds(),
		LatencyP95US:  m.Latency.Quantile(0.95).Microseconds(),
		LatencyP99US:  m.Latency.Quantile(0.99).Microseconds(),
	}
	snap.PoolResidentPages = st.PoolResidentPages
	snap.DictBytes = st.DictBytes
	snap.Shapes, snap.ShapeBytes = st.Shapes, st.ShapeBytes
	snap.LeafSplits = st.LeafSplits
	if len(st.Shards) > 0 {
		snap.NumShards = len(st.Shards)
		snap.Epoch = st.Epoch
		snap.DegradedShards = shardNames(st.DegradedShards())
		snap.Shards = st.Shards
	}
	if s.cmp != nil {
		cs := s.cmp.Stats()
		snap.Compaction = &cs
	}
	if st.Hot.Enabled {
		snap.Hot = &st.Hot
	}
	if st.Versions.Enabled {
		snap.Versions = &st.Versions
	}
	return snap
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// handleSlowLog serves the slow-query ring buffer, newest first.
func (s *Server) handleSlowLog(w http.ResponseWriter, r *http.Request) {
	if s.slowlog == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	entries, total := s.slowlog.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":      true,
		"threshold_ms": s.slowlog.Threshold().Milliseconds(),
		"total":        total,
		"entries":      entries,
	})
}

// handleScrub reports the scrubbers' counters and last passes. One
// scrubber (the single-index shape) keeps the original flat payload;
// a sharded service reports one entry per backing index.
func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	if len(s.scrs) == 0 {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	if len(s.scrs) == 1 {
		writeJSON(w, http.StatusOK, map[string]any{
			"enabled":     true,
			"stats":       s.scrs[0].Stats(),
			"last_report": s.scrs[0].LastReport(),
		})
		return
	}
	indexes := make([]map[string]any, len(s.scrs))
	for i, sc := range s.scrs {
		indexes[i] = map[string]any{
			"stats":       sc.Stats(),
			"last_report": sc.LastReport(),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled": true,
		"indexes": indexes,
	})
}

// handleRepair runs one repair pass synchronously and returns its report.
// This is the online-repair trigger: damage found by earlier scrub passes
// (or by degraded queries) is healed without restarting the server, and the
// response says what was rewritten, rebuilt or left for RestoreSnapshot.
func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	if len(s.scrs) == 0 {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "no scrubber attached"})
		return
	}
	if len(s.scrs) == 1 {
		rep, err := s.scrs[0].RepairNow(r.Context())
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]any{
				"error":  err.Error(),
				"report": rep,
			})
			return
		}
		// The repair may have flipped the service out of degraded mode;
		// invalidate cached degraded results so full answers are recomputed.
		s.exec.InvalidateCache()
		writeJSON(w, http.StatusOK, rep)
		return
	}
	// Sharded: repair every backing index; a failure on one does not stop
	// the others (each shard replica heals independently).
	reports := make([]map[string]any, len(s.scrs))
	failed := false
	for i, sc := range s.scrs {
		rep, err := sc.RepairNow(r.Context())
		entry := map[string]any{"report": rep}
		if err != nil {
			entry["error"] = err.Error()
			failed = true
		}
		reports[i] = entry
	}
	s.exec.InvalidateCache()
	status := http.StatusOK
	if failed {
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, map[string]any{"indexes": reports})
}

// handleCompact triggers one compaction synchronously and returns its
// report. The run is detached from the request context inside RunOnce — a
// client disconnect or proxy timeout does not abort the compaction, which
// keeps running to commit (only compactor Stop cancels it); the dropped
// response is recoverable via /stats. An aborted compaction is not fatal
// to serving — the old epoch keeps answering — so the error response
// carries the typed phase detail for the operator and nothing else
// changes.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if s.cmp == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "no compactor attached"})
		return
	}
	rep, err := s.cmp.RunOnce(r.Context())
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, compact.ErrCompacting) {
			status = http.StatusConflict
		} else if errors.Is(err, compact.ErrStopped) {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]any{
			"error":  err.Error(),
			"report": rep,
		})
		return
	}
	// The swap's generation bump already retires cached results computed
	// against the old epoch; the explicit flush just reclaims their memory.
	s.exec.InvalidateCache()
	writeJSON(w, http.StatusOK, rep)
}
