package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/prix"
	"repro/internal/scrub"
	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

// buildIndex makes an in-memory index over n copies of a small twig-rich
// document plus a few singletons so different queries have different counts.
func buildIndex(t *testing.T, n int) *prix.Index {
	t.Helper()
	var docs []*xmltree.Document
	for i := 0; i < n; i++ {
		docs = append(docs, xmltreetest.MustFromSExpr(i, `(a (b (c)) (d (e)))`))
	}
	docs = append(docs, xmltreetest.MustFromSExpr(n, `(a (b (c)) (x))`))
	docs = append(docs, xmltreetest.MustFromSExpr(n+1, `(r (a (d (e))))`))
	ix, err := prix.Build(docs, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func doQuery(t *testing.T, client *http.Client, base string, body string) (int, QueryResponse, string) {
	t.Helper()
	resp, err := client.Post(base+"/query", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var qr QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatalf("bad response %q: %v", raw, err)
		}
	}
	return resp.StatusCode, qr, string(raw)
}

// Acceptance (a): 1000 requests from 32 goroutines against one shared index
// return results identical to direct Index.Match.
func TestConcurrentRequestsMatchDirect(t *testing.T) {
	ix := buildIndex(t, 100)
	queries := []string{`//a[./b/c]/d`, `//a//d/e`, `//d/e`, `//a/b`}
	type baseline struct {
		count   int
		matches []prix.Match
	}
	base := map[string]baseline{}
	for _, qs := range queries {
		ms, _, err := ix.Match(twig.MustParse(qs), prix.MatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		base[qs] = baseline{count: len(ms), matches: ms}
	}

	srv := New(ix, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const goroutines = 32
	const perG = 32 // 1024 requests total
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; i < perG; i++ {
				qs := queries[(g+i)%len(queries)]
				status, qr, raw := func() (int, QueryResponse, string) {
					resp, err := client.Post(ts.URL+"/query", "text/plain", strings.NewReader(qs))
					if err != nil {
						errs <- err
						return 0, QueryResponse{}, ""
					}
					defer resp.Body.Close()
					b, _ := io.ReadAll(resp.Body)
					var out QueryResponse
					if resp.StatusCode == http.StatusOK {
						if err := json.Unmarshal(b, &out); err != nil {
							errs <- fmt.Errorf("bad body %q: %v", b, err)
						}
					}
					return resp.StatusCode, out, string(b)
				}()
				if status == 0 {
					return
				}
				if status != http.StatusOK {
					errs <- fmt.Errorf("query %q: status %d (%s)", qs, status, raw)
					return
				}
				want := base[qs]
				if qr.Count != want.count {
					errs <- fmt.Errorf("query %q: count %d, want %d", qs, qr.Count, want.count)
					return
				}
				if len(qr.Matches) != len(want.matches) {
					errs <- fmt.Errorf("query %q: %d matches serialized, want %d", qs, len(qr.Matches), len(want.matches))
					return
				}
				for j := range qr.Matches {
					wm := want.matches[j]
					gm := qr.Matches[j]
					if gm.Doc != wm.DocID {
						errs <- fmt.Errorf("query %q match %d: doc %d, want %d", qs, j, gm.Doc, wm.DocID)
						return
					}
					for k := range wm.Images {
						if gm.Images[k] != wm.Images[k] {
							errs <- fmt.Errorf("query %q match %d: images %v, want %v", qs, j, gm.Images, wm.Images)
							return
						}
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
	snap := srv.Snapshot()
	if snap.Served != goroutines*perG {
		t.Errorf("served = %d, want %d", snap.Served, goroutines*perG)
	}
	if snap.InFlight != 0 {
		t.Errorf("in_flight = %d after traffic, want 0", snap.InFlight)
	}
}

// TestRequestParallelismIsClamped: the request's parallelism sizes the
// engine's worker pool, so an absurd value must be clamped by the engine, not
// honoured — unclamped, 1<<20 took 44 s and 1.7 GB on a six-document corpus.
// The answer is the serial one, inside the default timeout.
func TestRequestParallelismIsClamped(t *testing.T) {
	srv := New(buildIndex(t, 100), Config{CacheCapacity: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status, serial, raw := doQuery(t, ts.Client(), ts.URL, `{"query": "//a[./b/c]/d", "parallelism": 1}`)
	if status != http.StatusOK || serial.Count == 0 {
		t.Fatalf("serial: status %d, count %d (%s)", status, serial.Count, raw)
	}
	status, huge, raw := doQuery(t, ts.Client(), ts.URL, `{"query": "//a[./b/c]/d", "parallelism": 1073741824}`)
	if status != http.StatusOK {
		t.Fatalf("parallelism 1<<30: status %d (%s)", status, raw)
	}
	if huge.Count != serial.Count || !reflect.DeepEqual(huge.Matches, serial.Matches) {
		t.Errorf("parallelism 1<<30: %d matches, serial %d, or different ones", huge.Count, serial.Count)
	}
}

// slowSource delays every Match until the deadline has a chance to fire,
// then delegates — so the engine itself observes the expired context.
type slowSource struct {
	*prix.Index
	delay time.Duration
}

func (s *slowSource) Match(q *twig.Query, opts prix.MatchOptions) ([]prix.Match, *prix.QueryStats, error) {
	timer := time.NewTimer(s.delay)
	defer timer.Stop()
	if opts.Ctx != nil {
		select {
		case <-opts.Ctx.Done():
		case <-timer.C:
		}
	} else {
		<-timer.C
	}
	return s.Index.Match(q, opts)
}

// Acceptance (b): a 1ms deadline on a slow workload returns a deadline
// error without corrupting shared state.
func TestQueryDeadline(t *testing.T) {
	ix := buildIndex(t, 50)
	q := twig.MustParse(`//a[./b/c]/d`)
	baseline, _, err := ix.Match(q, prix.MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(&slowSource{Index: ix, delay: 50 * time.Millisecond}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"query": "//a[./b/c]/d", "timeout_ms": 1}`
	status, _, raw := doQuery(t, ts.Client(), ts.URL, body)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("deadline query: status %d (%s), want 504", status, raw)
	}
	if got := srv.Metrics().Deadline.Load(); got != 1 {
		t.Errorf("deadline counter = %d, want 1", got)
	}
	// Shared state intact: a patient request succeeds with the right count.
	status, qr, raw := doQuery(t, ts.Client(), ts.URL, `{"query": "//a[./b/c]/d", "timeout_ms": 5000}`)
	if status != http.StatusOK {
		t.Fatalf("patient query: status %d (%s)", status, raw)
	}
	if qr.Count != len(baseline) {
		t.Errorf("patient query count = %d, want %d", qr.Count, len(baseline))
	}
	// And the index answers directly, too.
	ms, _, err := ix.Match(q, prix.MatchOptions{WarmCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(baseline) {
		t.Errorf("direct count after deadline = %d, want %d", len(ms), len(baseline))
	}
}

// blockingSource parks every Match on a gate so tests control in-flight
// occupancy deterministically.
type blockingSource struct {
	*prix.Index
	entered chan struct{} // one tick per Match entry
	release chan struct{} // closed to let matches proceed
	calls   atomic.Int64
}

func (s *blockingSource) Match(q *twig.Query, opts prix.MatchOptions) ([]prix.Match, *prix.QueryStats, error) {
	s.calls.Add(1)
	select {
	case s.entered <- struct{}{}:
	default:
	}
	<-s.release
	return s.Index.Match(q, opts)
}

// Acceptance (c): load beyond max-in-flight yields 429, not queue collapse.
func TestOverloadRejects(t *testing.T) {
	ix := buildIndex(t, 10)
	src := &blockingSource{Index: ix, entered: make(chan struct{}, 16), release: make(chan struct{})}
	srv := New(src, Config{MaxInFlight: 2, DefaultTimeout: -1, CacheCapacity: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type result struct {
		status int
		count  int
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		qs := []string{`//a/b`, `//d/e`}[i]
		go func(qs string) {
			resp, err := ts.Client().Post(ts.URL+"/query", "text/plain", strings.NewReader(qs))
			if err != nil {
				results <- result{status: -1}
				return
			}
			defer resp.Body.Close()
			var qr QueryResponse
			_ = json.NewDecoder(resp.Body).Decode(&qr)
			results <- result{status: resp.StatusCode, count: qr.Count}
		}(qs)
	}
	// Wait until both slots are genuinely occupied inside the engine.
	for i := 0; i < 2; i++ {
		select {
		case <-src.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("blocked requests never reached the engine")
		}
	}
	// Every further request must be turned away immediately.
	for i := 0; i < 8; i++ {
		status, _, raw := doQuery(t, ts.Client(), ts.URL, fmt.Sprintf(`//q%d`, i))
		if status != http.StatusTooManyRequests {
			t.Fatalf("overload request %d: status %d (%s), want 429", i, status, raw)
		}
	}
	close(src.release)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("blocked request finished with status %d", r.status)
		}
	}
	if got := srv.Metrics().Rejected.Load(); got != 8 {
		t.Errorf("rejected = %d, want 8", got)
	}
	if got := srv.Metrics().Served.Load(); got != 2 {
		t.Errorf("served = %d, want 2", got)
	}
}

// Acceptance (d): graceful shutdown drains in-flight queries.
func TestDrainWaitsForInFlight(t *testing.T) {
	ix := buildIndex(t, 10)
	src := &blockingSource{Index: ix, entered: make(chan struct{}, 16), release: make(chan struct{})}
	srv := New(src, Config{DefaultTimeout: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/query", "text/plain", strings.NewReader(`//a/b`))
		if err != nil {
			done <- -1
			return
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		done <- resp.StatusCode
	}()
	select {
	case <-src.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the engine")
	}

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()

	// Draining refuses new queries...
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, _, _ := doQuery(t, ts.Client(), ts.URL, `//d/e`)
		if status == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining server kept accepting queries")
		}
		time.Sleep(time.Millisecond)
	}
	// ...but does not finish while a query is in flight.
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with a query still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(src.release)
	if status := <-done; status != http.StatusOK {
		t.Fatalf("in-flight request finished with status %d, want 200", status)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never returned after the last query finished")
	}
	// Health endpoint reports draining.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", resp.StatusCode)
	}
}

// Acceptance (e): /metrics and /stats counters are consistent with the
// observed request mix.
func TestMetricsConsistency(t *testing.T) {
	ix := buildIndex(t, 20)
	srv := New(ix, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	queries := []string{`//a/b`, `//d/e`, `//a[./b/c]/d`, `//a//d/e`, `//r/a`}
	const rounds = 10
	for r := 0; r < rounds; r++ {
		for _, qs := range queries {
			status, _, raw := doQuery(t, ts.Client(), ts.URL, qs)
			if status != http.StatusOK {
				t.Fatalf("query %q: status %d (%s)", qs, status, raw)
			}
		}
	}
	// One bad request for the error counters.
	if status, _, _ := doQuery(t, ts.Client(), ts.URL, `not an xpath`); status != http.StatusBadRequest {
		t.Fatalf("malformed query accepted with status %d", status)
	}

	total := uint64(rounds * len(queries))
	snap := srv.Snapshot()
	if snap.Served != total {
		t.Errorf("served = %d, want %d", snap.Served, total)
	}
	if snap.CacheMisses != uint64(len(queries)) {
		t.Errorf("cache misses = %d, want %d (one per distinct query)", snap.CacheMisses, len(queries))
	}
	if snap.CacheHits != total-uint64(len(queries)) {
		t.Errorf("cache hits = %d, want %d", snap.CacheHits, total-uint64(len(queries)))
	}
	if snap.CacheHits+snap.CacheMisses != total {
		t.Errorf("hits+misses = %d, want %d", snap.CacheHits+snap.CacheMisses, total)
	}
	if snap.BadRequests != 1 {
		t.Errorf("bad_requests = %d, want 1", snap.BadRequests)
	}
	if snap.InFlight != 0 {
		t.Errorf("in_flight = %d, want 0", snap.InFlight)
	}
	if snap.CacheEntries != len(queries) {
		t.Errorf("cache_entries = %d, want %d", snap.CacheEntries, len(queries))
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		fmt.Sprintf("prix_queries_served_total %d", total),
		fmt.Sprintf("prix_cache_hits_total %d", snap.CacheHits),
		fmt.Sprintf("prix_cache_misses_total %d", snap.CacheMisses),
		"prix_in_flight 0",
		fmt.Sprintf("prix_query_latency_seconds_count %d", total),
		`prix_query_latency_seconds_bucket{le="+Inf"} ` + fmt.Sprint(total),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// Identical concurrent queries collapse onto one engine execution.
func TestSingleflightCollapse(t *testing.T) {
	ix := buildIndex(t, 30)
	src := &blockingSource{Index: ix, entered: make(chan struct{}, 16), release: make(chan struct{})}
	srv := New(src, Config{DefaultTimeout: -1, CacheCapacity: -1, MaxInFlight: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 8
	counts := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, qr, raw := doQuery(t, ts.Client(), ts.URL, `//a/b`)
			if status != http.StatusOK {
				t.Errorf("status %d (%s)", status, raw)
				counts <- -1
				return
			}
			counts <- qr.Count
		}()
	}
	// One request reaches the engine; give the rest time to pile onto the
	// same flight, then release.
	select {
	case <-src.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no request reached the engine")
	}
	time.Sleep(100 * time.Millisecond)
	close(src.release)
	wg.Wait()
	close(counts)
	want := -2
	for c := range counts {
		if want == -2 {
			want = c
		}
		if c != want {
			t.Errorf("divergent counts: %d vs %d", c, want)
		}
	}
	if calls := src.calls.Load(); calls >= n {
		t.Errorf("engine executed %d times for %d identical queries; want a collapse", calls, n)
	}
	if shared := srv.Metrics().FlightShared.Load(); shared == 0 {
		t.Error("no flight sharing recorded")
	}
}

// DynamicIndex.Insert moves the generation, so the result cache misses.
func TestCacheInvalidatedOnInsert(t *testing.T) {
	var initial []*xmltree.Document
	for i := 0; i < 10; i++ {
		initial = append(initial, xmltreetest.MustFromSExpr(i, `(a (b (c)) (d (e)))`))
	}
	di, err := prix.NewDynamicIndex(initial, prix.Options{}, prix.DynamicOptions{Alpha: 3})
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor(di, 128, 4, nil)
	q := twig.MustParse(`//a[./b/c]/d`)
	res, err := exec.Execute(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != len(initial) {
		t.Fatalf("initial matches = %d, want %d", len(res.Matches), len(initial))
	}
	// Second execution hits the cache.
	res, err = exec.Execute(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("second execution missed the cache")
	}
	if err := di.Insert(xmltreetest.MustFromSExpr(100, `(a (b (c)) (d (e)))`)); err != nil {
		t.Fatal(err)
	}
	res, err = exec.Execute(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("cache served a stale result across an Insert")
	}
	if len(res.Matches) != len(initial)+1 {
		t.Errorf("post-insert matches = %d, want %d", len(res.Matches), len(initial)+1)
	}
}

// A cache hit's stats are the stats of the execution that produced the
// answer — the miss that filled the entry, its elapsed_us and pages_read
// included — and "cached" says they are not this request's own.
func TestCacheHitCarriesMissStats(t *testing.T) {
	ds := datagen.SwissProt(1, 1)
	dir := t.TempDir()
	built, err := prix.Build(ds.Docs, prix.Options{Dir: dir, Extended: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := prix.Open(dir, prix.Options{Extended: true, BufferPoolPages: 64}) // cold: the miss reads pages
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	h := New(ix, Config{}).Handler()
	serve := func() QueryResponse {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(ds.Queries[2].XPath)))
		var qr QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("%d %v: %s", rec.Code, err, rec.Body)
		}
		return qr
	}
	miss, hit := serve(), serve()
	if miss.Cached || !hit.Cached {
		t.Fatalf("cached = %v then %v, want false then true", miss.Cached, hit.Cached)
	}
	if miss.Stats.PagesRead == 0 || miss.Stats.ElapsedUS == 0 {
		t.Fatalf("the miss read %d pages in %d µs: nothing for the hit to carry", miss.Stats.PagesRead, miss.Stats.ElapsedUS)
	}
	if hit.Stats != miss.Stats {
		t.Errorf("hit stats %+v, miss stats %+v", hit.Stats, miss.Stats)
	}
}

// The LRU evicts at capacity and the sharding spreads keys.
func TestCacheEviction(t *testing.T) {
	c := NewCache(8, 2)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), &cached{})
	}
	if n := c.Len(); n > 8 {
		t.Errorf("cache holds %d entries, cap 8", n)
	}
	c.Flush()
	if n := c.Len(); n != 0 {
		t.Errorf("cache holds %d entries after Flush", n)
	}
	// nil cache (disabled) is inert.
	var nc *Cache
	nc.Put("k", &cached{})
	if _, ok := nc.Get("k"); ok {
		t.Error("nil cache returned a value")
	}
}

// Histogram quantiles land in the right buckets.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond)
	}
	if p50 := h.Quantile(0.5); p50 > time.Millisecond {
		t.Errorf("p50 = %v, want sub-millisecond", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 10*time.Millisecond {
		t.Errorf("p99 = %v, want tens of milliseconds", p99)
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
}

// A hot-budget index surfaces its tier through /stats and /metrics; an
// uncompressed index leaves both blocks absent.
func TestHotTierSurfaces(t *testing.T) {
	var docs []*xmltree.Document
	for i := 0; i < 20; i++ {
		docs = append(docs, xmltreetest.MustFromSExpr(i, `(a (b (c)) (d (e)))`))
	}
	hotIx, err := prix.Build(docs, prix.Options{HotBudget: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(hotIx, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if status, _, raw := doQuery(t, ts.Client(), ts.URL, `//a/b/c`); status != http.StatusOK {
		t.Fatalf("query: status %d (%s)", status, raw)
	}

	snap := srv.Snapshot()
	if snap.Hot == nil || !snap.Hot.Enabled {
		t.Fatalf("snapshot missing hot block: %+v", snap.Hot)
	}
	if snap.Hot.Tier.Bytes == 0 || snap.Hot.Tier.Hits == 0 {
		t.Errorf("tier unused: %+v", snap.Hot.Tier)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if s := buf.String(); !strings.Contains(s, `"hot"`) || !strings.Contains(s, `"budget_bytes"`) {
		t.Errorf("/stats JSON missing hot residency block: %s", s)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{"prix_hot_bytes ", "prix_hot_budget_bytes 4194304", "prix_hot_hits_total "} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The uncompressed twin must not grow the surfaces.
	coldIx := buildIndex(t, 5)
	csrv := New(coldIx, Config{})
	if snap := csrv.Snapshot(); snap.Hot != nil {
		t.Errorf("uncompressed index reports hot block: %+v", snap.Hot)
	}
}

// Metrics returns the registry the executor reports into.
func (e *Executor) Metrics() *Metrics { return e.metrics }

// Executor returns the server's execution path (shared with CLIs/benches).
func (s *Server) Executor() *Executor { return s.exec }

// SetScrubber attaches a background scrubber, enabling GET /scrub and
// POST /repair. Call before serving; the server does not start or stop the
// scrubber, it only reports on it and triggers repair passes.
func (s *Server) SetScrubber(sc *scrub.Scrubber) { s.scrs = []*scrub.Scrubber{sc} }
