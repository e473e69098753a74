package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/prix"
	"repro/internal/shard"
	"repro/internal/twig"
)

// TestStageHistogramsInMetrics: after serving queries, /metrics must expose
// per-stage latency histograms labeled by stage name.
func TestStageHistogramsInMetrics(t *testing.T) {
	ix := buildIndex(t, 50)
	srv := New(ix, Config{CacheCapacity: -1}) // no cache: every query executes
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, q := range []string{`//a[./b/c]/d`, `//a//d/e`, `//a`} {
		if code, _, raw := doQuery(t, ts.Client(), ts.URL, q); code != http.StatusOK {
			t.Fatalf("query %s: %d %s", q, code, raw)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, w := range []string{
		`# TYPE prix_stage_latency_seconds histogram`,
		`prix_stage_latency_seconds_bucket{stage="descent",le="+Inf"}`,
		`prix_stage_latency_seconds_bucket{stage="fetch",le="+Inf"}`,
		`prix_stage_latency_seconds_count{stage="compile"}`,
	} {
		if !strings.Contains(body, w) {
			t.Errorf("/metrics missing %q", w)
		}
	}
	if t.Failed() {
		t.Logf("metrics body:\n%s", body)
	}
}

// TestQueryTraceParam: ?trace=1 returns a span tree for executed queries
// and no tree for cache hits (which executed nothing).
func TestQueryTraceParam(t *testing.T) {
	ix := buildIndex(t, 50)
	srv := New(ix, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(url, body string) (QueryResponse, string) {
		resp, err := ts.Client().Post(url, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %s", url, resp.StatusCode, raw)
		}
		var qr QueryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatalf("bad response %q: %v", raw, err)
		}
		return qr, string(raw)
	}

	qr, raw := post(ts.URL+"/query?trace=1", `//a[./b/c]/d`)
	if qr.Trace == nil {
		t.Fatalf("first traced query returned no trace: %s", raw)
	}
	if qr.Trace.Name != "query" || len(qr.Trace.Children) == 0 {
		t.Errorf("trace root = %q with %d children", qr.Trace.Name, len(qr.Trace.Children))
	}
	match := qr.Trace.Children[0]
	if match.Name != "match" || match.DurNS <= 0 {
		t.Errorf("trace first child = %+v", match)
	}
	if _, ok := match.Stages["descent"]; !ok {
		// Stage times live on the filter/refine children; the match span
		// carries the attrs. Look one level down.
		found := false
		for _, c := range match.Children {
			if _, ok := c.Stages["descent"]; ok {
				found = true
			}
		}
		if !found {
			t.Errorf("no descent stage anywhere under match: %s", raw)
		}
	}

	// Same query again: served from cache, so there is nothing to trace.
	qr, raw = post(ts.URL+"/query?trace=1", `//a[./b/c]/d`)
	if !qr.Cached {
		t.Fatalf("second query not cached: %s", raw)
	}
	if qr.Trace != nil {
		t.Error("cache hit returned a trace, but no execution happened")
	}

	// Untraced request: no trace field even though the server traces.
	qr, _ = post(ts.URL+"/query", `//a//d/e`)
	if qr.Trace != nil {
		t.Error("request without ?trace=1 returned a trace")
	}
}

// TestTracingDisabled: DisableTracing suppresses traces, stage histograms
// and the slow log's trace trees without affecting results.
func TestTracingDisabled(t *testing.T) {
	ix := buildIndex(t, 20)
	srv := New(ix, Config{DisableTracing: true, CacheCapacity: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/query?trace=1", "text/plain", strings.NewReader(`//a/b`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var qr QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Trace != nil {
		t.Error("DisableTracing server returned a trace")
	}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		if srv.Metrics().Stages[st].Count() != 0 {
			t.Errorf("stage %s histogram observed %d samples with tracing off", st, srv.Metrics().Stages[st].Count())
		}
	}
}

// TestSlowLog: with a log-everything threshold, executed queries land in
// /debug/slowlog newest first with their trace trees; cache hits do not.
func TestSlowLog(t *testing.T) {
	ix := buildIndex(t, 50)
	srv := New(ix, Config{SlowLogThreshold: -1, SlowLogCapacity: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	queries := []string{`//a/b`, `//a//d/e`, `//a[./b/c]/d`, `//a`, `//d/e`, `/r/a/d`}
	for _, q := range queries {
		if code, _, raw := doQuery(t, ts.Client(), ts.URL, q); code != http.StatusOK {
			t.Fatalf("query %s: %d %s", q, code, raw)
		}
	}
	// Repeat: cache hits must not be logged again.
	doQuery(t, ts.Client(), ts.URL, queries[0])

	resp, err := ts.Client().Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Enabled     bool        `json:"enabled"`
		ThresholdMS int64       `json:"threshold_ms"`
		Total       uint64      `json:"total"`
		Entries     []SlowEntry `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !body.Enabled {
		t.Fatal("slowlog disabled")
	}
	if body.Total != uint64(len(queries)) {
		t.Errorf("slowlog total = %d, want %d (cache hit must not log)", body.Total, len(queries))
	}
	if len(body.Entries) != 4 {
		t.Fatalf("ring kept %d entries, capacity 4", len(body.Entries))
	}
	// Newest first: the last 4 executed queries in reverse order.
	for i, e := range body.Entries {
		want := queries[len(queries)-1-i]
		if e.Query != want {
			t.Errorf("entry %d query = %q, want %q", i, e.Query, want)
		}
		if e.Trace == nil {
			t.Errorf("entry %d has no trace tree", i)
		}
		if e.ElapsedUS < 0 {
			t.Errorf("entry %d elapsed = %d", i, e.ElapsedUS)
		}
	}
}

// TestSlowLogRespectsThreshold: fast queries stay out of the log when the
// threshold is high.
func TestSlowLogRespectsThreshold(t *testing.T) {
	ix := buildIndex(t, 10)
	srv := New(ix, Config{SlowLogThreshold: time.Hour})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	doQuery(t, ts.Client(), ts.URL, `//a/b`)
	entries, total := srv.slowlog.Snapshot()
	if len(entries) != 0 || total != 0 {
		t.Errorf("slowlog = %d entries (total %d), want empty", len(entries), total)
	}
}

// TestPprofRoutes: the pprof index is reachable by default and removed by
// DisablePprof.
func TestPprofRoutes(t *testing.T) {
	ix := buildIndex(t, 5)
	for _, disabled := range []bool{false, true} {
		srv := New(ix, Config{DisablePprof: disabled})
		ts := httptest.NewServer(srv.Handler())
		resp, err := ts.Client().Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ts.Close()
		if disabled && resp.StatusCode == http.StatusOK {
			t.Error("pprof reachable with DisablePprof")
		}
		if !disabled && resp.StatusCode != http.StatusOK {
			t.Errorf("pprof index = %d, want 200", resp.StatusCode)
		}
	}
}

// spanAttrs collects every value of a span tree's attribute key.
func spanAttrs(j *obs.SpanJSON, key string, out []any) []any {
	if j == nil {
		return out
	}
	if v, ok := j.Attrs[key]; ok {
		out = append(out, v)
	}
	for _, c := range j.Children {
		out = spanAttrs(c, key, out)
	}
	return out
}

// TestPooledTracesConcurrent runs traced requests from 8 goroutines —
// ?trace=1, every query slow-logged, Parallelism 4 — against one index and
// against a 2×2 sharded coordinator whose hedge delay launches backup
// reads, and checks that every reply's trace tree and every slow-log entry
// describes that request's own query. Traces are pooled, so a trace
// released while an engine goroutine still wrote to it, or handed to the
// next request before its tree was taken, shows up here as another query's
// spans (and under make race as a race).
func TestPooledTracesConcurrent(t *testing.T) {
	docs := oracleCorpus()
	ix, err := prix.Build(docs, prix.Options{Extended: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	co, err := shard.BuildMemory(docs, shard.BuildConfig{Shards: 2, Replicas: 2, Extended: true, Epoch: 1},
		shard.Config{HedgeDelay: 20 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	queries := []string{`//a/b`, `/a/b/c`, `//a[./b/c]/d`, `//a[./b][./d]`, `//b[./c]`, `//a//d/e`, `//a`}
	want := map[string]int{} // canonical form → count
	for _, s := range queries {
		q := twig.MustParse(s)
		ms, _, err := ix.Match(q, prix.MatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[q.String()] = len(ms)
	}
	for _, b := range []struct {
		name string
		src  Source
	}{{"single", ix}, {"2x2 sharded", co}} {
		srv := New(b.src, Config{CacheCapacity: -1, Parallelism: 4, SlowLogThreshold: -1})
		h := srv.Handler()
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 24; i++ {
					s := queries[(g+i)%len(queries)]
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query?trace=1", strings.NewReader(s)))
					var qr QueryResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil || rec.Code != http.StatusOK {
						errs <- fmt.Sprintf("%s: %d %v: %s", s, rec.Code, err, rec.Body)
						return
					}
					if n, ok := want[qr.Query]; !ok || qr.Count != n {
						errs <- fmt.Sprintf("%s: reply for %q with %d matches", s, qr.Query, qr.Count)
						return
					}
					if qr.Shared {
						continue // a singleflight follower executed nothing and has no tree
					}
					if msg := ownTrace(qr.Trace, qr.Query, qr.Count, b.src == Source(ix)); msg != "" {
						errs <- fmt.Sprintf("%s reply: %s", s, msg)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Errorf("%s: %s", b.name, msg)
		}
		entries, total := srv.slowlog.Snapshot()
		if len(entries) == 0 || total == 0 {
			t.Fatalf("%s: the slow log kept nothing", b.name)
		}
		for _, e := range entries {
			if n, ok := want[e.Query]; !ok || e.Count != n {
				t.Errorf("%s: slow-log entry for %q with %d matches", b.name, e.Query, e.Count)
			}
			if msg := ownTrace(e.Trace, e.Query, e.Count, b.src == Source(ix)); msg != "" {
				t.Errorf("%s: slow-log entry: %s", b.name, msg)
			}
		}
	}
}

// ownTrace reports how a span tree fails to describe the execution of query
// with count matches ("" when it does): every match span it holds must name
// the query, and on a single index the one match span must count count.
func ownTrace(tree *obs.SpanJSON, query string, count int, single bool) string {
	if tree == nil || tree.Name != "query" {
		return fmt.Sprintf("%s: no trace tree", query)
	}
	qs := spanAttrs(tree, "query", nil)
	if len(qs) == 0 {
		return fmt.Sprintf("%s: trace has no match span", query)
	}
	for _, q := range qs {
		if q != query {
			return fmt.Sprintf("%s: trace holds a match span of %v", query, q)
		}
	}
	// A reply's tree has been through JSON (float64 numbers), a slow-log
	// entry's not (int64): compare them printed.
	if ms := spanAttrs(tree, "matches", nil); single && (len(ms) != 1 || fmt.Sprint(ms[0]) != fmt.Sprint(count)) {
		return fmt.Sprintf("%s: trace counts matches %v, want [%d]", query, ms, count)
	}
	return ""
}
