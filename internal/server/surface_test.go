package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/compact"
	"repro/internal/obs"
	"repro/internal/prix"
	"repro/internal/shard"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

// statsBase is every /stats key the service renders for any source.
var statsBase = []string{
	"uptime_seconds", "docs", "served", "errors", "bad_requests", "rejected",
	"deadline", "cache_hits", "cache_misses", "cache_entries", "flight_shared",
	"pages_read", "corruptions", "transient_retries", "degraded_served",
	"quarantined_docs", "in_flight", "latency_mean_us", "latency_p50_us",
	"latency_p95_us", "latency_p99_us", "pool_resident_pages", "dict_bytes",
	"shapes", "shape_bytes", "leaf_splits",
}

// metricsBase is every /metrics name the service renders for any source
// once one traced query has run.
var metricsBase = []string{
	"prix_queries_served_total", "prix_query_errors_total", "prix_bad_requests_total",
	"prix_rejected_total", "prix_deadline_total", "prix_cache_hits_total",
	"prix_cache_misses_total", "prix_flight_shared_total", "prix_pages_read_total",
	"prix_corruption_errors_total", "prix_transient_retries_total",
	"prix_degraded_responses_total", "prix_in_flight",
	"prix_query_latency_seconds_bucket", "prix_query_latency_seconds_sum",
	"prix_query_latency_seconds_count",
	"prix_stage_latency_seconds_bucket", "prix_stage_latency_seconds_sum",
	"prix_stage_latency_seconds_count",
	"prix_quarantined_docs", "prix_pool_resident_pages", "prix_dict_bytes",
	"prix_shapes", "prix_shape_bytes", "prix_btree_leaf_splits_total",
	"go_heap_live_bytes", "go_heap_goal_bytes", "go_gc_cycles_total", "go_gc_cpu_seconds_total",
	"go_gc_heap_objects", "go_gc_scan_heap_bytes",
	"go_gc_heap_allocs_objects_total", "go_gc_heap_allocs_bytes_total",
}

var (
	// replyStatKeys are a query reply's "stats" keys when it read no record
	// (record_fetches is omitempty).
	replyStatKeys = []string{"elapsed_us", "range_queries", "candidates", "pages_read"}
	// stageLabels are the stage taxonomy, every stage
	// prix_stage_latency_seconds may carry.
	stageLabels = []string{
		"compile", "cold_start", "descent", "prefetch", "fetch", "connect",
		"structure", "leaves", "reduce",
	}
	metricsHot = []string{
		"prix_hot_bytes", "prix_hot_budget_bytes", "prix_hot_items",
		"prix_hot_hits_total", "prix_hot_misses_total", "prix_hot_evictions_total",
	}
	metricsCompaction = []string{
		"prix_compactions_total", "prix_compaction_failures_total",
		"prix_compactions_skipped_total", "prix_compaction_docs_total",
		"prix_compaction_epoch", "prix_compaction_running",
		"prix_compaction_last_pause_seconds", "prix_compaction_last_drain_seconds",
		"prix_compaction_last_build_seconds", "prix_compaction_last_publish_seconds",
		"prix_labeler_nodes", "prix_labeler_bytes",
	}
	// shardRowKeys are a healthy shard row's /stats keys (down and
	// quarantined are omitempty).
	shardRowKeys = []string{
		"id", "replicas", "docs", "queries", "errors", "failovers", "retries",
		"hedges", "degraded", "pages_read", "latency_mean_us",
	}
)

func join(sets ...[]string) []string {
	var out []string
	for _, s := range sets {
		out = append(out, s...)
	}
	return out
}

func sortedKeys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedSet(names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}

// getJSON fetches one JSON endpoint into a generic map.
func getJSON(t *testing.T, url string) (map[string]any, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body, resp.Header
}

// metricNames lists the distinct sample names of a /metrics scrape and the
// distinct stage labels of its stage histogram.
func metricNames(t *testing.T, url string) (names, stages []string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	seen, stageSeen := map[string]bool{}, map[string]bool{}
	const stageCount = `prix_stage_latency_seconds_count{stage="`
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		seen[name] = true
		if rest, ok := strings.CutPrefix(line, stageCount); ok {
			stageSeen[rest[:strings.IndexByte(rest, '"')]] = true
		}
	}
	return setKeys(seen), setKeys(stageSeen)
}

func setKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// openRootOver writes docs as an on-disk dynamic index and opens it as a
// compaction root, the way prixserve serves an insertable directory.
func openRootOver(t *testing.T, docs []*xmltree.Document, opts prix.Options) *compact.Root {
	t.Helper()
	dir := t.TempDir()
	di, err := prix.NewDynamicIndex(docs[:4], prix.Options{Dir: dir, Extended: opts.Extended}, prix.DynamicOptions{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs[4:] {
		if err := di.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := di.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	root, err := compact.OpenRoot(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Close() })
	return root
}

// TestSurfaceParity pins the wire surface every engine wrapper presents to
// the service: the /healthz and /stats key sets, the /metrics name set, the
// values the source reports (docs, extended, dictionary bytes, shards,
// topology epoch, hot and versions blocks), the query reply's stats keys,
// the stage labels a traced query leaves in /metrics and the X-Prix-Degraded
// header once a document is quarantined. It is written against the wire, not the Go interfaces, so
// it holds across any reshaping of how the server reaches its source.
func TestSurfaceParity(t *testing.T) {
	if got := obs.StageNames(); !reflect.DeepEqual(got, stageLabels) {
		t.Errorf("stage taxonomy = %v, want %v", got, stageLabels)
	}
	docs := shardCorpus(12)
	const hotBudget = 1 << 20

	ix, err := prix.Build(docs, prix.Options{Extended: true})
	if err != nil {
		t.Fatal(err)
	}
	di, err := prix.NewDynamicIndex(docs, prix.Options{Extended: true}, prix.DynamicOptions{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := di.Update(13, xmltreetest.MustFromSExpr(13, `(r (a (d (e))) (x))`)); err != nil {
		t.Fatal(err)
	}
	root := openRootOver(t, docs, prix.Options{Extended: true, HotBudget: hotBudget})
	co, err := shard.BuildMemory(docs, shard.BuildConfig{Shards: 2, Replicas: 2, Extended: true, Epoch: 7}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		srv        *Server
		quarantine func()
		healthz    []string
		stats      []string
		metrics    []string
		shards     int
		dictBytes  int
		shapes     int
		versions   map[string]any
		hot        bool
		degraded   string
	}{
		{
			name:       "Index",
			srv:        New(ix, Config{}),
			quarantine: func() { ix.Store().Quarantine(0) },
			healthz:    []string{"status", "docs", "extended"},
			stats:      statsBase,
			metrics:    metricsBase,
			dictBytes:  ix.Store().Dict().Bytes(),
			shapes:     ix.Store().NumShapes(),
			degraded:   "true",
		},
		{
			name:       "DynamicIndex",
			srv:        New(di, Config{}),
			quarantine: func() { di.Index().Store().Quarantine(0) },
			healthz:    []string{"status", "docs", "extended"},
			stats:      join(statsBase, []string{"versions"}),
			metrics:    join(metricsBase, []string{"prix_versions_total", "prix_tombstones_total"}),
			versions:   map[string]any{"Enabled": true, "Current": 1.0, "Tombstones": 0.0, "Versioned": 1.0, "MutOps": 1.0},
			dictBytes:  di.Index().Store().Dict().Bytes(),
			shapes:     di.Index().Store().NumShapes(),
			degraded:   "true",
		},
		{
			name: "Root",
			srv: func() *Server {
				s := New(root, Config{})
				s.SetCompactor(compact.New(root, compact.Config{MemBudget: 32 << 10}))
				return s
			}(),
			quarantine: func() { root.Index().Index().Store().Quarantine(0) },
			healthz:    []string{"status", "docs", "extended"},
			stats:      join(statsBase, []string{"compaction", "hot"}),
			metrics:    join(metricsBase, metricsHot, metricsCompaction),
			dictBytes:  root.Index().Index().Store().Dict().Bytes(),
			shapes:     root.Index().Index().Store().NumShapes(),
			hot:        true,
			degraded:   "true",
		},
		{
			name: "Coordinator",
			srv:  New(co, Config{}),
			quarantine: func() {
				// Both replicas of shard 0: one clean copy would mask the damage.
				for _, r := range co.Indexes()[:2] {
					r.Store().Quarantine(0)
				}
			},
			healthz: []string{"status", "docs", "extended", "shards", "topology_epoch"},
			stats:   join(statsBase, []string{"num_shards", "topology_epoch", "shards"}),
			metrics: join(metricsBase, []string{"prix_degraded_shards"}),
			shards:  2,
			// Summed over both replicas of both shards.
			dictBytes: func() int {
				n := 0
				for _, r := range co.Indexes() {
					n += r.Store().Dict().Bytes()
				}
				return n
			}(),
			shapes: func() int {
				n := 0
				for _, r := range co.Indexes() {
					n += r.Store().NumShapes()
				}
				return n
			}(),
			degraded: shard.Name(0),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(tc.srv.Handler())
			defer ts.Close()
			status, _, raw := doQuery(t, ts.Client(), ts.URL, `//a/b`)
			if status != http.StatusOK {
				t.Fatalf("query: status %d (%s)", status, raw)
			}
			var reply struct{ Stats map[string]any }
			if err := json.Unmarshal([]byte(raw), &reply); err != nil {
				t.Fatal(err)
			}
			if got, want := sortedKeys(reply.Stats), sortedSet(replyStatKeys); !reflect.DeepEqual(got, want) {
				t.Errorf("query reply stats keys = %v, want %v", got, want)
			}

			hz, _ := getJSON(t, ts.URL+"/healthz")
			if got, want := sortedKeys(hz), sortedSet(tc.healthz); !reflect.DeepEqual(got, want) {
				t.Errorf("/healthz keys = %v, want %v", got, want)
			}
			if hz["status"] != "ok" || hz["docs"] != float64(len(docs)) || hz["extended"] != true {
				t.Errorf("/healthz = %v, want ok over %d extended docs", hz, len(docs))
			}
			st, _ := getJSON(t, ts.URL+"/stats")
			if got, want := sortedKeys(st), sortedSet(tc.stats); !reflect.DeepEqual(got, want) {
				t.Errorf("/stats keys = %v, want %v", got, want)
			}
			if st["docs"] != float64(len(docs)) {
				t.Errorf("/stats docs = %v, want %d", st["docs"], len(docs))
			}
			if st["dict_bytes"] != float64(tc.dictBytes) || tc.dictBytes <= 0 {
				t.Errorf("/stats dict_bytes = %v, want the source's %d", st["dict_bytes"], tc.dictBytes)
			}
			if src := tc.srv.exec.Source().Stats(); st["shapes"] != float64(tc.shapes) || st["shape_bytes"] != float64(src.ShapeBytes) || src.ShapeBytes <= 0 {
				t.Errorf("/stats shapes = %v, shape_bytes = %v; want %d and the source's %d",
					st["shapes"], st["shape_bytes"], tc.shapes, src.ShapeBytes)
			}
			names, stages := metricNames(t, ts.URL+"/metrics")
			if got, want := names, sortedSet(tc.metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("/metrics names = %v, want %v", got, want)
			}
			if len(stages) == 0 {
				t.Error("/metrics carries no stage series after a traced query")
			}
			for _, st := range stages {
				if !slices.Contains(stageLabels, st) {
					t.Errorf("/metrics stage %q, want one of %v", st, stageLabels)
				}
			}

			if tc.shards > 0 {
				if hz["shards"] != float64(tc.shards) || hz["topology_epoch"] != 7.0 {
					t.Errorf("/healthz shards=%v topology_epoch=%v, want %d and 7", hz["shards"], hz["topology_epoch"], tc.shards)
				}
				if st["num_shards"] != float64(tc.shards) || st["topology_epoch"] != 7.0 {
					t.Errorf("/stats num_shards=%v topology_epoch=%v, want %d and 7", st["num_shards"], st["topology_epoch"], tc.shards)
				}
				rows, _ := st["shards"].([]any)
				if len(rows) != tc.shards {
					t.Fatalf("/stats shards = %v, want %d rows", st["shards"], tc.shards)
				}
				sum := 0.0
				for i, r := range rows {
					row := r.(map[string]any)
					if got, want := sortedKeys(row), sortedSet(shardRowKeys); !reflect.DeepEqual(got, want) {
						t.Errorf("shard row %d keys = %v, want %v", i, got, want)
					}
					if row["id"] != float64(i) || row["replicas"] != 2.0 {
						t.Errorf("shard row %d = %v", i, row)
					}
					sum += row["docs"].(float64)
				}
				if sum != float64(len(docs)) {
					t.Errorf("shard rows hold %v docs, want %d", sum, len(docs))
				}
			}
			if tc.versions != nil && !reflect.DeepEqual(st["versions"], tc.versions) {
				t.Errorf("/stats versions = %v, want %v", st["versions"], tc.versions)
			}
			if tc.hot {
				blk, _ := st["hot"].(map[string]any)
				tier, _ := blk["tier"].(map[string]any)
				if blk["enabled"] != true || tier["budget_bytes"] != float64(hotBudget) || tier["bytes"].(float64) <= 0 {
					t.Errorf("/stats hot = %v, want an enabled %d-byte tier holding data", st["hot"], hotBudget)
				}
			}

			// One quarantined document: the answer is partial, and both the
			// query and the health check say so in the header.
			tc.quarantine()
			resp, err := ts.Client().Post(ts.URL+"/query", "text/plain", strings.NewReader(`//d/e`))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Prix-Degraded") != tc.degraded {
				t.Errorf("degraded query: status %d X-Prix-Degraded %q, want 200 and %q",
					resp.StatusCode, resp.Header.Get("X-Prix-Degraded"), tc.degraded)
			}
			hz, hdr := getJSON(t, ts.URL+"/healthz")
			if hz["status"] != "degraded" || hdr.Get("X-Prix-Degraded") != tc.degraded {
				t.Errorf("degraded /healthz: status %v X-Prix-Degraded %q, want degraded and %q",
					hz["status"], hdr.Get("X-Prix-Degraded"), tc.degraded)
			}
		})
	}
}
