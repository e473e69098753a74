package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/compact"
	"repro/internal/prix"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

// buildCompactRoot makes an on-disk dynamic index and opens it as a
// compaction root, the way prixserve serves an insertable directory.
func buildCompactRoot(t *testing.T, n int) *compact.Root {
	t.Helper()
	dir := t.TempDir()
	var docs []*xmltree.Document
	for i := 0; i < n; i++ {
		docs = append(docs, xmltreetest.MustFromSExpr(i, `(a (b (c)) (d (e)))`))
	}
	seed := docs[:4]
	di, err := prix.NewDynamicIndex(seed, prix.Options{Dir: dir}, prix.DynamicOptions{Alpha: 2})
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
	root, err := compact.OpenRoot(dir, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Close() })
	return root
}

func TestCompactEndpointWithoutCompactor(t *testing.T) {
	ix := buildIndex(t, 2)
	defer ix.Close()
	srv := New(ix, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /compact without compactor = %d, want 503", resp.StatusCode)
	}
}

// TestCompactEndpointSwapsEpoch is the operator-facing half of the online
// compaction story: POST /compact rewrites the serving index, the epoch
// gauge bumps everywhere, and queries answer identically before and after.
func TestCompactEndpointSwapsEpoch(t *testing.T) {
	root := buildCompactRoot(t, 12)
	srv := New(root, Config{CacheCapacity: 64})
	srv.SetCompactor(compact.New(root, compact.Config{MemBudget: 32 << 10}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, before, _ := doQuery(t, ts.Client(), ts.URL, `//a/b`)
	if status != http.StatusOK {
		t.Fatalf("pre-compaction query = %d", status)
	}

	resp, err := http.Post(ts.URL+"/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep compact.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rep.Epoch != 1 || rep.Docs != 12 {
		t.Fatalf("POST /compact = %d %+v, want 200 at epoch 1 with 12 docs", resp.StatusCode, rep)
	}
	if root.Epoch() != 1 {
		t.Fatalf("root epoch = %d after the endpoint swap", root.Epoch())
	}

	status, after, _ := doQuery(t, ts.Client(), ts.URL, `//a/b`)
	if status != http.StatusOK {
		t.Fatalf("post-compaction query = %d", status)
	}
	if len(after.Matches) != len(before.Matches) {
		t.Fatalf("compaction changed the answer: %d vs %d matches", len(after.Matches), len(before.Matches))
	}

	// Writes after the swap are labeled as chains until the next one.
	for i := 12; i < 15; i++ {
		if err := root.Insert(xmltreetest.MustFromSExpr(i, `(a (b (c)) (d (e)))`)); err != nil {
			t.Fatal(err)
		}
	}

	// The gauges follow: /stats carries the compaction block, /metrics the
	// epoch and run counters.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Compaction *compact.Stats `json:"compaction"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if stats.Compaction == nil || stats.Compaction.Runs != 1 || stats.Compaction.Epoch != 1 {
		t.Fatalf("/stats compaction block = %+v, want 1 run at epoch 1", stats.Compaction)
	}
	// The write side is visible too: where the last compaction spent its
	// time, and how many documents it left labeled as chains since.
	if c := stats.Compaction; c.LastDrain <= 0 || c.LastBuild <= 0 || c.LastPublish <= 0 ||
		c.LastDrain+c.LastBuild+c.LastPublish > c.LastElapsed {
		t.Fatalf("/stats phase split drain %v + build %v + publish %v of %v elapsed, want three positive parts",
			c.LastDrain, c.LastBuild, c.LastPublish, c.LastElapsed)
	}
	if c := stats.Compaction; c.ChainedDocs != 3 {
		t.Fatalf("/stats chained_docs = %d after 3 inserts into the compacted epoch, want 3", c.ChainedDocs)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 1<<16)
	n, _ := mresp.Body.Read(raw)
	mresp.Body.Close()
	metrics := string(raw[:n])
	for _, want := range []string{
		"prix_compaction_epoch 1", "prix_compactions_total 1",
		"prix_compaction_last_drain_seconds ", "prix_compaction_last_build_seconds ", "prix_compaction_last_publish_seconds ",
		"prix_chained_docs 3\n",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestCompactEndpointConflict: a second trigger while one compaction is in
// flight answers 409 instead of queueing or corrupting anything.
func TestCompactEndpointConflict(t *testing.T) {
	// The compactor's pacer observes the Busy hook every 64 documents, so
	// the corpus must be comfortably past that for the first request to
	// park rather than finish before the second one arrives.
	root := buildCompactRoot(t, 160)
	srv := New(root, Config{})
	release := make(chan struct{})
	srv.SetCompactor(compact.New(root, compact.Config{
		MemBudget:   32 << 10,
		BusyBackoff: time.Millisecond,
		Busy: func() bool {
			select {
			case <-release:
				return false
			default:
				return true
			}
		},
	}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/compact", "application/json", nil)
		if err != nil {
			first <- 0
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !root.Compacting() {
		if time.Now().After(deadline) {
			t.Fatal("first compaction never parked on the busy hook")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent POST /compact = %d, want 409", resp.StatusCode)
	}
	close(release)
	if got := <-first; got != http.StatusOK {
		t.Fatalf("parked POST /compact = %d, want 200", got)
	}
	if root.Epoch() != 1 {
		t.Fatalf("root epoch = %d after the released compaction", root.Epoch())
	}
}
