package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/pager"
	"repro/internal/prix"
	"repro/internal/scrub"
	"repro/internal/shard"
	"repro/internal/xmltree"
)

// shardCorpus spreads twig-rich documents across the docid space so every
// shard of a small layout owns several matching documents.
func shardCorpus(n int) []*xmltree.Document {
	var docs []*xmltree.Document
	for i := 0; i < n; i++ {
		docs = append(docs, xmltree.MustFromSExpr(i, `(a (b (c)) (d (e)))`))
	}
	docs = append(docs, xmltree.MustFromSExpr(n, `(a (b (c)) (x))`))
	docs = append(docs, xmltree.MustFromSExpr(n+1, `(r (a (d (e))))`))
	return docs
}

// buildShardedServer lays out a sharded index on disk, opens its
// coordinator and wires the full service over it: one scrubber per shard
// replica, exactly as cmd/prixserve does.
func buildShardedServer(t *testing.T, shards, replicas int) (*Server, *shard.Coordinator) {
	t.Helper()
	docs := shardCorpus(60)
	root := t.TempDir()
	if _, err := shard.Build(root, docs, shard.BuildConfig{Shards: shards, Replicas: replicas, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	co, err := shard.Open(root, prix.Options{}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	srv := New(co, Config{})
	var scrubbers []*scrub.Scrubber
	for _, ix := range co.Indexes() {
		scrubbers = append(scrubbers, scrub.New(ix, scrub.Config{Throttle: -1}))
	}
	srv.SetScrubbers(scrubbers)
	return srv, co
}

// corruptShardRecordPage flips a bit in the first record page of one
// opened index and drops its pools so the next read sees the damage.
func corruptShardRecordPage(t *testing.T, ix *prix.Index) {
	t.Helper()
	f := ix.Store().BufferPool().File()
	for id := uint32(0); id < f.NumPages(); id++ {
		if len(ix.Store().DocsOnPage(pager.PageID(id))) > 0 {
			if err := pager.FlipBit(f, pager.PageID(id), (pager.PageHeaderSize+7)*8); err != nil {
				t.Fatal(err)
			}
			if err := ix.ResetIOStats(); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("no record pages to corrupt")
}

// TestShardServerE2E is the sharded self-healing loop over HTTP: a healthy
// scatter-gather query, then a corrupt page quarantines documents on one
// shard — the service answers with a partial Degraded response whose
// X-Prix-Degraded header names that shard (not an error) — then POST
// /repair heals the shard online and the same query comes back whole.
func TestShardServerE2E(t *testing.T) {
	srv, co := buildShardedServer(t, 3, 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, qr, _ := doQuery(t, ts.Client(), ts.URL, `{"query": "//a/b"}`)
	if status != http.StatusOK || qr.Degraded {
		t.Fatalf("baseline: status %d degraded=%v", status, qr.Degraded)
	}
	full := qr.Count
	if full == 0 {
		t.Fatal("baseline query matched nothing")
	}

	const victim = 1
	corruptShardRecordPage(t, co.Indexes()[victim])
	srv.Executor().InvalidateCache()

	resp, err := ts.Client().Post(ts.URL+"/query", "application/json", strings.NewReader(`{"query": "//a/b"}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded query: status %d body %s (must be a partial answer, not an error)", resp.StatusCode, raw)
	}
	wantName := shard.Name(victim)
	if got := resp.Header.Get("X-Prix-Degraded"); got != wantName {
		t.Fatalf("X-Prix-Degraded = %q, want %q; body %s", got, wantName, raw)
	}
	var degraded QueryResponse
	if err := json.Unmarshal(raw, &degraded); err != nil {
		t.Fatal(err)
	}
	if !degraded.Degraded || degraded.Count >= full {
		t.Fatalf("degraded response: degraded=%v count=%d (full %d)", degraded.Degraded, degraded.Count, full)
	}
	if len(degraded.DegradedShards) != 1 || degraded.DegradedShards[0] != wantName {
		t.Fatalf("degraded_shards = %v, want [%s]", degraded.DegradedShards, wantName)
	}

	// /healthz stays 200 (degrade, don't fail) and names the shard.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status         string   `json:"status"`
		Shards         int      `json:"shards"`
		DegradedShards []string `json:"degraded_shards"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK || health.Status != "degraded" || health.Shards != 3 {
		t.Fatalf("degraded healthz: status %d %+v", hz.StatusCode, health)
	}
	if len(health.DegradedShards) != 1 || health.DegradedShards[0] != wantName {
		t.Fatalf("healthz degraded_shards = %v, want [%s]", health.DegradedShards, wantName)
	}
	if got := hz.Header.Get("X-Prix-Degraded"); got != wantName {
		t.Fatalf("healthz X-Prix-Degraded = %q, want %q", got, wantName)
	}

	// /stats aggregates across shards and names the degraded one.
	st, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap StatsSnapshot
	if err := json.NewDecoder(st.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	st.Body.Close()
	if snap.NumShards != 3 || len(snap.Shards) != 3 {
		t.Fatalf("stats: num_shards=%d shards=%d, want 3/3", snap.NumShards, len(snap.Shards))
	}
	if snap.Docs != co.Stats().Docs {
		t.Fatalf("stats docs = %d, want %d (summed over shards)", snap.Docs, co.Stats().Docs)
	}
	var sumDocs int
	var sumQueries uint64
	for _, s := range snap.Shards {
		sumDocs += s.Docs
		sumQueries += s.Queries
	}
	if sumDocs != co.Stats().Docs {
		t.Fatalf("per-shard docs sum to %d, want %d", sumDocs, co.Stats().Docs)
	}
	if sumQueries == 0 {
		t.Fatal("per-shard query counters all zero after serving queries")
	}
	if len(snap.DegradedShards) != 1 || snap.DegradedShards[0] != wantName {
		t.Fatalf("stats degraded_shards = %v, want [%s]", snap.DegradedShards, wantName)
	}
	if snap.Quarantined == 0 {
		t.Fatal("stats quarantined_docs = 0 after corruption")
	}

	// Online repair across every shard replica, then the full answer again.
	rr, err := ts.Client().Post(ts.URL+"/repair", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	rraw, _ := io.ReadAll(rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("POST /repair = %d: %s", rr.StatusCode, rraw)
	}
	var repair struct {
		Indexes []struct {
			Report scrub.Report `json:"report"`
			Error  string       `json:"error"`
		} `json:"indexes"`
	}
	if err := json.Unmarshal(rraw, &repair); err != nil {
		t.Fatal(err)
	}
	if len(repair.Indexes) != 3 {
		t.Fatalf("repair covered %d indexes, want 3: %s", len(repair.Indexes), rraw)
	}
	repaired := 0
	for _, entry := range repair.Indexes {
		repaired += len(entry.Report.Repairs)
	}
	if repaired == 0 {
		t.Fatalf("no repairs performed: %s", rraw)
	}

	status, qr, _ = doQuery(t, ts.Client(), ts.URL, `{"query": "//a/b"}`)
	if status != http.StatusOK || qr.Degraded || qr.Count != full {
		t.Fatalf("post-repair: status %d degraded=%v count=%d, want 200/false/%d",
			status, qr.Degraded, qr.Count, full)
	}
	hz2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hz2.Body)
	hz2.Body.Close()
	if hz2.Header.Get("X-Prix-Degraded") != "" {
		t.Fatal("healthz still degraded after repair")
	}
}

// TestShardedServerMatchesSingleIndex: the HTTP service returns identical
// responses over a sharded coordinator and over one index built from the
// same documents.
func TestShardedServerMatchesSingleIndex(t *testing.T) {
	docs := shardCorpus(40)
	single, err := prix.Build(docs, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	co, err := shard.BuildMemory(docs, shard.BuildConfig{Shards: 4, Epoch: 1}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ssingle := httptest.NewServer(New(single, Config{}).Handler())
	defer ssingle.Close()
	ssharded := httptest.NewServer(New(co, Config{}).Handler())
	defer ssharded.Close()
	for _, q := range []string{`//a/b`, `//a[./b/c]/d`, `//a//d/e`, `//r`, `//a`} {
		body := `{"query": "` + q + `"}`
		_, want, _ := doQuery(t, ssingle.Client(), ssingle.URL, body)
		_, got, _ := doQuery(t, ssharded.Client(), ssharded.URL, body)
		if got.Count != want.Count {
			t.Errorf("%s: sharded count %d, single %d", q, got.Count, want.Count)
		}
		if len(got.Matches) != len(want.Matches) {
			t.Fatalf("%s: sharded returned %d matches, single %d", q, len(got.Matches), len(want.Matches))
		}
		for i := range got.Matches {
			g, w := got.Matches[i], want.Matches[i]
			if g.Doc != w.Doc || g.Root != w.Root {
				t.Errorf("%s match %d: sharded %+v, single %+v", q, i, g, w)
			}
		}
	}
}
