package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/datagen"
	"repro/internal/prix"
)

// A twig with // edges on two branches is in the algorithm's incompleteness
// corner (DESIGN.md "Known algorithmic corner"): the service still answers
// it through the index's fast path, so the answer is sound but not
// guaranteed complete, and has to say so. Every other query is exact.
const riskyTwig = `//a[.//b/c]//d/e`

func checkCompleteLabels(t *testing.T, client *http.Client, base string) {
	t.Helper()
	for q, want := range map[string]bool{
		riskyTwig:      false,
		`//a[./b/c]/d`: true,
		`//a//d/e`:     true, // one // branch: its proxy always has a position
		`//a/b`:        true,
	} {
		code, qr, raw := doQuery(t, client, base, q)
		if code != http.StatusOK || qr.Count == 0 {
			t.Fatalf("%s: %d %s", q, code, raw)
		}
		if qr.Complete != want {
			t.Errorf("%s: complete = %v, want %v", q, qr.Complete, want)
		}
		// The field is always on the wire, true or false.
		var fields map[string]json.RawMessage
		if err := json.Unmarshal([]byte(raw), &fields); err != nil || fields["complete"] == nil {
			t.Errorf("%s: response has no complete field: %s", q, raw)
		}
		// A cache hit carries the same label as the execution it repeats.
		if _, again, _ := doQuery(t, client, base, q); !again.Cached || again.Complete != want {
			t.Errorf("%s repeated: cached = %v, complete = %v, want %v", q, again.Cached, again.Complete, want)
		}
	}
}

// TestCompleteLabel: over HTTP against one index, with the slow log
// mirroring the label of each executed query.
func TestCompleteLabel(t *testing.T) {
	ix := buildIndex(t, 20)
	srv := New(ix, Config{SlowLogThreshold: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	checkCompleteLabels(t, ts.Client(), ts.URL)
	entries, _ := srv.slowlog.Snapshot()
	if len(entries) != 4 {
		t.Fatalf("slow log holds %d entries, want the 4 executed queries", len(entries))
	}
	for _, e := range entries {
		if want := e.Query != riskyTwig; e.Complete != want {
			t.Errorf("slow log: %s: complete = %v, want %v", e.Query, e.Complete, want)
		}
	}
}

// TestCompleteLabelSharded: the same labels through a 2x2 scatter-gather
// coordinator.
func TestCompleteLabelSharded(t *testing.T) {
	srv, _ := buildShardedServer(t, 2, 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	checkCompleteLabels(t, ts.Client(), ts.URL)
}

// TestPlantedQueriesComplete: of the paper's nine evaluation queries only Q6
// (two // branches under Entry) is in the risk class by shape — its planted
// answer is exact, but nothing guarantees that, which is what the label says;
// the other eight are guaranteed, and all nine return their planted counts.
func TestPlantedQueriesComplete(t *testing.T) {
	for _, name := range datagen.Names() {
		ds, err := datagen.ByName(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := prix.Build(ds.Docs, prix.Options{Extended: true})
		if err != nil {
			t.Fatal(err)
		}
		exec := NewExecutor(ix, -1, 0, nil)
		for _, qs := range ds.Queries {
			q := qs.Query()
			res, err := exec.Execute(context.Background(), q, QueryOptions{Parallelism: 1})
			if err != nil {
				t.Fatalf("%s: %v", qs.ID, err)
			}
			if len(res.Matches) != qs.Want {
				t.Errorf("%s: %d matches, want %d", qs.ID, len(res.Matches), qs.Want)
			}
			if want := qs.ID != "Q6"; res.Complete != want {
				t.Errorf("%s %s: complete = %v, want %v", qs.ID, qs.XPath, res.Complete, want)
			}
			if res.Query != q.String() {
				t.Errorf("%s: result echoes %q, canonical form %q", qs.ID, res.Query, q.String())
			}
		}
		ix.Close()
	}
}
