package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/prix"
)

// handleQueryAllocsBound is what one POST /query costs the handler and the
// engine below it in heap objects on a resident index with the result cache
// off: 51 while the deadline was a context.WithTimeout, the body an
// io.ReadAll, the parse a node per step, the compiled pattern nine fresh
// slabs and an ordered query a one-arrangement fan-out, 20 since. What is
// left is encoding/json on both ends, the response header, the trace and the
// query's stats, the cache key, the flight call and its entry, the parsed
// query and the result — plus one for headroom.
const handleQueryAllocsBound = 21

// TestHandleQueryAllocs drives ServeHTTP directly — no socket, no client —
// over a resident SWISSPROT EPIndex, serial, tracing on (the default), with
// the JSON body the benchmark's client sends, and bounds the objects one
// request allocates. Under the race detector sync.Pool sheds a quarter of its
// Puts, so the bound is not checked there.
func TestHandleQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds pooled values under the race detector")
	}
	ds := datagen.SwissProt(1, 1)
	ix, err := prix.Build(ds.Docs, prix.Options{Extended: true, BufferPoolPages: 64, HotBudget: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	h := New(ix, Config{CacheCapacity: -1, Parallelism: 1}).Handler()
	qs := ds.Queries[1] // five candidates, all refined against resident summaries
	raw, err := json.Marshal(QueryRequest{Query: qs.XPath})
	if err != nil {
		t.Fatal(err)
	}
	body := strings.NewReader(string(raw))
	req := httptest.NewRequest(http.MethodPost, "/query", io.NopCloser(body))
	rec := httptest.NewRecorder()
	serve := func() {
		body.Reset(string(raw))
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
	}
	serve()
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK || resp.Count != qs.Want {
		t.Fatalf("%s: status %d, count %d (want %d), %v: %s", qs.ID, rec.Code, resp.Count, qs.Want, err, rec.Body)
	}
	if resp.Stats.PagesRead != 0 {
		t.Fatalf("%s read %d pages: the index is not resident", qs.ID, resp.Stats.PagesRead)
	}
	got := testing.AllocsPerRun(200, serve)
	t.Logf("POST /query allocates %.1f objects", got)
	if got > handleQueryAllocsBound {
		t.Errorf("POST /query allocates %.1f objects per request, want <= %d", got, handleQueryAllocsBound)
	}
}
