package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/prix"
)

// handleQueryAllocsBound is what one POST /query costs the handler and the
// engine below it in heap objects on a resident index with the result cache
// off: 12 (51 before the deadline, body, parse and pattern were pooled; 19
// before the reply was appended from the engine's matches and the trace
// pooled; 15 before the engine packed the answer and its QueryStats into a
// pooled prix.MatchBuf). What is left is json.Unmarshal of the body and the
// QueryRequest it fills, the response header, the cache key, the flight call
// and the parsed query — the engine allocates nothing — plus one for
// headroom.
const handleQueryAllocsBound = 13

// resident serves SWISSPROT's planted queries from a resident EPIndex, serial,
// cache off, tracing on (the default). serve POSTs the JSON body the
// benchmark's client sends for query i into a recorder it reuses and returns
// the reply after checking it.
func resident(t *testing.T) (serve func(i int) []byte, qs []datagen.QuerySpec) {
	t.Helper()
	ds := datagen.SwissProt(1, 1)
	ix, err := prix.Build(ds.Docs, prix.Options{Extended: true, BufferPoolPages: 64, HotBudget: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	h := New(ix, Config{CacheCapacity: -1, Parallelism: 1}).Handler()
	var raws []string
	for _, q := range ds.Queries {
		raw, err := json.Marshal(QueryRequest{Query: q.XPath})
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, string(raw))
	}
	body := strings.NewReader("")
	req := httptest.NewRequest(http.MethodPost, "/query", io.NopCloser(body))
	rec := httptest.NewRecorder()
	serve = func(i int) []byte {
		body.Reset(raws[i])
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
		return rec.Body.Bytes()
	}
	for i, q := range ds.Queries {
		var resp QueryResponse
		if err := json.Unmarshal(serve(i), &resp); err != nil || rec.Code != http.StatusOK || resp.Count != q.Want {
			t.Fatalf("%s: status %d, count %d (want %d), %v: %s", q.ID, rec.Code, resp.Count, q.Want, err, rec.Body)
		}
		if resp.Stats.PagesRead != 0 {
			t.Fatalf("%s read %d pages: the index is not resident", q.ID, resp.Stats.PagesRead)
		}
	}
	return serve, ds.Queries
}

// TestHandleQueryAllocs drives ServeHTTP directly — no socket, no client —
// over a resident SWISSPROT EPIndex and bounds the objects one request for
// Q5 allocates. Under the race detector sync.Pool sheds a quarter of its
// Puts, so the bound is not checked there.
func TestHandleQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds pooled values under the race detector")
	}
	serve, _ := resident(t)
	got := testing.AllocsPerRun(200, func() { serve(1) }) // Q5: five candidates, all refined against resident summaries
	t.Logf("POST /query allocates %.1f objects", got)
	if got > handleQueryAllocsBound {
		t.Errorf("POST /query allocates %.1f objects per request, want <= %d", got, handleQueryAllocsBound)
	}
}

// TestHandleQueryBytesPerRequest bounds the heap bytes one POST /query
// allocates through the handler (the TotalAlloc delta over 200 serial
// requests, collector off), for a small reply (Q5: 5 matches) and a large
// one (Q6: 158 matches). The bounds are the measured 1,192 B and 1,080 B plus
// 10 % (Q6 reads 1,176 B since it is split in two parts, whose spans render
// their twigs): with the cache off the answer is packed into a pooled buffer, so a
// request's bytes no longer grow with its answer (1,928 B and 21,144 B while
// the engine packed every answer into fresh memory the reply then dropped;
// 4,104 B and 29,640 B while the reply also went through a []MatchJSON copy
// and encoding/json and every request had a fresh trace).
//
// The measured loop is steady state: it runs on one P, after as many
// requests again. sync.Pool keeps a value per P, so on two Ps a request
// that lands on the P whose pools hold none of this query's trace, scratch,
// body buffer and MatchBuf builds them afresh and grows them inside the
// loop: run after run in one process, Q6 read 1,373–1,474 B in 9 of 40
// runs on two Ps and 1,080 B in all 40 on one.
func TestHandleQueryBytesPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds pooled values under the race detector")
	}
	serve, qs := resident(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		i     int
		bound uint64
	}{
		{1, 1311}, // Q5: a reply of ≈ 485 bytes
		{2, 1188}, // Q6: ≈ 8,342 bytes (elapsed_us's digits vary)
	} {
		const n = 200
		reply := len(serve(c.i))
		for j := 0; j < n; j++ {
			serve(c.i)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for j := 0; j < n; j++ {
			serve(c.i)
		}
		runtime.ReadMemStats(&m1)
		per := (m1.TotalAlloc - m0.TotalAlloc) / n
		t.Logf("%s: %d B per request (%d-byte reply)", qs[c.i].ID, per, reply)
		if per > c.bound {
			t.Errorf("%s: POST /query allocates %d B per request, want <= %d", qs[c.i].ID, per, c.bound)
		}
	}
}
