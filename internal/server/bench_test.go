package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/prix"
)

// benchServeQuery drives POST /query through the handler itself — no socket,
// no client — over the SWISSPROT planted mix (Q4-Q6, JSON bodies as the
// benchmark's client sends them), result cache off, serial, tracing on (the
// server default). What -benchmem reports is the request shell plus the
// engine: net/http's own cost on both ends of a real connection is not in it.
func benchServeQuery(b *testing.B, opts prix.Options) {
	ds := datagen.SwissProt(1, 1)
	ix, err := prix.Build(ds.Docs, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	h := New(ix, Config{CacheCapacity: -1, Parallelism: 1}).Handler()
	bodies := make([]string, len(ds.Queries))
	for i, qs := range ds.Queries {
		raw, err := json.Marshal(QueryRequest{Query: qs.XPath})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = string(raw)
	}
	serve := func(i int) {
		qs := ds.Queries[i%len(bodies)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(bodies[i%len(bodies)])))
		var resp QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK || resp.Count != qs.Want {
			b.Fatalf("%s: status %d, count %d (want %d), %v", qs.ID, rec.Code, resp.Count, qs.Want, err)
		}
	}
	for i := range bodies {
		serve(i) // warm the pool and the scratch
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(i)
	}
}

// BenchmarkServeQueryCold is the paged read path behind the handler: a
// 64-page pool and no hot tier, so every candidate decodes a record.
func BenchmarkServeQueryCold(b *testing.B) {
	benchServeQuery(b, prix.Options{Extended: true, BufferPoolPages: 64})
}

// BenchmarkServeQueryHot is the resident read path behind the handler.
func BenchmarkServeQueryHot(b *testing.B) {
	benchServeQuery(b, prix.Options{Extended: true, BufferPoolPages: 64, HotBudget: 64 << 20})
}
