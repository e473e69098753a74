package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/prix"
	"repro/internal/twig"
)

// TestSharedRepliesOutliveRecycling: with the cache off an answer is packed
// into a pooled buffer that the request releases after its reply is written.
// A singleflight leader whose answer followers also read must never release
// it, or a follower still encoding reads whatever the next query packs there.
// Eight identical requests for a 400-match answer (below the pool's keep
// bound, so a released buffer is reused) join one flight, fifty rounds, while
// four goroutines keep taking pooled buffers and packing other answers into
// them; every reply's matches must be byte-identical to a solo reply's.
func TestSharedRepliesOutliveRecycling(t *testing.T) {
	ix := buildIndex(t, 400)
	defer ix.Close()
	// The delay holds the leader in Match long enough for the other seven
	// to join its flight.
	src := &slowSource{Index: ix, delay: 2 * time.Millisecond}
	srv := New(src, Config{DefaultTimeout: -1, CacheCapacity: -1, MaxInFlight: 16, Parallelism: 1})
	h := srv.Handler()
	const big = `//a[./b/c]/d/e`
	serve := func() []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(big)))
		if rec.Code != http.StatusOK {
			t.Errorf("status %d: %s", rec.Code, rec.Body)
		}
		var r struct{ Matches json.RawMessage }
		if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
			t.Errorf("bad reply %q: %v", rec.Body, err)
		}
		return r.Matches
	}
	solo := serve()
	if n := strings.Count(string(solo), `"doc"`); n != 400 {
		t.Fatalf("solo reply has %d matches, want 400", n)
	}

	stop := make(chan struct{})
	var poison sync.WaitGroup
	for _, s := range []string{`//a/b/c`, `//a/d`, `//a[./b]/d/e`, `//a/b`} {
		q := twig.MustParse(s)
		poison.Add(1)
		go func() {
			defer poison.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := prix.NewMatchBuf()
				if _, _, err := ix.Match(q, prix.MatchOptions{WarmCache: true, Parallelism: 1, Into: b}); err != nil {
					t.Error(err)
				}
				b.Release()
			}
		}()
	}
	defer func() { close(stop); poison.Wait() }()

	for round := 0; round < 50 && !t.Failed(); round++ {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := serve(); string(got) != string(solo) {
					t.Errorf("round %d: reply's matches differ from a solo reply's:\n%.200s\nwant\n%.200s", round, got, solo)
				}
			}()
		}
		wg.Wait()
	}
	if srv.Metrics().FlightShared.Load() == 0 {
		t.Error("no request joined a flight")
	}
}
