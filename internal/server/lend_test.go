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
	"repro/internal/shard"
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

// degradedSource answers through its index but flags every answer degraded,
// as a replica with a quarantined document would.
type degradedSource struct{ *prix.Index }

func (s degradedSource) Match(q *twig.Query, opts prix.MatchOptions) ([]prix.Match, *prix.QueryStats, error) {
	ms, stats, err := s.Index.Match(q, opts)
	if err == nil {
		stats.Degraded = true
	}
	return ms, stats, err
}

// delayedSource holds every Match for a delay before running it, so
// identical requests join one singleflight leader.
type delayedSource struct {
	prix.Source
	delay time.Duration
}

func (s delayedSource) Match(q *twig.Query, opts prix.MatchOptions) ([]prix.Match, *prix.QueryStats, error) {
	time.Sleep(s.delay)
	return s.Source.Match(q, opts)
}

// TestShardedRepliesOutliveRecycling is TestSharedRepliesOutliveRecycling
// over a 2×2 coordinator with the result cache on: each shard answers into a
// pooled buffer that the coordinator releases once it has merged the
// answers, so the merged answer the cache and the flight's followers keep
// must share no memory with those buffers. Two layouts: one that hedges
// (no attempt packs into a lent buffer), and one whose replica 0 of each
// shard answers degraded, so a shard that tries it first keeps that answer
// in the lent buffer as its best while replica 1's clean answer wins. Each
// round the cache is emptied and eight identical requests share one flight,
// then eight more read the entry it filled, while four goroutines keep
// running other queries through the coordinator; every reply's matches must
// be byte-identical to a solo reply's.
func TestShardedRepliesOutliveRecycling(t *testing.T) {
	docs := shardCorpus(400)
	topo := &shard.Topology{Version: 1, Shards: 2, Replicas: 2, Docs: uint32(len(docs)), Epoch: 1}
	parts := shard.Partition(docs, topo.Shards)
	ixs := make([][]*prix.Index, topo.Shards)
	for s := range ixs {
		for r := 0; r < topo.Replicas; r++ {
			ix, err := prix.Build(parts[s], prix.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ix.Close() })
			ixs[s] = append(ixs[s], ix)
		}
	}
	for _, layout := range []struct {
		name      string
		hedge     time.Duration
		firstSick bool
	}{
		{"hedged", time.Microsecond, false},
		{"degraded-first", 0, true},
	} {
		t.Run(layout.name, func(t *testing.T) {
			groups := make([][]prix.Source, topo.Shards)
			for s := range groups {
				groups[s] = []prix.Source{ixs[s][0], ixs[s][1]}
				if layout.firstSick {
					groups[s][0] = degradedSource{ixs[s][0]}
				}
			}
			co, err := shard.NewCoordinator(topo, groups, shard.Config{HedgeDelay: layout.hedge})
			if err != nil {
				t.Fatal(err)
			}
			src := delayedSource{Source: co, delay: 2 * time.Millisecond}
			srv := New(src, Config{DefaultTimeout: -1, MaxInFlight: 32, Parallelism: 1})
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
						if _, _, err := co.Match(q, prix.MatchOptions{WarmCache: true, Parallelism: 1}); err != nil {
							t.Error(err)
						}
					}
				}()
			}
			defer func() { close(stop); poison.Wait() }()

			for round := 0; round < 30 && !t.Failed(); round++ {
				srv.Executor().InvalidateCache()
				for _, phase := range []string{"shared", "cached"} {
					var wg sync.WaitGroup
					for i := 0; i < 8; i++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							if got := serve(); string(got) != string(solo) {
								t.Errorf("round %d, %s: reply's matches differ from a solo reply's:\n%.200s\nwant\n%.200s", round, phase, got, solo)
							}
						}()
					}
					wg.Wait()
				}
			}
			m := srv.Metrics()
			if m.FlightShared.Load() == 0 || m.CacheHits.Load() == 0 {
				t.Errorf("%d requests shared a flight and %d hit the cache, want both", m.FlightShared.Load(), m.CacheHits.Load())
			}
			if layout.firstSick && co.Shard(0).Stats().Failovers == 0 {
				t.Error("no shard failed over from its degraded replica")
			}
		})
	}
}
