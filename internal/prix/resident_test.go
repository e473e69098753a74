package prix

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/datagen"
)

// residentSwissprot builds a SWISSPROT EPIndex whose hot tier holds every
// list and summary, and returns it with the dataset's planted queries.
func residentSwissprot(tb testing.TB) (*Index, []datagen.QuerySpec) {
	tb.Helper()
	ds := datagen.SwissProt(1, 1)
	ix, err := Build(ds.Docs, Options{Extended: true, BufferPoolPages: 2000, HotBudget: 64 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ix.Close() })
	if st := ix.HotStats(); st.Tier.Evictions != 0 || st.Tier.Items < len(ds.Docs) {
		tb.Fatalf("tier not fully resident: %+v", st)
	}
	return ix, ds.Queries
}

var residentOpts = MatchOptions{WarmCache: true, Parallelism: 1}

// TestResidentMatchAllocs guards the resident read path's allocation
// profile on the two planted SWISSPROT twigs with real descents: Q5 (75
// range queries, 5 candidates) cost 456 heap objects per Match and Q6 (398
// range queries, 158 candidates and matches) 4,281 before the descent
// resolved its level sources once per query, pooled its scratch and refined
// against the packed summaries in place; the bounds are a quarter of that.
// What remains is per query (pattern, plan) and per surviving match (its
// Positions/Images block and its dedup key), not per range query or per
// candidate.
func TestResidentMatchAllocs(t *testing.T) {
	ix, queries := residentSwissprot(t)
	for i, bound := range map[int]float64{1: 456 / 4, 2: 4281 / 4} {
		qs := queries[i]
		q := qs.Query()
		run := func() {
			ms, stats, err := ix.Match(q, residentOpts)
			if err != nil || len(ms) != qs.Want {
				t.Fatalf("%s: matches = %d, %v; want %d", qs.ID, len(ms), err, qs.Want)
			}
			if stats.PagesRead != 0 || stats.HotRecordHits != stats.RecordFetches || stats.HotPostingHits != stats.RangeQueries {
				t.Fatalf("%s left the tier: %+v", qs.ID, stats)
			}
		}
		run()
		if got := testing.AllocsPerRun(20, run); got > bound {
			t.Errorf("%s: resident Match allocates %.0f objects per run, want <= %.0f", qs.ID, got, bound)
		}
	}
}

// TestScratchIsolation runs the planted queries from 8 goroutines at once
// (under -race -count=10 in CI), then proves no returned Positions/Images
// aliases pooled scratch: every scratch the pool will hand out is scribbled
// over, and only then are the serial reference answers computed and the
// concurrent ones compared with them.
func TestScratchIsolation(t *testing.T) {
	ix, queries := residentSwissprot(t)
	got := make([][][]Match, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([][]Match, len(queries))
			for round := 0; round < 4; round++ {
				for i := range queries {
					i = (i + g) % len(queries)
					opts := residentOpts
					opts.Parallelism = 1 + (g+round)%3 // serial and pipelined share the pool
					ms, _, err := ix.Match(queries[i].Query(), opts)
					if err != nil {
						t.Errorf("%s: %v", queries[i].ID, err)
						return
					}
					got[g][i] = ms
				}
			}
		}(g)
	}
	wg.Wait()
	// Take more scratches than the run can have left behind, poison them,
	// and put them back.
	var taken []*scratch
	for i := 0; i < 64; i++ {
		sc := getScratch(8)
		for _, hs := range sc.hits {
			for j := range hs[:cap(hs)] {
				hs[:cap(hs)][j] = hit{left: ^uint64(0), right: ^uint64(0), level: ^uint32(0)}
			}
		}
		for j := range sc.S[:cap(sc.S)] {
			sc.S[:cap(sc.S)][j], sc.N[:cap(sc.N)][j] = -7, -7
		}
		for j := range sc.key[:cap(sc.key)] {
			sc.key[:cap(sc.key)][j] = 0xAA
		}
		taken = append(taken, sc)
	}
	for _, sc := range taken {
		putScratch(sc)
	}
	for i, qs := range queries {
		want, _, err := ix.Match(qs.Query(), residentOpts)
		if err != nil || len(want) != qs.Want {
			t.Fatalf("%s: %d matches, %v; want %d", qs.ID, len(want), err, qs.Want)
		}
		for g := range got {
			if !reflect.DeepEqual(got[g][i], want) {
				t.Errorf("goroutine %d %s: answers diverge from serial\n got %v\nwant %v", g, qs.ID, got[g][i], want)
			}
		}
	}
}

// BenchmarkMatchResident is the resident read path end to end below the
// server: every planted SWISSPROT query, hot tier fully loaded, serial.
func BenchmarkMatchResident(b *testing.B) {
	ix, queries := residentSwissprot(b)
	for _, qs := range queries {
		q := qs.Query()
		b.Run(qs.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ms, _, err := ix.Match(q, residentOpts)
				if err != nil || len(ms) != qs.Want {
					b.Fatalf("matches = %d, %v; want %d", len(ms), err, qs.Want)
				}
			}
		})
	}
}
