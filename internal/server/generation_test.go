package server

import (
	"context"
	"testing"

	"repro/internal/compact"
	"repro/internal/docstore"
	"repro/internal/mvcc"
	"repro/internal/prix"
	"repro/internal/twig"
	"repro/internal/xmltree/xmltreetest"
)

// afterMatch holds one mutation to land right after the engine answers,
// before the executor fills its cache with that (now stale) answer.
type afterMatch struct{ fn func() }

func (a *afterMatch) fire() {
	if f := a.fn; f != nil {
		a.fn = nil
		f()
	}
}

type racingDynamic struct {
	*prix.DynamicIndex
	afterMatch
}

func (s *racingDynamic) Match(q *twig.Query, o prix.MatchOptions) ([]prix.Match, *prix.QueryStats, error) {
	ms, st, err := s.DynamicIndex.Match(q, o)
	s.fire()
	return ms, st, err
}

type racingRoot struct {
	*compact.Root
	afterMatch
}

func (s *racingRoot) Match(q *twig.Query, o prix.MatchOptions) ([]prix.Match, *prix.QueryStats, error) {
	ms, st, err := s.Root.Match(q, o)
	s.fire()
	return ms, st, err
}

func recordPairs(rec *docstore.Record) []mvcc.Pair {
	out := make([]mvcc.Pair, len(rec.NPS))
	for i := range rec.NPS {
		out[i] = mvcc.Pair{N: rec.NPS[i], L: uint32(rec.LPS[i])}
	}
	return out
}

func recordLeaves(rec *docstore.Record) []mvcc.Leaf {
	out := make([]mvcc.Leaf, len(rec.Leaves))
	for i, l := range rec.Leaves {
		out[i] = mvcc.Leaf{Post: l.Post, Sym: uint32(l.Sym)}
	}
	return out
}

// TestCacheNeverServesPreMutationResult: a mutation that lands between the
// engine's answer and the cache fill must not leave that answer servable.
// The executor keys the entry on the generation it read before Match, and
// every mutation moves the generation, so the next identical Execute misses
// and returns the index's current answer.
func TestCacheNeverServesPreMutationResult(t *testing.T) {
	q := twig.MustParse(`//a/b`)
	dynamic := func(t *testing.T) *racingDynamic {
		// Ten documents, nine of them matching //a/b (doc 9 is r-rooted).
		di, err := prix.NewDynamicIndex(shardCorpus(8), prix.Options{}, prix.DynamicOptions{Alpha: 2})
		if err != nil {
			t.Fatal(err)
		}
		return &racingDynamic{DynamicIndex: di}
	}
	cases := []struct {
		name string
		// setup returns the source, its after-Match slot and the mutation to
		// land there; changes reports whether that mutation moves the answer.
		setup   func(t *testing.T) (Source, *afterMatch, func())
		changes bool
	}{
		{"DynamicIndex/Insert", func(t *testing.T) (Source, *afterMatch, func()) {
			s := dynamic(t)
			return s, &s.afterMatch, func() {
				if err := s.Insert(xmltreetest.MustFromSExpr(10, `(a (b (c)) (d (e)))`)); err != nil {
					t.Error(err)
				}
			}
		}, true},
		{"DynamicIndex/Update", func(t *testing.T) (Source, *afterMatch, func()) {
			s := dynamic(t)
			return s, &s.afterMatch, func() {
				if _, err := s.Update(0, xmltreetest.MustFromSExpr(0, `(r (x))`)); err != nil {
					t.Error(err)
				}
			}
		}, true},
		{"DynamicIndex/Delete", func(t *testing.T) (Source, *afterMatch, func()) {
			s := dynamic(t)
			return s, &s.afterMatch, func() {
				if _, err := s.Delete(0); err != nil {
					t.Error(err)
				}
			}
		}, true},
		{"DynamicIndex/Patch", func(t *testing.T) (Source, *afterMatch, func()) {
			s := dynamic(t)
			st := s.Index().Store()
			from, err := st.GetAny(0)
			if err != nil {
				t.Fatal(err)
			}
			to, err := st.GetAny(9)
			if err != nil {
				t.Fatal(err)
			}
			patch := mvcc.Diff(recordPairs(from), recordPairs(to), recordLeaves(from), recordLeaves(to), to.NumNodes)
			return s, &s.afterMatch, func() {
				if _, err := s.Patch(0, patch); err != nil {
					t.Error(err)
				}
			}
		}, true},
		{"Root/Insert", func(t *testing.T) (Source, *afterMatch, func()) {
			s := &racingRoot{Root: buildCompactRoot(t, 12)}
			return s, &s.afterMatch, func() {
				if err := s.Insert(xmltreetest.MustFromSExpr(12, `(a (b (c)) (d (e)))`)); err != nil {
					t.Error(err)
				}
			}
		}, true},
		{"Root/Swap", func(t *testing.T) (Source, *afterMatch, func()) {
			s := &racingRoot{Root: buildCompactRoot(t, 12)}
			return s, &s.afterMatch, func() {
				if _, err := s.Compact(context.Background(), compact.CompactOptions{MemBudget: 32 << 10}); err != nil {
					t.Error(err)
				}
			}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, after, mutate := tc.setup(t)
			exec := NewExecutor(src, 64, 1, nil)
			after.fn = mutate
			first, err := exec.Execute(context.Background(), q, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if after.fn != nil {
				t.Fatal("the mutation never ran")
			}
			now, _, err := src.Match(q, prix.MatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if moved := len(now) != len(first.Matches); moved != tc.changes {
				t.Fatalf("mutation moved the answer %d -> %d, want moved=%v", len(first.Matches), len(now), tc.changes)
			}
			res, err := exec.Execute(context.Background(), q, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cached || len(res.Matches) != len(now) {
				t.Fatalf("after the mutation: cached=%v with %d matches, index answers %d",
					res.Cached, len(res.Matches), len(now))
			}
		})
	}
}
