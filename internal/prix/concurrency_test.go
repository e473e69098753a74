package prix

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

// A built index is read-only; concurrent Match calls with WarmCache must
// be safe and return identical results.
func TestConcurrentQueries(t *testing.T) {
	var docs []*xmltree.Document
	for i := 0; i < 100; i++ {
		docs = append(docs, xmltreetest.MustFromSExpr(i, `(a (b (c)) (d (e)))`))
	}
	ix := build(t, false, docs...)
	queries := []string{`//a[./b/c]/d`, `//a//d/e`, `//d/e`, `//a/b`}
	wants := map[string]int{}
	for _, qs := range queries {
		ms, _, err := ix.Match(twig.MustParse(qs), MatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wants[qs] = len(ms)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for _, qs := range queries {
					ms, _, err := ix.Match(twig.MustParse(qs), MatchOptions{WarmCache: true})
					if err != nil {
						errs <- err
						return
					}
					if len(ms) != wants[qs] {
						errs <- errMismatch(qs, len(ms), wants[qs])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type mismatchError struct {
	q         string
	got, want int
}

func errMismatch(q string, got, want int) error { return &mismatchError{q, got, want} }

func (e *mismatchError) Error() string {
	return e.q + ": concurrent result mismatch"
}

func TestWarmCacheReusesPages(t *testing.T) {
	var docs []*xmltree.Document
	for i := 0; i < 200; i++ {
		docs = append(docs, xmltreetest.MustFromSExpr(i, `(a (b (c)) (d))`))
	}
	ix := build(t, false, docs...)
	q := twig.MustParse(`//a[./b/c]/d`)
	_, cold, err := ix.Match(q, MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, warm, err := ix.Match(q, MatchOptions{WarmCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.PagesRead == 0 {
		t.Fatal("cold run read no pages")
	}
	if warm.PagesRead != 0 {
		t.Errorf("warm rerun read %d pages, want 0 (fully cached)", warm.PagesRead)
	}
}

// Queries racing with Insert must never observe torn postings: a matched
// count may grow as documents land, but every returned result set must be
// one the index could have produced at some Insert boundary.
func TestDynamicIndexQueriesRaceInserts(t *testing.T) {
	var initial []*xmltree.Document
	for i := 0; i < 8; i++ {
		initial = append(initial, xmltreetest.MustFromSExpr(i, `(a (b (c)) (d (e)))`))
	}
	di, err := NewDynamicIndex(initial, Options{}, DynamicOptions{Alpha: 3})
	if err != nil {
		t.Fatal(err)
	}
	const inserts = 120
	queries := []string{`//a[./b/c]/d`, `//d/e`, `//a/b`}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stop := make(chan struct{})
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, qs := range queries {
					ms, _, err := di.Match(twig.MustParse(qs), MatchOptions{})
					if err != nil {
						errs <- err
						return
					}
					// Each document contributes exactly one match per
					// query, so any torn read shows up as a count that
					// is impossible for every Insert boundary.
					if len(ms) < len(initial) || len(ms) > len(initial)+inserts {
						errs <- errMismatch(qs, len(ms), len(initial))
						return
					}
				}
			}
		}()
	}
	for i := 0; i < inserts; i++ {
		if err := di.Insert(xmltreetest.MustFromSExpr(1000+i, `(a (b (c)) (d (e)))`)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := di.Generation(); got != uint64(len(initial)+inserts) {
		t.Errorf("Generation = %d, want %d", got, len(initial)+inserts)
	}
	ms, _, err := di.Match(twig.MustParse(`//a[./b/c]/d`), MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(initial)+inserts {
		t.Errorf("final matches = %d, want %d", len(ms), len(initial)+inserts)
	}
}

// A canceled context must abort Match between range queries with the
// context's error, leaving the index usable.
func TestMatchContextCancellation(t *testing.T) {
	var docs []*xmltree.Document
	for i := 0; i < 50; i++ {
		docs = append(docs, xmltreetest.MustFromSExpr(i, `(a (b (c)) (d (e)))`))
	}
	ix := build(t, false, docs...)
	q := twig.MustParse(`//a[./b/c]/d`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ix.Match(q, MatchOptions{WarmCache: true, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("Match with canceled ctx: err = %v, want context.Canceled", err)
	}
	// The index stays fully usable after an aborted query.
	ms, _, err := ix.Match(q, MatchOptions{WarmCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(docs) {
		t.Errorf("post-cancel matches = %d, want %d", len(ms), len(docs))
	}
}
