package prix

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

// TestMatchIntoEqualsOwned: an answer packed into a lent buffer equals the one
// Match returns in memory of its own, on the parallel differential's query
// classes (ordered, wildcard, unordered with its arrangements fanned out,
// values, single-node; its three-arrangement wildcard twig costs a third of a
// second a Match and adds no path) at Parallelism 4, where spawned walkers
// stage on their own scratches and the reduction packs, with one buffer
// reused across them all, so each answer lands on what the previous ones left
// there. The paths that ignore Into (unordered and
// single-node) must not alias it: their answers still hold once the buffer
// has packed another. (A serial Match into a buffer is the alloc guards'
// case.)
func TestMatchIntoEqualsOwned(t *testing.T) {
	ix, err := Build(parallelCorpus(), Options{Extended: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	scribble := twig.MustParse(`//a/b`)
	buf := NewMatchBuf()
	defer buf.Release()
	for _, qc := range parallelQueries {
		if qc.src == `//a[./b][./d]//e` {
			continue
		}
		q := twig.MustParse(qc.src)
		opts := MatchOptions{WarmCache: true, Parallelism: 4, Unordered: qc.unordered}
		want, wantStats, err := ix.Match(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Into = buf
		got, gotStats, err := ix.Match(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s unordered=%v: Into answer\n %v\nwant\n %v", qc.src, qc.unordered, got, want)
		}
		gotStats.Elapsed, wantStats.Elapsed = 0, 0
		if !reflect.DeepEqual(*gotStats, *wantStats) || gotStats != &buf.stats {
			t.Errorf("%s unordered=%v: stats %+v (in the buffer: %v), want %+v",
				qc.src, qc.unordered, *gotStats, gotStats == &buf.stats, *wantStats)
		}
		if qc.unordered || q.Size() == 1 {
			if _, _, err := ix.Match(scribble, MatchOptions{WarmCache: true, Parallelism: 1, Into: buf}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s unordered=%v: answer changed when the buffer was reused", qc.src, qc.unordered)
			}
		}
	}
}

// TestMatchBufKeepBound: a buffer that packed an answer above scratchKeep is
// dropped on Release, never handed out again, so one huge answer does not pin
// its high-water mark in the pool.
func TestMatchBufKeepBound(t *testing.T) {
	if got := unsafe.Sizeof(Match{}); got != matchBytes {
		t.Fatalf("a Match is %d bytes, matchBytes says %d", got, matchBytes)
	}
	var docs []*xmltree.Document
	for i := 0; i < 1200; i++ {
		docs = append(docs, xmltreetest.MustFromSExpr(i, `(a (b) (c))`))
	}
	ix, err := Build(docs, Options{Extended: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	big := NewMatchBuf()
	ms, _, err := ix.Match(twig.MustParse(`//a[./b]/c`), MatchOptions{WarmCache: true, Parallelism: 1, Into: big})
	if err != nil || len(ms) != len(docs) {
		t.Fatalf("matches = %d, %v; want %d", len(ms), err, len(docs))
	}
	if n := cap(big.ints)*4 + cap(big.matches)*matchBytes; n <= scratchKeep {
		t.Fatalf("the answer holds %d bytes, not above scratchKeep (%d)", n, scratchKeep)
	}
	big.Release()
	for i := 0; i < 100; i++ {
		if NewMatchBuf() == big {
			t.Fatal("a released buffer above scratchKeep came back from the pool")
		}
	}
}

// TestMergeMatches: runs split off one answer by docid, each still in order,
// merge back into that answer, into memory of their own and into a lent
// buffer alike, with nil Positions (single-node answers) kept nil. The
// merged answer shares nothing with the runs: it holds after they are
// overwritten. Merging into a warmed buffer allocates nothing; into memory of
// its own, the one block and the one []Match.
func TestMergeMatches(t *testing.T) {
	ix, err := Build(parallelCorpus(), Options{Extended: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	buf := NewMatchBuf()
	defer buf.Release()
	for _, qc := range parallelQueries {
		if qc.src == `//a[./b][./d]//e` {
			continue
		}
		q := twig.MustParse(qc.src)
		opts := MatchOptions{WarmCache: true, Parallelism: 1, Unordered: qc.unordered}
		want, _, err := ix.Match(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		src, _, err := ix.Match(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		runs := make([][]Match, 3)
		for _, m := range src {
			runs[m.DocID%3] = append(runs[m.DocID%3], m)
		}
		owned := MergeMatches(nil, runs...)
		lent := MergeMatches(buf, runs...)
		for _, m := range src {
			for k := range m.Positions {
				m.Positions[k] = -1
			}
			for k := range m.Images {
				m.Images[k] = -1
			}
		}
		if !reflect.DeepEqual(owned, want) {
			t.Errorf("%s unordered=%v: merged\n %v\nwant\n %v", qc.src, qc.unordered, owned, want)
		}
		if !reflect.DeepEqual(lent, want) {
			t.Errorf("%s unordered=%v: merged into a lent buffer\n %v\nwant\n %v", qc.src, qc.unordered, lent, want)
		}
		if len(want) > 0 && (cap(owned) != len(want) || &lent[0] != &buf.matches[0]) {
			t.Errorf("%s: the owned answer has cap %d for %d matches, or the lent one is not in the buffer", qc.src, cap(owned), len(want))
		}
		if raceEnabled || len(want) == 0 {
			continue
		}
		if n := testing.AllocsPerRun(20, func() { MergeMatches(buf, runs...) }); n != 0 {
			t.Errorf("%s: a merge into a warmed buffer costs %.0f objects, want 0", qc.src, n)
		}
		if n := testing.AllocsPerRun(20, func() { MergeMatches(nil, runs...) }); n > 2 {
			t.Errorf("%s: a merge into memory of its own costs %.0f objects, want <= 2", qc.src, n)
		}
	}
	if got := MergeMatches(nil, nil, []Match{}); got != nil {
		t.Errorf("merging empty runs = %v, want nil", got)
	}
}
