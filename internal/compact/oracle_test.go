package compact

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/docstore"
	"repro/internal/mvcc"
	"repro/internal/pager"
	"repro/internal/prix"
	"repro/internal/twig"
	"repro/internal/twig/twigtest"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

// oracleDoc draws a random document over the oracle twigs' alphabet.
func oracleDoc(rng *rand.Rand, id int) *xmltree.Document {
	return xmltreetest.RandomDocument(rng, id, xmltreetest.RandomConfig{
		Nodes: 3 + rng.Intn(25), Alphabet: []string{"a", "b", "c", "d"},
		MaxFanout: 4, ValueProb: 0.3, Values: []string{"v1", "v2"},
	})
}

func pairsOf(rec *docstore.Record) []mvcc.Pair {
	out := make([]mvcc.Pair, len(rec.NPS))
	for i := range rec.NPS {
		out[i] = mvcc.Pair{N: rec.NPS[i], L: uint32(rec.LPS[i])}
	}
	return out
}

func leavesOf(rec *docstore.Record) []mvcc.Leaf {
	out := make([]mvcc.Leaf, len(rec.Leaves))
	for i, l := range rec.Leaves {
		out[i] = mvcc.Leaf{Post: l.Post, Sym: uint32(l.Sym)}
	}
	return out
}

// oracleModel is what the index should hold: model[id] is document id's
// current content, nil once deleted, and snaps[v] the live documents after
// mutation v.
type oracleModel struct {
	model []*xmltree.Document
	snaps map[uint64][]*xmltree.Document
}

func (m *oracleModel) live() []*xmltree.Document {
	var out []*xmltree.Document
	for _, d := range m.model {
		if d != nil {
			out = append(out, d)
		}
	}
	return out
}

func (m *oracleModel) pick(rng *rand.Rand) (uint32, bool) {
	ids := make([]uint32, 0, len(m.model))
	for id, d := range m.model {
		if d != nil {
			ids = append(ids, uint32(id))
		}
	}
	if len(ids) == 0 {
		return 0, false
	}
	return ids[rng.Intn(len(ids))], true
}

// as renumbers a copy of d as document id.
func as(d *xmltree.Document, id uint32) *xmltree.Document {
	c := d.Clone()
	c.ID = int(id)
	c.Number()
	return c
}

// mutate applies one random Insert, Update, Patch or Delete to r and the
// model, and records the model at the version it made.
func (m *oracleModel) mutate(t *testing.T, rng *rand.Rand, r *Root) {
	t.Helper()
	var err error
	switch op := rng.Intn(10); {
	case op < 4:
		id := uint32(len(m.model))
		d := oracleDoc(rng, int(id))
		if err = r.Insert(d); err == nil {
			m.model = append(m.model, d)
		}
	case op < 6:
		id, ok := m.pick(rng)
		if !ok {
			return
		}
		d := oracleDoc(rng, int(id))
		if _, err = r.Update(id, d); err == nil {
			m.model[id] = d
		}
	case op < 8:
		// A patch ships the delta that turns document a into a copy of b.
		a, ok := m.pick(rng)
		b, _ := m.pick(rng)
		if !ok {
			return
		}
		st := r.Index().Index().Store()
		from, ferr := st.GetAny(a)
		to, terr := st.GetAny(b)
		if ferr != nil || terr != nil {
			t.Fatalf("records of %d and %d: %v, %v", a, b, ferr, terr)
		}
		p := mvcc.Diff(pairsOf(from), pairsOf(to), leavesOf(from), leavesOf(to), to.NumNodes)
		if _, err = r.Patch(a, p); err == nil {
			m.model[a] = as(m.model[b], a)
		}
	default:
		id, ok := m.pick(rng)
		if !ok {
			return
		}
		if _, err = r.Delete(id); err == nil {
			m.model[id] = nil
		}
	}
	if err != nil {
		t.Fatalf("write refused: %v", err)
	}
	if v := r.VersionStats().Current; v > 0 {
		m.snaps[v] = m.live()
	}
}

// check holds r to the brute-force oracle on every twig, at the latest
// version and at every version from since on, ordered and (for twigs with
// branches) unordered, at Parallelism 1 and 4. An RPIndex may refuse a twig
// only with ErrNeedsExtendedIndex. First it checks r's labels.
func (m *oracleModel) check(t *testing.T, label string, r *Root, extended bool, since uint64, qs []*twig.Query) {
	t.Helper()
	checkDense(t, label, r)
	versions := []uint64{0}
	for v := range m.snaps {
		if v >= since {
			versions = append(versions, v)
		}
	}
	for _, v := range versions {
		docs := m.live()
		if v > 0 {
			docs = m.snaps[v]
		}
		for _, q := range qs {
			want := map[bool]int{false: twig.CountBruteForce(q, docs)}
			if twigtest.HasBranches(q.Root) {
				want[true] = twigtest.UnorderedCount(q, docs)
			}
			for unordered, n := range want {
				for _, par := range []int{1, 4} {
					ms, _, err := r.Match(q, prix.MatchOptions{AsOf: v, Unordered: unordered, Parallelism: par})
					if !extended && errors.Is(err, prix.ErrNeedsExtendedIndex) {
						continue
					}
					if err != nil {
						t.Fatalf("%s extended=%v AS OF %d %s: %v", label, extended, v, q, err)
					}
					if len(ms) != n {
						t.Fatalf("%s extended=%v AS OF %d unordered=%v par=%d %s: %d matches, oracle %d",
							label, extended, v, unordered, par, q, len(ms), n)
					}
				}
			}
		}
	}
}

// checkDense holds r's post tree to what chain labeling relies on: its
// Lefts are exactly 1..entries, so the next chain's first label is one past
// the entry count. An answer can hold while a label is off by one.
func checkDense(t *testing.T, label string, r *Root) {
	t.Helper()
	post := r.Index().Index().Forest().Lookup("post")
	var lefts []uint64
	err := post.ScanPostings(nil, nil, true, true, func(_ uint32, left, _ uint64, _ uint32) bool {
		lefts = append(lefts, left)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(lefts)
	if uint64(len(lefts)) != post.Len() {
		t.Fatalf("%s: the post tree scans %d entries, counts %d", label, len(lefts), post.Len())
	}
	for i, l := range lefts {
		if l != uint64(i+1) {
			t.Fatalf("%s: the post tree's Lefts are not 1..%d: entry %d has Left %d", label, len(lefts), i+1, l)
		}
	}
}

// FuzzDynamicOracle holds the write path to the brute-force oracle. An
// exact index (prix.Build) over a seeded random corpus is opened as a Root
// and takes random Inserts, Updates, Patches and Deletes — every one labeled
// as a chain — then a compaction, which labels everything exactly again,
// then more writes. At each stage every twig is checked at the latest
// version and at every version the epoch retains: all of them before the
// compaction, those from the compaction's on after it (a compaction folds
// the history before it). EPIndex and RPIndex both, opened behind a pool of
// eight frames with a hot tier of one leaf, half the corpus's two, so the
// postings and Docid scans mix resident and paged leaves and every write's
// invalidation and every lazy admission interleave; an input is a seed, a
// write count and a retention window.
func FuzzDynamicOracle(f *testing.F) {
	for seed := int64(1); seed <= 10; seed++ {
		f.Add(seed, uint8(4+seed%6), uint8(seed%3))
	}
	f.Fuzz(func(t *testing.T, seed int64, writes uint8, retain uint8) {
		for _, extended := range []bool{true, false} {
			rng := rand.New(rand.NewSource(seed))
			m := &oracleModel{snaps: map[uint64][]*xmltree.Document{}}
			for id := 0; id < 4+rng.Intn(4); id++ {
				m.model = append(m.model, oracleDoc(rng, id))
			}
			var qs []*twig.Query
			for k := 0; k < 4; k++ {
				qs = append(qs, twigtest.RandomTwig(rng))
			}
			dir := t.TempDir()
			ix, err := prix.Build(m.model, prix.Options{Dir: dir, Extended: extended, BufferPoolPages: 64})
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := OpenRoot(dir, prix.Options{BufferPoolPages: 8, HotBudget: pager.PageDataSize + 512})
			if err != nil {
				t.Fatal(err)
			}
			n := int(writes%16) + 1
			for i := 0; i < n; i++ {
				m.mutate(t, rng, r)
			}
			m.check(t, "before the compaction", r, extended, 1, qs)
			if _, err := r.Compact(context.Background(), CompactOptions{MemBudget: 32 << 10, Retain: uint64(retain % 8)}); err != nil {
				t.Fatal(err)
			}
			since := r.VersionStats().Current
			m.check(t, "after the compaction", r, extended, since, qs)
			for i := 0; i < n; i++ {
				m.mutate(t, rng, r)
			}
			m.check(t, "after the compaction and more writes", r, extended, since, qs)
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
