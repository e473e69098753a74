package compact

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/docstore"
	"repro/internal/mvcc"
	"repro/internal/prix"
	"repro/internal/twig"
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

// oracleTwig draws a twig of 2–7 nodes over the documents' alphabet:
// nested branches, /, // and /*/ edges, value leaves, an anchored root now
// and then. It goes through the parser, so it is a twig Parse produces.
func oracleTwig(rng *rand.Rand) *twig.Query {
	labels, values := []string{"a", "b", "c", "d"}, []string{"v1", "v2"}
	root := &twig.Node{Label: labels[rng.Intn(len(labels))]}
	nodes := []*twig.Node{root}
	for size, tries := 2+rng.Intn(6), 0; len(nodes) < size && tries < 50; tries++ {
		p := nodes[rng.Intn(len(nodes))]
		if p.IsValue || len(p.Children) == 3 {
			continue
		}
		n := &twig.Node{Label: values[rng.Intn(len(values))], IsValue: true, Edge: twig.Edge{Min: 1, Max: 1}}
		if rng.Intn(5) > 0 {
			n = &twig.Node{Label: labels[rng.Intn(len(labels))], Edge: twig.Edge{Min: 1, Max: 1}}
			switch r := rng.Intn(6); {
			case r < 2:
				n.Edge.Max = twig.Unbounded
			case r == 2:
				n.Edge = twig.Edge{Min: 2, Max: 2}
			}
		}
		p.Children = append(p.Children, n)
		nodes = append(nodes, n)
	}
	q := &twig.Query{Root: root, RootEdge: twig.Edge{Min: 1, Max: twig.Unbounded}}
	if rng.Intn(6) == 0 {
		q.RootEdge.Max = 1
	}
	return twig.MustParse(q.String())
}

// unorderedCount is the unordered oracle: embeddings of every branch
// arrangement, deduplicated by document and image set.
func unorderedCount(q *twig.Query, docs []*xmltree.Document) int {
	arr, _ := q.Arrangements(720)
	seen := map[string]bool{}
	for _, a := range arr {
		for _, d := range docs {
			for _, e := range twig.MatchBruteForce(a, d) {
				imgs := append([]int(nil), e...)
				sort.Ints(imgs)
				seen[fmt.Sprintf("%d:%v", d.ID, imgs)] = true
			}
		}
	}
	return len(seen)
}

func branches(n *twig.Node) bool {
	if len(n.Children) >= 2 {
		return true
	}
	for _, c := range n.Children {
		if branches(c) {
			return true
		}
	}
	return false
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
// only with ErrNeedsExtendedIndex.
func (m *oracleModel) check(t *testing.T, label string, r *Root, extended bool, since uint64, qs []*twig.Query) {
	t.Helper()
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
			if branches(q.Root) {
				want[true] = unorderedCount(q, docs)
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

// FuzzDynamicOracle holds the write path to the brute-force oracle. An
// exact index (prix.Build) over a seeded random corpus is opened as a Root
// and takes random Inserts, Updates, Patches and Deletes — every one labeled
// as a chain — then a compaction, which labels everything exactly again,
// then more writes. At each stage every twig is checked at the latest
// version and at every version the epoch retains: all of them before the
// compaction, those from the compaction's on after it (a compaction folds
// the history before it). EPIndex and RPIndex both; an input is a seed, a
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
				qs = append(qs, oracleTwig(rng))
			}
			dir := t.TempDir()
			ix, err := prix.Build(m.model, prix.Options{Dir: dir, Extended: extended, BufferPoolPages: 64})
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := OpenRoot(dir, prix.Options{BufferPoolPages: 64})
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
