package prufer

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/xmltree/xmltreetest"
)

func TestExample1PaperSequences(t *testing.T) {
	d := xmltreetest.PaperTree(0)
	s := Build(d)
	wantLPS := []string{"A", "C", "B", "C", "C", "B", "A", "C", "A", "E", "E", "E", "D", "A"}
	wantNPS := []int{15, 3, 7, 6, 6, 7, 15, 9, 15, 13, 13, 13, 14, 15}
	if !reflect.DeepEqual(s.Labels, wantLPS) {
		t.Errorf("LPS = %v\nwant %v", s.Labels, wantLPS)
	}
	if !reflect.DeepEqual(s.Numbers, wantNPS) {
		t.Errorf("NPS = %v\nwant %v", s.Numbers, wantNPS)
	}
	if s.Len() != d.Size()-1 {
		t.Errorf("length = %d, want n-1 = %d", s.Len(), d.Size()-1)
	}
}

func TestExample2QuerySequences(t *testing.T) {
	q := xmltreetest.PaperQuery(0)
	s := Build(q)
	wantLPS := []string{"B", "A", "E", "D", "A"}
	wantNPS := []int{2, 6, 4, 5, 6}
	if !reflect.DeepEqual(s.Labels, wantLPS) {
		t.Errorf("LPS(Q) = %v, want %v", s.Labels, wantLPS)
	}
	if !reflect.DeepEqual(s.Numbers, wantNPS) {
		t.Errorf("NPS(Q) = %v, want %v", s.Numbers, wantNPS)
	}
}

// Lemma 1: the node deleted the i-th time is the node numbered i. The
// simulation deletes explicitly; Build exploits the lemma. They must agree.
func TestLemma1BuildEqualsSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		d := xmltreetest.RandomDocument(rng, i, xmltreetest.RandomConfig{
			Nodes: 1 + rng.Intn(80), Alphabet: []string{"a", "b", "c", "d", "e"},
		})
		got, want := Build(d), BuildBySimulation(d)
		if !reflect.DeepEqual(got.Labels, want.Labels) || !reflect.DeepEqual(got.Numbers, want.Numbers) {
			t.Fatalf("doc %d: Build != simulation\n got %v %v\nwant %v %v\ntree %s",
				i, got.Labels, got.Numbers, want.Labels, want.Numbers, d)
		}
	}
}

func TestSingleNodeTree(t *testing.T) {
	d := xmltreetest.MustFromSExpr(0, `(only)`)
	s := Build(d)
	if s.Len() != 0 || s.N != 1 {
		t.Errorf("single node: len=%d n=%d", s.Len(), s.N)
	}
	back, err := Reconstruct(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != 1 {
		t.Errorf("reconstructed size = %d", back.Size())
	}
}

// One-to-one correspondence: reconstructing from (LPS, NPS, leaf labels)
// returns the original tree.
func TestReconstructRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		d := xmltreetest.RandomDocument(rng, i, xmltreetest.RandomConfig{
			Nodes: 1 + rng.Intn(60), Alphabet: []string{"w", "x", "y", "z"},
		})
		s := Build(d)
		back, err := Reconstruct(s, LeafMap(d))
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if back.String() != d.String() {
			t.Fatalf("doc %d round trip:\n got %s\nwant %s", i, back.String(), d.String())
		}
	}
}

func TestReconstructRejectsGarbage(t *testing.T) {
	cases := []*Sequence{
		{N: 3, Labels: []string{"a"}, Numbers: []int{3}},          // wrong length
		{N: 3, Labels: []string{"a", "b"}, Numbers: []int{3, 99}}, // parent out of range
		{N: 3, Labels: []string{"a", "b"}, Numbers: []int{1, 3}},  // parent before child
		{N: 0},
	}
	for i, s := range cases {
		if _, err := Reconstruct(s, nil); err == nil {
			t.Errorf("case %d: Reconstruct accepted invalid sequence", i)
		}
	}
	// In-range parents that nevertheless violate postorder: with
	// parent(1)=3 the subtree of node 3 must close (3 takes number 2)
	// before any sibling subtree opens, so parent(2)=4 is impossible.
	bad := &Sequence{N: 4, Labels: []string{"a", "b", "c"}, Numbers: []int{3, 4, 4}}
	if _, err := Reconstruct(bad, nil); err == nil {
		t.Errorf("Reconstruct accepted postorder-inconsistent NPS [3 4 4]")
	}
	// A genuinely consistent sequence: chain 1<-2<-3<-4.
	chain := &Sequence{N: 4, Labels: []string{"a", "b", "c"}, Numbers: []int{2, 3, 4}}
	if _, err := Reconstruct(chain, nil); err != nil {
		t.Errorf("Reconstruct rejected valid chain NPS: %v", err)
	}
}

// Theorem 1: if Q is a (labeled, order-preserving) subgraph of T then
// LPS(Q) is a subsequence of LPS(T) — no false dismissals.
func TestTheorem1NoFalseDismissals(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tried := 0
	for i := 0; i < 500 && tried < 300; i++ {
		d := xmltreetest.RandomDocument(rng, i, xmltreetest.RandomConfig{
			Nodes: 5 + rng.Intn(60), Alphabet: []string{"a", "b", "c"},
		})
		q := xmltreetest.RandomSubtreePattern(rng, d, 2+rng.Intn(6))
		if q == nil || q.Size() < 2 {
			continue
		}
		tried++
		lq, lt := Build(q), Build(d)
		if _, ok := IsSubsequence(lq.Labels, lt.Labels); !ok {
			t.Fatalf("Theorem 1 violated:\nQ=%s LPS=%v\nT=%s LPS=%v",
				q, lq.Labels, d, lt.Labels)
		}
	}
	if tried < 100 {
		t.Fatalf("too few non-trivial patterns generated: %d", tried)
	}
}

func TestPaperSubsequenceExample(t *testing.T) {
	// Example 2: LPS(Q) = B A E D A matches LPS(T) at positions (6,7,11,13,14)
	// with postorder number sequence 7 15 13 14 15.
	tSeq := Build(xmltreetest.PaperTree(0))
	qSeq := Build(xmltreetest.PaperQuery(0))
	found := false
	SubsequenceMatches(qSeq.Labels, tSeq.Labels, func(pos []int) bool {
		if reflect.DeepEqual(pos, []int{6, 7, 11, 13, 14}) {
			found = true
			nums := make([]int, len(pos))
			for i, p := range pos {
				nums[i] = tSeq.Numbers[p-1]
			}
			if !reflect.DeepEqual(nums, []int{7, 15, 13, 14, 15}) {
				t.Errorf("postorder number sequence = %v, want [7 15 13 14 15]", nums)
			}
		}
		return true
	})
	if !found {
		t.Error("paper's match at positions (6,7,11,13,14) not enumerated")
	}
}

func TestExtendedSequenceContainsAllLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		d := xmltreetest.RandomDocument(rng, i, xmltreetest.RandomConfig{
			Nodes: 1 + rng.Intn(40), Alphabet: []string{"a", "b", "c"},
			ValueProb: 0.5, Values: []string{"v1", "v2"},
		})
		s := BuildExtended(d)
		if s.N != d.Size()+len(LeafMap(d)) {
			t.Fatalf("extended N = %d, want %d", s.N, d.Size()+len(LeafMap(d)))
		}
		// Every original node's label must appear in the extended LPS.
		have := map[string]int{}
		for _, l := range s.Labels {
			have[l]++
		}
		for _, n := range d.Nodes {
			if have[n.Label] == 0 {
				t.Fatalf("label %q of node %d missing from extended LPS %v of %s",
					n.Label, n.Post, s.Labels, d)
			}
		}
	}
}

func TestExtendTreeShape(t *testing.T) {
	d := xmltreetest.MustFromSExpr(0, `(a (b) (c "v"))`)
	ext := ExtendTree(d)
	// Leaves of d: b and the value v. Extended adds 2 dummies.
	if ext.Size() != d.Size()+2 {
		t.Fatalf("extended size = %d, want %d", ext.Size(), d.Size()+2)
	}
	dummies := 0
	for _, n := range ext.Nodes {
		if IsDummy(n) {
			dummies++
			if !n.IsLeaf() {
				t.Error("dummy with children")
			}
		}
	}
	if dummies != 2 {
		t.Errorf("dummies = %d, want 2", dummies)
	}
}

func TestIsSubsequence(t *testing.T) {
	cases := []struct {
		needle, hay []string
		want        bool
		pos         []int
	}{
		{[]string{"a", "c"}, []string{"a", "b", "c"}, true, []int{1, 3}},
		{[]string{"c", "a"}, []string{"a", "b", "c"}, false, nil},
		{[]string{}, []string{"a"}, true, []int{}},
		{[]string{"a"}, []string{}, false, nil},
		{[]string{"a", "a"}, []string{"a"}, false, nil},
		{[]string{"b", "b"}, []string{"b", "a", "b"}, true, []int{1, 3}},
	}
	for i, c := range cases {
		pos, ok := IsSubsequence(c.needle, c.hay)
		if ok != c.want {
			t.Errorf("case %d: ok = %v, want %v", i, ok, c.want)
			continue
		}
		if ok && !reflect.DeepEqual(pos, c.pos) {
			t.Errorf("case %d: pos = %v, want %v", i, pos, c.pos)
		}
	}
}

func TestSubsequenceMatchesCountsAll(t *testing.T) {
	// needle "ab" in "aabb": matches (1,3),(1,4),(2,3),(2,4).
	var got [][]int
	SubsequenceMatches([]string{"a", "b"}, []string{"a", "a", "b", "b"}, func(pos []int) bool {
		cp := append([]int(nil), pos...)
		got = append(got, cp)
		return true
	})
	want := [][]int{{1, 3}, {1, 4}, {2, 3}, {2, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("matches = %v, want %v", got, want)
	}
	// Early stop after the first match.
	count := 0
	SubsequenceMatches([]string{"a"}, []string{"a", "a", "a"}, func(pos []int) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop ignored: %d calls", count)
	}
}

// Property: for any tree, every LPS entry is the label of the NPS entry's
// node, and NPS[i] > i+ ... (parent deleted after child).
func TestQuickSequenceInvariants(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := xmltreetest.RandomDocument(rng, 0, xmltreetest.RandomConfig{
			Nodes: int(sz%70) + 1, Alphabet: []string{"m", "n", "o"},
		})
		s := Build(d)
		for i := 0; i < s.Len(); i++ {
			p := s.Numbers[i]
			if p <= i+1 || p > d.Size() {
				return false
			}
			if d.Node(p).Label != s.Labels[i] {
				return false
			}
		}
		// The root's number must be the last NPS entry (its last child is
		// deleted last among all non-root deletions).
		return s.Len() == 0 || s.Numbers[s.Len()-1] == d.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLeafMapPaperTree(t *testing.T) {
	got := LeafMap(xmltreetest.PaperTree(0))
	// Example 6 lists (D,2),(D,4),(E,5),(G,10),(F,11),(F,12); the figure's
	// full leaf set also includes (C,1) and (G,8).
	want := map[int]string{1: "C", 2: "D", 4: "D", 5: "E", 8: "G", 10: "G", 11: "F", 12: "F"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("LeafMap = %v, want %v", got, want)
	}
}

func BenchmarkBuildRegular(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := xmltreetest.RandomDocument(rng, 0, xmltreetest.RandomConfig{
		Nodes: 10000, Alphabet: []string{"a", "b", "c", "d", "e", "f"},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(d)
	}
}

func BenchmarkBuildExtended(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := xmltreetest.RandomDocument(rng, 0, xmltreetest.RandomConfig{
		Nodes: 10000, Alphabet: []string{"a", "b", "c", "d", "e", "f"},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildExtended(d)
	}
}

func TestExtendedValueAtFlags(t *testing.T) {
	// The positions contributed by deleting the dummy child of a value node
	// are exactly the positions whose LPS entry is a value string.
	d := xmltreetest.MustFromSExpr(0, `(a (b "v") (c))`)
	s := BuildExtended(d)
	ext := ExtendTree(d)
	if ext.Size()-1 != s.Len() {
		t.Fatalf("extended tree has %d nodes, sequence length %d", ext.Size(), s.Len())
	}
	for i := 1; i < ext.Size(); i++ {
		if isVal := ext.Node(i).Parent.IsValue; isVal != (s.Labels[i-1] == "v") {
			t.Errorf("position %d: value parent %v for label %q", i-1, isVal, s.Labels[i-1])
		}
	}
}
