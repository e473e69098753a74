package vtrie

import (
	"errors"
	"math/rand"
	"testing"
)

func seq(ss ...Symbol) []Symbol { return ss }

func TestBuilderSharing(t *testing.T) {
	b := NewBuilder()
	if err := b.Add(seq(1, 2, 3), 10); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(seq(1, 2, 4), 11); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(seq(1, 2, 3), 12); err != nil {
		t.Fatal(err)
	}
	// Paths share the 1-2 prefix: nodes = 1,2,3,4.
	if b.Nodes() != 4 {
		t.Errorf("Nodes = %d, want 4", b.Nodes())
	}
	if b.Sequences() != 3 {
		t.Errorf("Sequences = %d", b.Sequences())
	}
	if err := b.Add(nil, 13); err == nil {
		t.Error("empty sequence accepted")
	}
}

func TestLabelContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewBuilder()
	for doc := 0; doc < 200; doc++ {
		n := 1 + rng.Intn(30)
		s := make([]Symbol, n)
		for i := range s {
			s[i] = Symbol(rng.Intn(8))
		}
		if err := b.Add(s, uint32(doc)); err != nil {
			t.Fatal(err)
		}
	}
	b.Label()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBuilderLabelsDense holds every labeled Builder to dense numbering:
// Left runs 1..Nodes() in preorder (Emit's order), Right - Left + 1 is the
// node's subtree size, and no sibling's Left falls in (Left, Right]. The
// trie shapes are random: narrow and wide alphabets, short and long
// sequences, one node fanning out in the thousands.
func TestBuilderLabelsDense(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		alphabet, maxLen := 2+rng.Intn(12), 1+rng.Intn(40)
		b := NewBuilder()
		for doc := 0; doc < 300; doc++ {
			s := make([]Symbol, 1+rng.Intn(maxLen))
			for i := range s {
				s[i] = Symbol(rng.Intn(alphabet))
			}
			if seed%2 == 0 && len(s) > 1 {
				s[1] = Symbol(100 + rng.Intn(5000))
			}
			if err := b.Add(s, uint32(doc)); err != nil {
				t.Fatal(err)
			}
		}
		b.Label()
		var ps []Posting
		if err := b.Emit(func(p Posting, _ []uint32) error {
			ps = append(ps, p)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(ps) != b.Nodes() {
			t.Fatalf("seed %d: %d postings, %d nodes", seed, len(ps), b.Nodes())
		}
		for i, p := range ps {
			if p.Left != uint64(i+1) {
				t.Fatalf("seed %d: preorder node %d has Left %d", seed, i+1, p.Left)
			}
			// The subtree is the run of deeper nodes that follows in preorder.
			size := 1
			for i+size < len(ps) && ps[i+size].Level > p.Level {
				size++
			}
			if p.Right-p.Left+1 != uint64(size) {
				t.Fatalf("seed %d: node %d spans %d labels, subtree holds %d", seed, p.Left, p.Right-p.Left+1, size)
			}
			for j := i + size; j < len(ps) && ps[j].Level >= p.Level; j++ {
				if ps[j].Level == p.Level {
					if q := ps[j]; q.Left > p.Left && q.Left <= p.Right {
						t.Fatalf("seed %d: sibling Left %d inside (%d, %d]", seed, q.Left, p.Left, p.Right)
					}
					break
				}
			}
		}
	}
}

func TestEmitPostings(t *testing.T) {
	b := NewBuilder()
	b.Add(seq(5, 6), 1)
	b.Add(seq(5, 7), 2)
	b.Label()
	type rec struct {
		p    Posting
		docs []uint32
	}
	var got []rec
	if err := b.Emit(func(p Posting, docs []uint32) error {
		got = append(got, rec{p, docs})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("emitted %d postings, want 3", len(got))
	}
	// First posting is symbol 5 at level 1 with no docs.
	if got[0].p.Symbol != 5 || got[0].p.Level != 1 || got[0].docs != nil {
		t.Errorf("posting 0 = %+v", got[0])
	}
	// Children 6 and 7 at level 2 terminate docs 1 and 2.
	if got[1].p.Symbol != 6 || got[1].p.Level != 2 || len(got[1].docs) != 1 || got[1].docs[0] != 1 {
		t.Errorf("posting 1 = %+v", got[1])
	}
	if got[2].p.Symbol != 7 || got[2].docs[0] != 2 {
		t.Errorf("posting 2 = %+v", got[2])
	}
	// Descendant containment: 6's Left falls inside 5's open interval.
	if !(got[0].p.Left < got[1].p.Left && got[1].p.Left <= got[0].p.Right) {
		t.Errorf("containment broken: %+v vs %+v", got[0].p, got[1].p)
	}
	// Siblings are disjoint.
	if got[1].p.Right >= got[2].p.Left {
		t.Errorf("siblings overlap: %+v vs %+v", got[1].p, got[2].p)
	}
}

func TestLevelsMatchSequencePositions(t *testing.T) {
	b := NewBuilder()
	s := seq(9, 8, 7, 6, 5)
	b.Add(s, 1)
	b.Label()
	levels := map[Symbol]uint32{}
	b.Emit(func(p Posting, docs []uint32) error {
		levels[p.Symbol] = p.Level
		return nil
	})
	for i, sym := range s {
		if levels[sym] != uint32(i+1) {
			t.Errorf("symbol %d at level %d, want %d", sym, levels[sym], i+1)
		}
	}
}

func TestDeepSequence(t *testing.T) {
	b := NewBuilder()
	s := make([]Symbol, 5000)
	for i := range s {
		s[i] = Symbol(i % 3)
	}
	if err := b.Add(s, 1); err != nil {
		t.Fatal(err)
	}
	b.Label()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	count := 0
	var maxLevel uint32
	b.Emit(func(p Posting, docs []uint32) error {
		count++
		if p.Level > maxLevel {
			maxLevel = p.Level
		}
		if p.Left > p.Right {
			t.Fatalf("empty range at level %d", p.Level)
		}
		return nil
	})
	if count != 5000 || maxLevel != 5000 {
		t.Errorf("count=%d maxLevel=%d", count, maxLevel)
	}
}

func TestManySequencesHighSharing(t *testing.T) {
	// DBLP-like: thousands of identical sequences share one path.
	b := NewBuilder()
	for doc := 0; doc < 5000; doc++ {
		b.Add(seq(1, 2, 3, 4, 5), uint32(doc))
	}
	if b.Nodes() != 5 {
		t.Errorf("Nodes = %d, want 5 (full sharing)", b.Nodes())
	}
	b.Label()
	terminalDocs := 0
	b.Emit(func(p Posting, docs []uint32) error {
		terminalDocs += len(docs)
		return nil
	})
	if terminalDocs != 5000 {
		t.Errorf("terminal docs = %d", terminalDocs)
	}
}

func TestDynamicLabelerNoUnderflowSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var seqs [][]Symbol
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(20)
		s := make([]Symbol, n)
		for j := range s {
			s[j] = Symbol(rng.Intn(6))
		}
		seqs = append(seqs, s)
	}
	d := NewDynamicLabeler(4, 1024)
	for _, s := range seqs {
		if err := d.Prepare(s); err != nil {
			t.Fatal(err)
		}
	}
	d.Finalize()
	for i, s := range seqs {
		if err := d.Add(s, uint32(i)); err != nil {
			t.Fatalf("seq %d: %v", i, err)
		}
	}
	if d.Underflows() != 0 {
		t.Errorf("underflows = %d", d.Underflows())
	}
	if err := d.t.validate(); err != nil {
		t.Fatal(err)
	}
	if d.Sequences() != len(seqs) {
		t.Errorf("sequences = %d", d.Sequences())
	}
}

func TestDynamicLabelerUnderflows(t *testing.T) {
	// Force underflow: tiny spread budget exhausted by many long, barely
	// shared sequences under one node.
	d := NewDynamicLabeler(0, 1)
	rng := rand.New(rand.NewSource(9))
	underflowSeen := false
	for i := 0; i < 100000 && !underflowSeen; i++ {
		n := 60
		s := make([]Symbol, n)
		s[0] = 1 // shared first node with limited scope
		for j := 1; j < n; j++ {
			s[j] = Symbol(rng.Intn(1 << 16))
		}
		if err := d.Add(s, uint32(i)); err != nil {
			if !errors.Is(err, ErrScopeUnderflow) {
				t.Fatalf("unexpected error: %v", err)
			}
			underflowSeen = true
		}
	}
	if !underflowSeen {
		t.Skip("no underflow provoked; policy more generous than expected")
	}
	if d.Underflows() == 0 {
		t.Error("Underflows() not incremented")
	}
	// Labeled part must still be a valid trie.
	if err := d.t.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicAlphaReducesUnderflow(t *testing.T) {
	// The §5.2.1 claim: pre-allocating prefix scopes by frequency/length
	// reduces underflows. Compare α=0 against α=3 on a hostile workload.
	gen := func() [][]Symbol {
		rng := rand.New(rand.NewSource(21))
		var out [][]Symbol
		for i := 0; i < 3000; i++ {
			s := make([]Symbol, 80)
			s[0], s[1], s[2] = 1, 2, 3 // hot shared prefix
			for j := 3; j < len(s); j++ {
				s[j] = Symbol(rng.Intn(1 << 20))
			}
			out = append(out, s)
		}
		return out
	}
	run := func(alpha int) int {
		d := NewDynamicLabeler(alpha, 1<<16)
		ss := gen()
		for _, s := range ss {
			if err := d.Prepare(s); err != nil {
				t.Fatal(err)
			}
		}
		d.Finalize()
		for i, s := range ss {
			_ = d.Add(s, uint32(i))
		}
		return d.Underflows()
	}
	u0, u3 := run(0), run(3)
	if u0 == 0 {
		t.Skip("workload did not provoke underflow at alpha=0")
	}
	if u3 > u0 {
		t.Errorf("alpha=3 underflows %d > alpha=0 underflows %d", u3, u0)
	}
}

func TestEmitDeterministic(t *testing.T) {
	build := func() []Posting {
		b := NewBuilder()
		b.Add(seq(3, 1, 2), 1)
		b.Add(seq(1, 2), 2)
		b.Add(seq(3, 2), 3)
		b.Label()
		var out []Posting
		b.Emit(func(p Posting, docs []uint32) error {
			out = append(out, p)
			return nil
		})
		return out
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatal("nondeterministic emit length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic emit at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestEmitErrorPropagates(t *testing.T) {
	b := NewBuilder()
	b.Add(seq(1, 2), 1)
	b.Label()
	sentinel := errSentinel{}
	err := b.Emit(func(p Posting, docs []uint32) error { return sentinel })
	if err != sentinel {
		t.Errorf("Emit error = %v", err)
	}
	d := NewDynamicLabeler(0, 0)
	d.Add(seq(1, 2), 1)
	if err := d.t.emit(func(p Posting, docs []uint32) error { return sentinel }); err != sentinel {
		t.Errorf("dynamic Emit error = %v", err)
	}
	if err := d.EmitPrefix(func(p Posting) error { return sentinel }); err != nil && err != sentinel {
		t.Errorf("EmitPrefix error = %v", err)
	}
}

type errSentinel struct{}

func (errSentinel) Error() string { return "sentinel" }

func TestValidateCatchesCorruption(t *testing.T) {
	b := NewBuilder()
	b.Add(seq(1, 2), 1)
	b.Add(seq(1, 3), 2)
	b.Label()
	// Corrupt a child range so it escapes its parent.
	for _, c := range b.t.kids(b.t.at(0), nil) {
		for _, g := range b.t.kids(b.t.at(c), nil) {
			b.t.at(g).right = MaxRange
		}
	}
	if err := b.Validate(); err == nil {
		t.Error("Validate accepted corrupted ranges")
	}
}

func TestDynamicPrepareAfterFinalizeErrors(t *testing.T) {
	d := NewDynamicLabeler(2, 0)
	if err := d.Prepare(seq(1, 2)); err != nil {
		t.Fatal(err)
	}
	d.Finalize()
	if err := d.Prepare(seq(3)); !errors.Is(err, ErrPrepared) {
		t.Errorf("Prepare after Finalize = %v, want ErrPrepared", err)
	}
}
