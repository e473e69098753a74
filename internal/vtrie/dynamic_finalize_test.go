package vtrie

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// shrinkRoot gives the labeler a tiny root scope so Finalize's allocation
// arithmetic is exercised where totalW can exceed the available slots —
// impossible to reach through the public API, whose root spans 2^64.
func shrinkRoot(d *DynamicLabeler, right uint64) {
	d.t.at(0).right = right
}

// rootKid returns the root's child labeled s, or nil.
func rootKid(d *DynamicLabeler, s Symbol) *node {
	if k := d.t.child(d.t.at(0), s); k != 0 {
		return d.t.at(k)
	}
	return nil
}

// TestFinalizeProportionalWidths pins the §5.2.1 weighting: a hot, long
// prefix must receive a proportionally larger scope than a rare, short
// one. The old `avail / totalW * w` truncated the ratio to zero whenever
// totalW > avail, collapsing every child to width 1.
func TestFinalizeProportionalWidths(t *testing.T) {
	d := NewDynamicLabeler(1, 4)
	shrinkRoot(d, 1000) // avail = 500

	hot := []Symbol{1, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9} // long residue behind prefix 1
	rare := []Symbol{2}                              // no residue behind prefix 2
	for i := 0; i < 50; i++ {
		if err := d.Prepare(hot); err != nil {
			t.Fatal(err)
		}
		if err := d.Prepare(rare); err != nil {
			t.Fatal(err)
		}
	}
	// totalW = 50*11 + 50*1 = 600 > avail = 500: the truncating math
	// would hand both children width 1.
	d.Finalize()
	if err := d.t.validate(); err != nil {
		t.Fatal(err)
	}

	widthOf := func(s Symbol) uint64 {
		c := rootKid(d, s)
		if c == nil {
			t.Fatalf("prefix %d missing after Finalize", s)
		}
		return c.right - c.left + 1
	}
	wHot, wRare := widthOf(1), widthOf(2)
	if wHot <= wRare {
		t.Fatalf("hot prefix width %d not larger than rare width %d", wHot, wRare)
	}
	// Weights are 11:1; allow integer-floor slack but demand real
	// proportionality, not the uniform allocation of the broken math.
	if wHot < 8*wRare {
		t.Fatalf("hot prefix width %d not proportional to rare width %d (weights 11:1)", wHot, wRare)
	}
}

// TestFinalizeExhaustedScopeValidates pins the zero-width clamp fix: with
// more prepared children than available slots, the old loop assigned the
// overflow child an inverted range (left = cur+1 > right = cur) that
// Validate rejects. The fix drops unallocatable children so the trie stays
// valid and Add surfaces an honest underflow instead.
func TestFinalizeExhaustedScopeValidates(t *testing.T) {
	d := NewDynamicLabeler(1, 4)
	shrinkRoot(d, 3) // three slots, four prepared children

	for s := Symbol(1); s <= 4; s++ {
		if err := d.Prepare([]Symbol{s}); err != nil {
			t.Fatal(err)
		}
	}
	d.Finalize()
	if err := d.t.validate(); err != nil {
		t.Fatalf("Validate after exhausted-scope Finalize: %v", err)
	}
	for _, k := range d.t.kids(d.t.at(0), nil) {
		if c := d.t.at(k); c.left > c.right {
			t.Fatalf("inverted range (%d,%d] for prefix %d", c.left, c.right, c.sym)
		}
	}
	// The dropped child is re-added dynamically; with the root full it
	// must report scope underflow rather than corrupt the trie.
	if err := d.Add([]Symbol{4}); err == nil {
		t.Fatal("Add into exhausted scope succeeded; want underflow")
	} else if !errors.Is(err, ErrScopeUnderflow) {
		t.Fatalf("Add error = %v; want ErrScopeUnderflow", err)
	}
	if err := d.t.validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFinalizeLargeWeightsNoOverflow drives totalW and avail high enough
// that the naive 64-bit product avail*w would wrap; the widened
// formulation must keep the allocation proportional and valid.
func TestFinalizeLargeWeightsNoOverflow(t *testing.T) {
	d := NewDynamicLabeler(1, 1024)
	// Full root scope: avail ~ 2^63. Prepared weights in the millions
	// make avail*w overflow 64 bits.
	long := make([]Symbol, 2001)
	long[0] = 1
	for i := 1; i < len(long); i++ {
		long[i] = Symbol(2 + i%3)
	}
	for i := 0; i < 1000; i++ {
		if err := d.Prepare(long); err != nil { // w = 1000 * 2001
			t.Fatal(err)
		}
		if err := d.Prepare([]Symbol{7}); err != nil { // w = 1000 * 1
			t.Fatal(err)
		}
	}
	d.Finalize()
	if err := d.t.validate(); err != nil {
		t.Fatal(err)
	}
	c1, c7 := rootKid(d, 1), rootKid(d, 7)
	w1, w7 := c1.right-c1.left+1, c7.right-c7.left+1
	if w1 <= w7 || w1 < 1000*w7 {
		t.Fatalf("weights 2001:1 but widths %d:%d", w1, w7)
	}
}

// FuzzDynamicLabeler feeds random Prepare/Add interleavings through the
// labeler and its map-trie model (model_test.go) and demands that nothing
// panics, Validate always passes, and every AddReport, the underflow count
// and the EmitPrefix walk match the model, whatever mix of underflows and
// unprepared symbols comes up. Most sequences are drawn from earlier ones —
// a duplicate, a prefix, or a prefix that goes on differently — so they end
// inside, run past, or leave the tails earlier Adds left.
func FuzzDynamicLabeler(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(8), uint16(40))
	f.Add(int64(7), uint8(0), uint8(1), uint16(5))
	f.Add(int64(42), uint8(6), uint8(200), uint16(120))
	f.Fuzz(func(t *testing.T, seed int64, alpha uint8, spread uint8, n uint16) {
		rng := rand.New(rand.NewSource(seed))
		d := NewDynamicLabeler(int(alpha%8), uint64(spread))
		m := newMapLabeler(int(alpha%8), uint64(spread))
		// A tiny root scope makes exhaustion reachable.
		right := 1 + uint64(rng.Intn(1<<uint(rng.Intn(20))))
		shrinkRoot(d, right)
		m.root.right = right

		var seen [][]Symbol
		mkSeq := func() []Symbol {
			var seq []Symbol
			if len(seen) > 0 && rng.Intn(4) != 0 {
				prev := seen[rng.Intn(len(seen))]
				seq = append(seq, prev[:1+rng.Intn(len(prev))]...)
				if rng.Intn(3) == 0 {
					return seq
				}
			}
			for n := rng.Intn(12 - len(seq) + 1); n > 0 || len(seq) == 0; n-- {
				seq = append(seq, Symbol(rng.Intn(6)))
			}
			seen = append(seen, seq)
			return seq
		}
		total := int(n%256) + 1
		prep := rng.Intn(total + 1)
		for i := 0; i < prep; i++ {
			s := mkSeq()
			if err := d.Prepare(s); err != nil {
				t.Fatal(err)
			}
			m.Prepare(s)
		}
		d.Finalize()
		m.Finalize()
		if err := d.t.validate(); err != nil {
			t.Fatalf("Validate after Finalize: %v", err)
		}
		seqs := make([][]Symbol, total-prep)
		for i := range seqs {
			seqs[i] = mkSeq()
		}
		addAgainstModel(t, "fuzz", d, m, seqs)
		if err := d.t.validate(); err != nil {
			t.Fatalf("Validate after Adds: %v", err)
		}
	})
}

// TestDynamicPostingEquivalence pins the incremental emission contract
// against the exact Builder on small corpora: EmitPrefix right after
// Finalize plus the AddReport-created postings must equal the labeler's
// whole walk, EmitPrefix after the Adds (nothing double-written, nothing
// missed), terminal postings must carry the sequence's last symbol at its
// length, and the trie must be structurally identical to the exact
// Builder's — same (symbol, level) node multiset, same documents at the
// same terminal paths (the dynamic labeler keeps no document lists: a
// document sits at the terminal AddReport gave it).
func TestDynamicPostingEquivalence(t *testing.T) {
	corpora := map[string][][]Symbol{
		"shared-prefix": {
			{1, 2, 3},
			{1, 2, 4},
			{1, 2, 3}, // duplicate path, second doc
			{5},
		},
		"disjoint": {
			{1}, {2}, {3, 3, 3}, {4, 5},
		},
		"chain": {
			{1, 1, 1, 1, 1, 1},
			{1, 1, 1},
		},
	}
	for name, seqs := range corpora {
		t.Run(name, func(t *testing.T) {
			d := NewDynamicLabeler(2, 64)
			b := NewBuilder()
			for _, s := range seqs {
				if err := d.Prepare(s); err != nil {
					t.Fatal(err)
				}
			}
			d.Finalize()

			incremental := map[Posting]int{}
			dynDocs := map[string][]uint32{}
			if err := d.EmitPrefix(func(p Posting) error {
				incremental[p]++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i, s := range seqs {
				created, term, err := d.AddReport(s)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range created {
					incremental[p]++
				}
				if term.Symbol != s[len(s)-1] || term.Level != uint32(len(s)) {
					t.Fatalf("terminal %+v for seq %v", term, s)
				}
				key := fmt.Sprintf("%d@%d", term.Symbol, term.Level)
				dynDocs[key] = append(dynDocs[key], uint32(i))
				if err := b.Add(s, uint32(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.t.validate(); err != nil {
				t.Fatal(err)
			}

			emitted := map[Posting]int{}
			dynShape := map[string]int{}
			if err := d.EmitPrefix(func(p Posting) error {
				emitted[p]++
				dynShape[fmt.Sprintf("%d@%d", p.Symbol, p.Level)]++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for p, n := range incremental {
				if n != 1 {
					t.Fatalf("posting %+v written %d times by EmitPrefix+AddReport", p, n)
				}
				if emitted[p] != 1 {
					t.Fatalf("posting %+v from incremental emission absent from the walk", p)
				}
			}
			if len(incremental) != len(emitted) {
				t.Fatalf("incremental emitted %d postings, the walk has %d", len(incremental), len(emitted))
			}

			b.Label()
			if err := b.Validate(); err != nil {
				t.Fatal(err)
			}
			exactShape := map[string]int{}
			exactDocs := map[string][]uint32{}
			if err := b.Emit(func(p Posting, docs []uint32) error {
				exactShape[fmt.Sprintf("%d@%d", p.Symbol, p.Level)]++
				if len(docs) > 0 {
					exactDocs[fmt.Sprintf("%d@%d", p.Symbol, p.Level)] = append([]uint32(nil), docs...)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(dynShape) != len(exactShape) {
				t.Fatalf("dynamic trie has %d distinct (symbol,level) nodes, exact has %d", len(dynShape), len(exactShape))
			}
			for k, n := range exactShape {
				if dynShape[k] != n {
					t.Fatalf("node %s: dynamic count %d, exact %d", k, dynShape[k], n)
				}
			}
			for k, docs := range exactDocs {
				got := dynDocs[k]
				if len(got) != len(docs) {
					t.Fatalf("terminal %s: dynamic docs %v, exact %v", k, got, docs)
				}
				for i := range docs {
					if got[i] != docs[i] {
						t.Fatalf("terminal %s: dynamic docs %v, exact %v", k, got, docs)
					}
				}
			}
		})
	}
}

// TestFinalizeOldMathWouldFail documents the failure mode the fix removes:
// reproduce the old width arithmetic side by side and show it yields the
// degenerate uniform allocation on the same statistics the fixed Finalize
// splits proportionally.
func TestFinalizeOldMathWouldFail(t *testing.T) {
	const avail, totalW = uint64(500), uint64(600)
	wHot, wRare := uint64(550), uint64(50)
	oldWidth := func(w uint64) uint64 {
		width := avail / totalW * w
		if width < 1 {
			width = 1
		}
		return width
	}
	if oldWidth(wHot) != 1 || oldWidth(wRare) != 1 {
		t.Fatalf("old math no longer degenerate: hot=%d rare=%d", oldWidth(wHot), oldWidth(wRare))
	}
}
