package vtrie

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// labeled is a collection labeled the way an index labels it: base by one
// exact build, then each of chained as a private chain, in order. docs[i] is
// the terminal posting of sequence i (base first, then chained).
type labeled struct {
	posts []Posting
	docs  []Posting
}

func labelWithChains(t testing.TB, base, chained [][]Symbol) labeled {
	t.Helper()
	var out labeled
	b := NewBuilder()
	for i, s := range base {
		if err := b.Add(s, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	b.Label()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	out.docs = make([]Posting, len(base), len(base)+len(chained))
	if err := b.Emit(func(p Posting, docs []uint32) error {
		out.posts = append(out.posts, p)
		for _, d := range docs {
			out.docs[d] = p
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	next := uint64(b.Nodes()) + 1
	for _, s := range chained {
		for k := range s {
			out.posts = append(out.posts, Chain(s, next, k))
		}
		out.docs = append(out.docs, out.posts[len(out.posts)-1])
		next += uint64(len(s))
	}
	return out
}

// nestingErr holds a labeled collection to what Algorithm 1 reads off it:
// Lefts are dense (1..len, so the next chain's first label is one past the
// posting count), every range holds itself and nests inside the one range
// above it or inside no range at all, and a node's level is its parent's
// plus one (1 under the root).
func nestingErr(posts []Posting) error {
	sorted := slices.Clone(posts)
	slices.SortFunc(sorted, func(a, b Posting) int { return cmp.Compare(a.Left, b.Left) })
	var stack []Posting
	for i, p := range sorted {
		if p.Left != uint64(i+1) {
			return fmt.Errorf("labels not dense: posting %d has Left %d", i, p.Left)
		}
		if p.Right < p.Left {
			return fmt.Errorf("posting %+v: empty range", p)
		}
		for len(stack) > 0 && stack[len(stack)-1].Right < p.Left {
			stack = stack[:len(stack)-1]
		}
		level := uint32(1)
		if len(stack) > 0 {
			parent := stack[len(stack)-1]
			if p.Right > parent.Right {
				return fmt.Errorf("posting %+v overlaps the range of %+v without nesting in it", p, parent)
			}
			level = parent.Level + 1
		}
		if p.Level != level {
			return fmt.Errorf("posting %+v: level %d, its depth is %d", p, p.Level, level)
		}
		stack = append(stack, p)
	}
	return nil
}

func checkNesting(t testing.TB, posts []Posting) {
	t.Helper()
	if err := nestingErr(posts); err != nil {
		t.Fatal(err)
	}
}

// spelled is the sequence of the path down to terminal: the symbols of the
// ranges that hold its Left, by level.
func spelled(posts []Posting, terminal Posting) []Symbol {
	out := make([]Symbol, terminal.Level)
	for _, p := range posts {
		if p.Left <= terminal.Left && terminal.Left <= p.Right && p.Level <= terminal.Level {
			out[p.Level-1] = p.Symbol
		}
	}
	return out
}

// checkPaths requires each sequence's terminal to end its own path: the path
// spells the sequence, as the exact labeling of all of them would.
func checkPaths(t testing.TB, l labeled, seqs [][]Symbol) {
	t.Helper()
	for i, s := range seqs {
		term := l.docs[i]
		if term.Level != uint32(len(s)) || term.Symbol != s[len(s)-1] {
			t.Fatalf("sequence %d %v: terminal %+v", i, s, term)
		}
		if got := spelled(l.posts, term); !slices.Equal(got, s) {
			t.Fatalf("sequence %d: path spells %v, want %v", i, got, s)
		}
	}
}

// FuzzDynamicLabeler labels a random collection the way a written index
// does — an exact build over a first part, then every later sequence as a
// chain — and demands dense labels, a nesting that reads as a trie, and a
// path per sequence that spells it. Most sequences are drawn from earlier
// ones — a duplicate, a prefix, or a prefix that goes on differently — so
// chains repeat and branch off paths the exact part already holds.
func FuzzDynamicLabeler(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(8), uint16(40))
	f.Add(int64(7), uint8(0), uint8(1), uint16(5))
	f.Add(int64(42), uint8(6), uint8(200), uint16(120))
	f.Fuzz(func(t *testing.T, seed int64, alphabet uint8, baseShare uint8, n uint16) {
		rng := rand.New(rand.NewSource(seed))
		syms := int(alphabet%8) + 1
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
				seq = append(seq, Symbol(rng.Intn(syms)))
			}
			seen = append(seen, seq)
			return seq
		}
		total := int(n%256) + 1
		seqs := make([][]Symbol, total)
		for i := range seqs {
			seqs[i] = mkSeq()
		}
		cut := total * int(baseShare) / 255
		l := labelWithChains(t, seqs[:cut], seqs[cut:])
		checkNesting(t, l.posts)
		checkPaths(t, l, seqs)
	})
}

// TestDynamicPostingEquivalence pins chain labeling against the exact
// Builder on small corpora, with the first half labeled exactly and the rest
// chained: every document's terminal carries its sequence's last symbol at
// its length, as the exact labeling of the whole corpus gives it, its path
// spells its sequence, and a chain writes one posting per symbol — what an
// exact build of the chained sequences alone would write with no prefix
// shared.
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
			cut := len(seqs) / 2
			l := labelWithChains(t, seqs[:cut], seqs[cut:])
			checkNesting(t, l.posts)
			checkPaths(t, l, seqs)

			exact := labelWithChains(t, seqs, nil)
			for i := range seqs {
				g, w := l.docs[i], exact.docs[i]
				if g.Symbol != w.Symbol || g.Level != w.Level {
					t.Fatalf("document %d: terminal %d@%d, exact %d@%d", i, g.Symbol, g.Level, w.Symbol, w.Level)
				}
			}
			base := labelWithChains(t, seqs[:cut], nil)
			chained := 0
			for _, s := range seqs[cut:] {
				chained += len(s)
			}
			if got := len(l.posts) - len(base.posts); got != chained {
				t.Fatalf("chains wrote %d postings for %d symbols", got, chained)
			}
			for _, p := range l.posts[len(base.posts):] {
				if p.Left <= uint64(len(base.posts)) {
					t.Fatalf("chain posting %+v reuses a label of the exact part", p)
				}
			}
		})
	}
}

// TestChainNestingBroken shows the nesting check has teeth: a chain whose
// nodes claim only their own labels, or whose ranges stop short of the
// terminal, does not read as a trie path.
func TestChainNestingBroken(t *testing.T) {
	for name, breakIt := range map[string]func(p *Posting){
		"own-label": func(p *Posting) { p.Right = p.Left },
		"short":     func(p *Posting) { p.Right-- },
	} {
		l := labelWithChains(t, [][]Symbol{{1, 2}}, [][]Symbol{{1, 2, 3}})
		breakIt(&l.posts[2])
		if nestingErr(l.posts) == nil {
			t.Errorf("%s: a broken chain passes the nesting check", name)
		}
	}
}
