package vtrie

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// trie is the Builder's node store: nodes live in fixed-size slabs and name each other by index, so a node costs its 40 bytes and no
// heap object, map or pointer of its own. Index 0 is the root; it is nobody's
// child, which lets 0 double as "none" in the child and sibling links.
//
// Children are kept in symbol order. Up to smallFan of them hang off the
// parent as a sibling chain (one child — the common case below the first few
// levels, where sequences have diverged — is just the parent's kid link). A
// node that outgrows the chain is promoted once to a kidIndex in wide: value
// symbols under one tag fan out in the thousands, and a chain walk there
// would make every insert linear in the fan-out.
type trie struct {
	slabs []*[slabSize]node
	n     uint32 // nodes allocated, root included
	wide  []kidIndex
	// terms lists (terminal node, document) in arrival order: the documents
	// whose sequence ends at a node, for Emit; it stays out of the node.
	terms []term
}

const (
	slabShift = 10
	slabSize  = 1 << slabShift
	// smallFan is the longest sibling chain. It is a constant, not a knob:
	// it only trades a few dependent loads per lookup (a chain of 8 touches
	// at most 8 nodes) against 24 + 8·fan bytes and one heap object per
	// promoted node, and neither side depends on the collection.
	smallFan = 8
	// runCap is the longest run of a kidIndex: an insert moves at most this
	// many 8-byte refs.
	runCap = 128
	// wideFan in node.fan marks a promoted node: kid then indexes trie.wide.
	wideFan = 0xff
)

type node struct {
	left, right uint64
	// free is the node's subtree size during Label.
	free uint64
	sym  Symbol
	kid  uint32 // first child in symbol order, 0 = none; the wide index once promoted
	sib  uint32 // next sibling in symbol order, 0 = last; unused under a promoted parent
	fan  uint8  // children on the chain, or wideFan
	term bool   // some sequence ends here (its documents are in trie.terms)
}

// kidRef is one entry of a promoted node's child index.
type kidRef struct {
	sym  Symbol
	node uint32
}

type term struct{ node, doc uint32 }

// newTrie returns a trie holding only the root, which spans the whole range.
func newTrie() trie {
	var t trie
	t.add(0)
	t.at(0).right = MaxRange
	return t
}

func (t *trie) at(i uint32) *node { return &t.slabs[i>>slabShift][i&(slabSize-1)] }

// add allocates a childless, unlabeled node. Slabs never move, so node
// pointers stay valid across it.
func (t *trie) add(sym Symbol) uint32 {
	i := t.n
	if int(i>>slabShift) == len(t.slabs) {
		t.slabs = append(t.slabs, new([slabSize]node))
	}
	t.n++
	t.at(i).sym = sym
	return i
}

// kidIndex is a promoted node's children in symbol order, as sorted runs of at
// most runCap refs, the runs themselves in order and never empty: a lookup is
// two binary searches, an insert shifts one run (a single flat slice would
// shift half the fan-out per insert — quadratic under a tag with 10^5 values).
type kidIndex [][]kidRef

// find locates sym: the run and the position in it where sym is, or belongs.
func (x kidIndex) find(sym Symbol) (r, i int, ok bool) {
	// The last run starting at or below sym; the first if none does.
	r = sort.Search(len(x), func(k int) bool { return x[k][0].sym > sym })
	if r > 0 {
		r--
	}
	i, ok = slices.BinarySearchFunc(x[r], sym, func(ref kidRef, s Symbol) int {
		return cmp.Compare(ref.sym, s)
	})
	return r, i, ok
}

// insert adds ref, whose symbol x does not hold yet.
func (x kidIndex) insert(ref kidRef) kidIndex {
	if len(x) == 0 {
		return kidIndex{{ref}}
	}
	r, i, _ := x.find(ref.sym)
	run := x[r]
	if len(run) == runCap {
		if r == len(x)-1 && i == runCap {
			// Symbols are interned in arrival order, so new children mostly
			// arrive ascending: leave the full last run packed.
			return append(x, []kidRef{ref})
		}
		upper := slices.Clone(run[runCap/2:])
		run = run[:runCap/2]
		x[r] = run
		x = slices.Insert(x, r+1, upper)
		if i > runCap/2 {
			r, i, run = r+1, i-runCap/2, upper
		}
	}
	x[r] = slices.Insert(run, i, ref)
	return x
}

// child returns p's child labeled sym, or 0.
func (t *trie) child(p *node, sym Symbol) uint32 {
	if p.fan == wideFan {
		if x := t.wide[p.kid]; len(x) > 0 {
			if r, i, ok := x.find(sym); ok {
				return x[r][i].node
			}
		}
		return 0
	}
	for c := p.kid; c != 0; {
		n := t.at(c)
		if n.sym >= sym {
			if n.sym == sym {
				return c
			}
			return 0
		}
		c = n.sib
	}
	return 0
}

// link makes c a child of p, in symbol order. p must not already have a child
// with c's symbol.
func (t *trie) link(p *node, c uint32) {
	cn := t.at(c)
	if p.fan == wideFan {
		t.wide[p.kid] = t.wide[p.kid].insert(kidRef{cn.sym, c})
		return
	}
	prev := uint32(0)
	next := p.kid
	for next != 0 && t.at(next).sym < cn.sym {
		prev, next = next, t.at(next).sib
	}
	cn.sib = next
	if prev == 0 {
		p.kid = c
	} else {
		t.at(prev).sib = c
	}
	if p.fan < smallFan {
		p.fan++
		return
	}
	// The chain (already in symbol order, c spliced in) becomes the index.
	run := make([]kidRef, 0, 2*(smallFan+1))
	for k := p.kid; k != 0; k = t.at(k).sib {
		run = append(run, kidRef{t.at(k).sym, k})
	}
	p.kid, p.fan = uint32(len(t.wide)), wideFan
	t.wide = append(t.wide, kidIndex{run})
}

// kids appends p's children to buf in symbol order.
func (t *trie) kids(p *node, buf []uint32) []uint32 {
	if p.fan == wideFan {
		for _, run := range t.wide[p.kid] {
			for _, ref := range run {
				buf = append(buf, ref.node)
			}
		}
		return buf
	}
	for c := p.kid; c != 0; c = t.at(c).sib {
		buf = append(buf, c)
	}
	return buf
}

// end records that docID's sequence ends at node i.
func (t *trie) end(i uint32, docID uint32) {
	t.at(i).term = true
	t.terms = append(t.terms, term{i, docID})
}

// posting renders node i, found at depth level, as a Trie-Symbol posting.
func (t *trie) posting(i, level uint32) Posting {
	n := t.at(i)
	return Posting{Symbol: n.sym, Left: n.left, Right: n.right, Level: level}
}

// walk visits every node but the root in preorder, children in symbol order,
// handing fn the node's index and its posting, whose level is the node's
// depth (== its position in the sequence, 1-based).
func (t *trie) walk(fn func(i uint32, p Posting) error) error {
	type frame struct{ i, level uint32 }
	stack := []frame{{0, 0}}
	var kids []uint32
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := t.at(f.i)
		if f.i != 0 {
			if err := fn(f.i, t.posting(f.i, f.level)); err != nil {
				return err
			}
		}
		kids = t.kids(n, kids[:0])
		for k := len(kids) - 1; k >= 0; k-- {
			stack = append(stack, frame{kids[k], f.level + 1})
		}
	}
	return nil
}

// emit walks the trie handing fn each node's posting and the documents whose
// sequence ends there (nil for most nodes), in arrival order.
func (t *trie) emit(fn func(p Posting, docs []uint32) error) error {
	// Grouping the terminal list by node keeps arrival order within a node.
	slices.SortStableFunc(t.terms, func(a, b term) int { return cmp.Compare(a.node, b.node) })
	docs := make([]uint32, len(t.terms))
	for i, tm := range t.terms {
		docs[i] = tm.doc
	}
	return t.walk(func(i uint32, p Posting) error {
		var ends []uint32
		if t.at(i).term {
			lo := sort.Search(len(t.terms), func(k int) bool { return t.terms[k].node >= i })
			hi := lo
			for hi < len(t.terms) && t.terms[hi].node == i {
				hi++
			}
			ends = docs[lo:hi:hi]
		}
		return fn(p, ends)
	})
}

// validate checks the containment property: every child range is non-empty,
// inside its parent's open interval, and disjoint from its siblings'.
func (t *trie) validate() error {
	stack := []uint32{0}
	var kids []uint32
	byLeft := func(a, b uint32) int { return cmp.Compare(t.at(a).left, t.at(b).left) }
	for len(stack) > 0 {
		n := t.at(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		kids = t.kids(n, kids[:0])
		slices.SortFunc(kids, byLeft)
		prevRight := n.left
		for _, k := range kids {
			c := t.at(k)
			if err := checkChild(c.left, c.right, n.left, n.right, prevRight); err != nil {
				return err
			}
			prevRight = c.right
		}
		stack = append(stack, kids...)
	}
	return nil
}

// checkChild checks one child range (left, right] against its parent's and
// the right end of the sibling before it.
func checkChild(left, right, pLeft, pRight, prevRight uint64) error {
	if left <= pLeft || right > pRight {
		return fmt.Errorf("vtrie: child range (%d,%d] escapes parent (%d,%d]", left, right, pLeft, pRight)
	}
	if left > right {
		return fmt.Errorf("vtrie: empty range (%d,%d]", left, right)
	}
	if left <= prevRight {
		return fmt.Errorf("vtrie: sibling ranges overlap at %d", left)
	}
	return nil
}
