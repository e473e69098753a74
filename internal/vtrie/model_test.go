package vtrie

import (
	"fmt"
	"math/bits"
	"sort"
)

// The map-based trie the slab trie replaced, kept as the model
// TestSlabTrieAgainstMapTrie holds the production labelers to: one heap
// object and one Go map per node, children sorted on every walk.

// mapBuilder is Builder as it was.
type mapBuilder struct {
	root *mapBuildNode
	// nodes counts trie nodes excluding the root.
	nodes int
	// seqs counts inserted sequences.
	seqs int
}

type mapBuildNode struct {
	sym      Symbol
	children map[Symbol]*mapBuildNode
	docs     []uint32 // documents whose sequence ends here
	subtree  int      // nodes in this subtree including self (set by label pass)
	left     uint64
	right    uint64
}

func newMapBuilder() *mapBuilder {
	return &mapBuilder{root: &mapBuildNode{children: map[Symbol]*mapBuildNode{}}}
}

// Add inserts one document's sequence. Empty sequences (single-node trees
// have an empty LPS) are rejected: such documents cannot be found by
// subsequence matching and must be handled by the caller.
func (b *mapBuilder) Add(seq []Symbol, docID uint32) error {
	if len(seq) == 0 {
		return fmt.Errorf("vtrie: empty sequence for document %d", docID)
	}
	cur := b.root
	for _, s := range seq {
		next, ok := cur.children[s]
		if !ok {
			next = &mapBuildNode{sym: s, children: map[Symbol]*mapBuildNode{}}
			cur.children[s] = next
			b.nodes++
		}
		cur = next
	}
	cur.docs = append(cur.docs, docID)
	b.seqs++
	return nil
}

// Nodes returns the number of trie nodes (excluding the root). The paper's
// §6.4.2 observation that similar documents share root-to-leaf paths shows
// up as Nodes growing much more slowly than total sequence length.
func (b *mapBuilder) Nodes() int { return b.nodes }

// Sequences returns the number of sequences inserted.
func (b *mapBuilder) Sequences() int { return b.seqs }

// Label assigns dense (Left, Right) ranges by DFS: Left is the preorder
// rank, Right = Left + subtree size - 1.
func (b *mapBuilder) Label() {
	b.size(b.root)
	// Root spans the whole space; children partition (root.left, root.right).
	b.root.left = 0
	b.root.right = MaxRange
	b.assign(b.root)
}

// size computes subtree sizes iteratively (sequences can be long).
func (b *mapBuilder) size(root *mapBuildNode) {
	type frame struct {
		n    *mapBuildNode
		kids []*mapBuildNode
		i    int
	}
	stack := []frame{{n: root, kids: mapSortedChildren(root)}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i == 0 {
			f.n.subtree = 1
		}
		if f.i < len(f.kids) {
			c := f.kids[f.i]
			f.i++
			stack = append(stack, frame{n: c, kids: mapSortedChildren(c)})
			continue
		}
		stack = stack[:len(stack)-1]
		if len(stack) > 0 {
			stack[len(stack)-1].n.subtree += f.n.subtree
		}
	}
}

// assign hands each child the next run of its parent's range, exactly as
// wide as its subtree, in symbol order: preorder numbering.
func (b *mapBuilder) assign(root *mapBuildNode) {
	stack := []*mapBuildNode{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cur := n.left
		for _, c := range mapSortedChildren(n) {
			c.left = cur + 1
			c.right = cur + uint64(c.subtree)
			cur = c.right
			stack = append(stack, c)
		}
	}
}

func mapSortedChildren(n *mapBuildNode) []*mapBuildNode {
	kids := make([]*mapBuildNode, 0, len(n.children))
	for _, c := range n.children {
		kids = append(kids, c)
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].sym < kids[j].sym })
	return kids
}

// Emit walks the labeled trie and invokes fn once per node (excluding the
// root) with its posting and the documents terminating there (nil for
// most nodes). Label must have been called. Iteration order is
// level-by-level deterministic DFS.
func (b *mapBuilder) Emit(fn func(p Posting, docs []uint32) error) error {
	type frame struct {
		n     *mapBuildNode
		level uint32
	}
	stack := []frame{{n: b.root, level: 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.n != b.root {
			p := Posting{Symbol: f.n.sym, Left: f.n.left, Right: f.n.right, Level: f.level}
			if err := fn(p, f.n.docs); err != nil {
				return err
			}
		}
		kids := mapSortedChildren(f.n)
		// Push in reverse so children emit in symbol order.
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, frame{n: kids[i], level: f.level + 1})
		}
	}
	return nil
}

// Validate checks the containment property across the labeled trie: every
// child range is non-empty, contained in its parent's open interval, and
// disjoint from its siblings'. Used by tests and the index build's
// self-check.
func (b *mapBuilder) Validate() error {
	var walk func(n *mapBuildNode) error
	walk = func(n *mapBuildNode) error {
		kids := mapSortedChildren(n)
		var prevRight uint64 = n.left
		for _, c := range kids {
			if c.left <= n.left || c.right > n.right {
				return fmt.Errorf("vtrie: child range (%d,%d] escapes parent (%d,%d]",
					c.left, c.right, n.left, n.right)
			}
			if c.left > c.right {
				return fmt.Errorf("vtrie: empty range (%d,%d]", c.left, c.right)
			}
			if c.left <= prevRight {
				return fmt.Errorf("vtrie: sibling ranges overlap at %d", c.left)
			}
			prevRight = c.right
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(b.root)
}

// mapLabeler is DynamicLabeler as it was: §5.2.1 over a pointer-and-map trie.
type mapLabeler struct {
	// Alpha is the depth of the pre-allocated prefix trie.
	Alpha int
	// Spread is the number of range slots reserved per expected future
	// symbol when a child scope is carved dynamically.
	Spread uint64

	root       *mapDynNode
	underflows int
	seqs       int
	prepared   bool
}

type mapDynNode struct {
	sym      Symbol
	children map[Symbol]*mapDynNode
	left     uint64
	right    uint64
	nextFree uint64 // first unassigned slot within (left, right]
	docs     []uint32
	level    uint32
	// prep statistics (only meaningful during Prepare):
	freq    int
	maxRest int
}

func newMapLabeler(alpha int, spread uint64) *mapLabeler {
	if spread == 0 {
		spread = 1024
	}
	return &mapLabeler{
		Alpha:  alpha,
		Spread: spread,
		root:   &mapDynNode{children: map[Symbol]*mapDynNode{}, left: 0, right: MaxRange, nextFree: 0},
	}
}

// Prepare performs the preparatory pass: it records the Alpha-prefix of one
// sequence, accumulating frequency and residual-length statistics. Call it
// for every sequence before any Add; after Finalize it returns ErrPrepared.
func (d *mapLabeler) Prepare(seq []Symbol) error {
	if d.prepared {
		return ErrPrepared
	}
	cur := d.root
	for i := 0; i < len(seq) && i < d.Alpha; i++ {
		next, ok := cur.children[seq[i]]
		if !ok {
			next = &mapDynNode{sym: seq[i], children: map[Symbol]*mapDynNode{}, level: cur.level + 1}
			cur.children[seq[i]] = next
		}
		next.freq++
		if rest := len(seq) - i - 1; rest > next.maxRest {
			next.maxRest = rest
		}
		cur = next
	}
	return nil
}

// Finalize allocates ranges for the prefix trie, weighting each child by
// frequency × (maximum residual length + 1) so hot, long prefixes receive
// proportionally larger scopes. Must be called once between the Prepare
// pass and the Add pass.
func (d *mapLabeler) Finalize() {
	if d.prepared {
		return
	}
	d.prepared = true
	var walk func(n *mapDynNode)
	walk = func(n *mapDynNode) {
		kids := make([]*mapDynNode, 0, len(n.children))
		for _, c := range n.children {
			kids = append(kids, c)
		}
		if len(kids) == 0 {
			n.nextFree = n.left
			return
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].sym < kids[j].sym })
		var totalW uint64
		for _, c := range kids {
			totalW += uint64(c.freq) * uint64(c.maxRest+1)
		}
		// Allocate the prepared children from the first half of the scope
		// only: the second half stays free for children that were not in
		// the preparatory sample (future insertions).
		avail := (n.right - n.left) / 2
		cur := n.left
		for _, c := range kids {
			if cur == n.right {
				// Scope exhausted: drop the remaining prepared children
				// instead of handing out inverted ranges that Validate
				// rejects. Add recreates them from the parent's free
				// half, or surfaces an honest underflow.
				delete(n.children, c.sym)
				continue
			}
			w := uint64(c.freq) * uint64(c.maxRest+1)
			// width = avail * w / totalW. The ratio must not be truncated
			// first (avail/totalW is 0 whenever totalW > avail, collapsing
			// the weighted allocation to uniform width-1), and the product
			// can exceed 64 bits; w <= totalW guarantees the 128-bit
			// quotient fits back in 64 bits.
			hi, lo := bits.Mul64(avail, w)
			width, _ := bits.Div64(hi, lo, totalW)
			if width < 1 {
				width = 1
			}
			if width > n.right-cur {
				width = n.right - cur
			}
			c.left = cur + 1
			c.right = cur + width
			c.nextFree = c.left
			cur = c.right
			walk(c)
		}
		n.nextFree = cur
	}
	walk(d.root)
}

// Add labels one sequence dynamically, creating nodes below the prefix trie
// as needed. It returns ErrScopeUnderflow (wrapped) when a node's scope is
// exhausted; the sequence is then only partially labeled and the caller
// should fall back to exact labeling.
func (d *mapLabeler) Add(seq []Symbol, docID uint32) error {
	_, _, err := d.AddReport(seq, docID)
	return err
}

// AddReport is Add, additionally returning the postings of trie nodes
// created by this sequence (the only ones an incremental index needs to
// write) and the terminal posting the document id attaches to.
func (d *mapLabeler) AddReport(seq []Symbol, docID uint32) (created []Posting, terminal Posting, err error) {
	if !d.prepared {
		d.Finalize()
	}
	cur := d.root
	for i, s := range seq {
		next, ok := cur.children[s]
		if !ok {

			rest := uint64(len(seq) - i)
			remaining := cur.right - cur.nextFree
			// Ask for Spread slots per future symbol, capped at half the
			// remaining scope (to leave room for future siblings), with a
			// floor of two slots per future symbol so a pure chain can
			// always finish inside the scope it was granted.
			width := rest * d.Spread
			if width > remaining/2 {
				width = remaining / 2
			}
			if width < 2*rest {
				width = 2 * rest
			}
			if width > remaining {
				width = remaining
			}
			if width < rest {
				// Not even one slot per future symbol: scope underflow.
				d.underflows++
				return created, Posting{}, fmt.Errorf("vtrie: %w at depth %d (remaining %d, need %d)",
					ErrScopeUnderflow, i+1, remaining, rest)
			}
			next = &mapDynNode{
				sym:      s,
				children: map[Symbol]*mapDynNode{},
				left:     cur.nextFree + 1,
				right:    cur.nextFree + width,
				level:    cur.level + 1,
			}
			next.nextFree = next.left
			cur.nextFree += width
			cur.children[s] = next
			created = append(created, Posting{Symbol: s, Left: next.left, Right: next.right, Level: next.level})
		}
		cur = next
	}
	cur.docs = append(cur.docs, docID)
	d.seqs++
	return created, Posting{Symbol: cur.sym, Left: cur.left, Right: cur.right, Level: cur.level}, nil
}

// EmitPrefix invokes fn for every node of the prepared prefix trie (the
// nodes created by Prepare/Finalize rather than by Add). An incremental
// index must write these postings once, right after Finalize; Add reports
// only the nodes it creates itself.
func (d *mapLabeler) EmitPrefix(fn func(p Posting) error) error {
	if !d.prepared {
		d.Finalize()
	}
	var walk func(n *mapDynNode) error
	walk = func(n *mapDynNode) error {
		if n != d.root {
			if err := fn(Posting{Symbol: n.sym, Left: n.left, Right: n.right, Level: n.level}); err != nil {
				return err
			}
		}
		kids := make([]*mapDynNode, 0, len(n.children))
		for _, c := range n.children {
			kids = append(kids, c)
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].sym < kids[j].sym })
		for _, c := range kids {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(d.root)
}

// Underflows returns how many Add calls failed with scope underflow.
func (d *mapLabeler) Underflows() int { return d.underflows }

// Sequences returns how many sequences were labeled successfully.
func (d *mapLabeler) Sequences() int { return d.seqs }

// Emit walks the dynamic trie like Builder.Emit. Only successfully labeled
// paths are present.
func (d *mapLabeler) Emit(fn func(p Posting, docs []uint32) error) error {
	type frame struct{ n *mapDynNode }
	stack := []frame{{n: d.root}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.n != d.root {
			if err := fn(Posting{Symbol: f.n.sym, Left: f.n.left, Right: f.n.right, Level: f.n.level}, f.n.docs); err != nil {
				return err
			}
		}
		kids := make([]*mapDynNode, 0, len(f.n.children))
		for _, c := range f.n.children {
			kids = append(kids, c)
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].sym > kids[j].sym })
		for _, c := range kids {
			stack = append(stack, frame{n: c})
		}
	}
	return nil
}

// Validate checks containment and disjointness like Builder.Validate.
func (d *mapLabeler) Validate() error {
	var walk func(n *mapDynNode) error
	walk = func(n *mapDynNode) error {
		kids := make([]*mapDynNode, 0, len(n.children))
		for _, c := range n.children {
			kids = append(kids, c)
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].left < kids[j].left })
		prevRight := n.left
		for _, c := range kids {
			if c.left <= n.left || c.right > n.right || c.left > c.right {
				return fmt.Errorf("vtrie: dynamic range (%d,%d] escapes parent (%d,%d]",
					c.left, c.right, n.left, n.right)
			}
			if c.left <= prevRight {
				return fmt.Errorf("vtrie: dynamic sibling overlap at %d", c.left)
			}
			prevRight = c.right
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(d.root)
}
