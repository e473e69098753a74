package vtrie

import (
	"fmt"
	"sort"
)

// The map-based trie the slab trie replaced, kept as the model
// TestSlabTrieAgainstMapTrie holds the Builder to: one heap
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
