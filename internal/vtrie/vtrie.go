// Package vtrie implements the virtual trie of §5.2 of the PRIX paper. The
// Labeled Prüfer sequences of all documents are conceptually stored in a
// trie whose nodes are labeled with (LeftPos, RightPos) ranges satisfying
// the containment property; the trie itself is never stored. What persists
// are the Trie-Symbol postings — keyed (symbol, LeftPos) — and the Docid
// index mapping the LeftPos of each sequence's final node to the document
// identifiers ending there. All subsequence matching then runs as range
// queries over those B+-trees (Algorithm 1 in the paper).
//
// One labeling scheme serves every index, in two steps:
//
//   - Builder labels a collection exactly: a transient in-memory trie over
//     all its sequences gets dense ranges from a single DFS, each sized to
//     its subtree, so labels run 1..Nodes(). Every bulk build, rebuild and
//     compaction uses it; the trie is gone once it finishes.
//   - Chain labels one sequence written after that: its whole path hangs
//     under the root as a private chain numbered from the first free label
//     on. A chain nests like any trie path, so queries read it like one; it
//     shares no prefix with the rest, which the next exact build restores.
//     It keeps no state, so a write can never run out of range (the scope
//     underflow of §5.2.1's on-the-fly subdivision, which this replaces).
package vtrie

import (
	"fmt"
	"math"
)

// Symbol is an interned sequence element (an element tag or a value string;
// the docstore package owns the interning).
type Symbol uint32

// Posting is one trie node as seen by a Trie-Symbol index.
type Posting struct {
	Symbol Symbol
	Left   uint64
	Right  uint64
	Level  uint32 // depth in the trie == position in the LPS (1-based)
}

// MaxRange is the RightPos of the trie root (the paper's MAX_INT for 8-byte
// number ranges).
const MaxRange = uint64(math.MaxUint64)

// Chain is the posting of node k (0-based) of the private chain that labels
// seq from label next on, where next is one past the largest label the
// trie has handed out. Node k of n takes Left = next+k and Right = next+n-1
// at level k+1: each node's range holds exactly the nodes below it, and the
// chain as a whole sits above every label before it, inside the root's
// range, so it nests like a trie path of n nodes numbered in preorder. The
// terminal is node n-1, a leaf (Left == Right); the next chain starts at
// next+n, so labels stay dense.
func Chain(seq []Symbol, next uint64, k int) Posting {
	return Posting{
		Symbol: seq[k],
		Left:   next + uint64(k),
		Right:  next + uint64(len(seq)) - 1,
		Level:  uint32(k + 1),
	}
}

// Builder accumulates sequences into a transient in-memory trie.
type Builder struct {
	t trie
	// seqs counts inserted sequences.
	seqs int
}

// NewBuilder returns an empty trie builder.
func NewBuilder() *Builder {
	return &Builder{t: newTrie()}
}

// Add inserts one document's sequence. Empty sequences (single-node trees
// have an empty LPS) are rejected: such documents cannot be found by
// subsequence matching and must be handled by the caller.
func (b *Builder) Add(seq []Symbol, docID uint32) error {
	if len(seq) == 0 {
		return fmt.Errorf("vtrie: empty sequence for document %d", docID)
	}
	t := &b.t
	cur := uint32(0)
	for _, s := range seq {
		p := t.at(cur)
		next := t.child(p, s)
		if next == 0 {
			next = t.add(s)
			t.link(p, next)
		}
		cur = next
	}
	t.end(cur, docID)
	b.seqs++
	return nil
}

// Nodes returns the number of trie nodes (excluding the root). The paper's
// §6.4.2 observation that similar documents share root-to-leaf paths shows
// up as Nodes growing much more slowly than total sequence length.
func (b *Builder) Nodes() int { return int(b.t.n) - 1 }

// Sequences returns the number of sequences inserted.
func (b *Builder) Sequences() int { return b.seqs }

// Label assigns dense (Left, Right) ranges by DFS: Left is the node's
// preorder rank (1 for the root's first child) and Right = Left + subtree
// size - 1, so each node's range holds exactly its descendants' Lefts and
// no sibling's. Left values are unique across the trie and the widest
// label is Nodes().
func (b *Builder) Label() {
	b.size()
	b.assign()
}

// size leaves every node's subtree size (itself included) in its free word,
// iteratively (sequences can be long): a node is pushed, then marked and its
// children pushed, and when it surfaces again its finished size is added to
// its parent's — the marked entry below it on the ancestor stack.
func (b *Builder) size() {
	const entered = 1 << 31
	t := &b.t
	stack := []uint32{0}
	var path []uint32
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		if top&entered == 0 {
			stack[len(stack)-1] |= entered
			n := t.at(top)
			n.free = 1
			path = append(path, top)
			stack = t.kids(n, stack)
			continue
		}
		stack = stack[:len(stack)-1]
		path = path[:len(path)-1]
		if len(path) > 0 {
			t.at(path[len(path)-1]).free += t.at(top &^ entered).free
		}
	}
}

// assign hands each child the next run of the parent's range, as wide as
// its subtree: children partition (n.left, n.left+n.free-1] in symbol order,
// child c taking [cur+1, cur+c.free] with Left at cur+1 — preorder numbering.
func (b *Builder) assign() {
	t := &b.t
	stack := []uint32{0}
	var kids []uint32
	for len(stack) > 0 {
		n := t.at(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		kids = t.kids(n, kids[:0])
		cur := n.left
		for _, k := range kids {
			c := t.at(k)
			c.left = cur + 1
			c.right = cur + c.free
			cur = c.right
		}
		stack = append(stack, kids...)
	}
}

// Emit walks the labeled trie and invokes fn once per node (excluding the
// root) with its posting and the documents terminating there (nil for
// most nodes). Label must have been called. Iteration order is a
// deterministic preorder DFS, children in symbol order.
func (b *Builder) Emit(fn func(p Posting, docs []uint32) error) error {
	return b.t.emit(fn)
}

// Validate checks the containment property across the labeled trie: every
// child range is non-empty, contained in its parent's open interval, and
// disjoint from its siblings'. Used by tests and the index build's
// self-check.
func (b *Builder) Validate() error { return b.t.validate() }
