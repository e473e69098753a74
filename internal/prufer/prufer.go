// Package prufer implements the tree-to-sequence transformation at the heart
// of PRIX (§3 of the paper). A tree with n nodes numbered 1..n in postorder
// is transformed into a Prüfer sequence of length n-1 by repeatedly deleting
// the leaf with the smallest number and recording its parent (the paper's
// modified construction keeps deleting until a single node remains, so the
// root's label never appears as a deleted node but does appear as a parent).
//
// The package produces both the Labeled Prüfer Sequence (LPS) and the
// Numbered Prüfer Sequence (NPS), supports the Extended-Prüfer variant of
// §5.6 (a dummy child under every leaf so that every original node's label
// appears in the LPS), and can reconstruct the original tree from the
// sequences, witnessing the one-to-one correspondence.
package prufer

import (
	"fmt"

	"repro/internal/xmltree"
)

// Sequence is the Prüfer sequence of one tree: parallel LPS and NPS arrays.
// Labels[i] is the tag of the parent of the node deleted at step i+1, and
// Numbers[i] is that parent's postorder number (Lemma 1: the node deleted
// at step i+1 is exactly the node with postorder number i+1).
type Sequence struct {
	// Labels is the Labeled Prüfer Sequence.
	Labels []string
	// Numbers is the Numbered Prüfer Sequence.
	Numbers []int
	// Extended records whether this sequence was built from the
	// leaf-extended tree of §5.6.
	Extended bool
	// N is the number of nodes of the tree the sequence was built from
	// (the extended tree when Extended is set); len(Labels) == N-1.
	N int
	// ValueAt reports, for extended sequences, which positions were
	// contributed by deleting a dummy child of a value node — i.e. the
	// positions whose Labels entry is a value string rather than a tag.
	// Nil for regular sequences.
	ValueAt []bool
}

// Len returns the sequence length (N - 1).
func (s *Sequence) Len() int { return len(s.Labels) }

// Build constructs the Regular-Prüfer sequence of the document using the
// postorder numbering already present on its nodes. By Lemma 1 the i-th
// deleted node is the node numbered i, so the sequence is simply the parent
// label/number of nodes 1..n-1 — no simulation of deletions is needed.
func Build(d *xmltree.Document) *Sequence {
	s := new(Sequence)
	BuildInto(s, d)
	return s
}

// BuildInto is Build into s, reusing the capacity of its Labels and Numbers
// (a fresh or too small one gets both at exactly the sequence's length).
// Every other field of s is reset to what Build sets.
func BuildInto(s *Sequence, d *xmltree.Document) {
	n := d.Size()
	labels, numbers := s.Labels[:0], s.Numbers[:0]
	if cap(labels) < n-1 {
		labels = make([]string, 0, n-1)
	}
	if cap(numbers) < n-1 {
		numbers = make([]int, 0, n-1)
	}
	for i := 1; i < n; i++ {
		p := d.Node(i).Parent
		labels = append(labels, p.Label)
		numbers = append(numbers, p.Post)
	}
	*s = Sequence{Labels: labels, Numbers: numbers, N: n}
}

// ExtendTree returns a copy of d with a dummy child (label "", value) under
// every leaf, renumbered. Exported because the query side (twig package)
// must extend query twigs the same way before matching against an EPIndex.
func ExtendTree(d *xmltree.Document) *xmltree.Document {
	var cp func(n *xmltree.Node) *xmltree.Node
	cp = func(n *xmltree.Node) *xmltree.Node {
		m := &xmltree.Node{Label: n.Label, IsValue: n.IsValue}
		for _, c := range n.Children {
			m.AddChild(cp(c))
		}
		if len(n.Children) == 0 {
			m.AddChild(&xmltree.Node{Label: dummyLabel, IsValue: true})
		}
		return m
	}
	return xmltree.NewDocument(d.ID, cp(d.Root))
}

// dummyLabel marks the dummy children inserted by ExtendTree. The empty
// string cannot collide with an element tag or a non-empty value.
const dummyLabel = ""

// IsDummy reports whether a node is an ExtendTree dummy child.
func IsDummy(n *xmltree.Node) bool { return n.IsValue && n.Label == dummyLabel }

// Reconstruct rebuilds the tree from a sequence, witnessing the one-to-one
// correspondence between trees and Prüfer sequences. The NPS determines the
// shape (parent(i) = Numbers[i-1]); the LPS determines every non-leaf label.
// Leaf labels are not present in a regular sequence, so the caller supplies
// them via leaves (postorder number → label); pass nil to leave leaf labels
// empty. For extended sequences every label is recovered and leaves must be
// nil.
func Reconstruct(s *Sequence, leaves map[int]string) (*xmltree.Document, error) {
	n := s.N
	if n < 1 {
		return nil, fmt.Errorf("prufer: cannot reconstruct a tree with %d nodes", n)
	}
	if len(s.Labels) != n-1 || len(s.Numbers) != n-1 {
		return nil, fmt.Errorf("prufer: sequence length %d/%d inconsistent with N=%d",
			len(s.Labels), len(s.Numbers), n)
	}
	nodes := make([]*xmltree.Node, n+1)
	for i := 1; i <= n; i++ {
		nodes[i] = &xmltree.Node{}
	}
	for i := 1; i < n; i++ {
		p := s.Numbers[i-1]
		if p < i+1 || p > n {
			// A parent must have a larger postorder number than any of
			// its children, and the parent of node i is deleted after
			// node i, so p must be at least i+1.
			return nil, fmt.Errorf("prufer: invalid NPS: parent of %d is %d", i, p)
		}
		nodes[p].Label = s.Labels[i-1]
		nodes[p].AddChild(nodes[i])
	}
	for i := 1; i <= n; i++ {
		if len(nodes[i].Children) == 0 {
			if lbl, ok := leaves[i]; ok {
				nodes[i].Label = lbl
			}
		}
	}
	doc := xmltree.NewDocument(0, nodes[n])
	// Verify the reconstruction is postorder-consistent: node i must have
	// ended up with postorder number i, otherwise the NPS was not a valid
	// postorder-numbered Prüfer sequence.
	for i := 1; i <= n; i++ {
		if nodes[i].Post != i {
			return nil, fmt.Errorf("prufer: NPS is not postorder-consistent at node %d (got %d)",
				i, nodes[i].Post)
		}
	}
	return doc, nil
}
