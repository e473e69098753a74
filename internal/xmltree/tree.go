// Package xmltree models XML documents as ordered labeled trees in the way
// the PRIX paper does: every element and every character-data value is a
// node, attributes are treated as subelements, and nodes carry the postorder
// numbers used by the Prüfer transform as well as the (Left, Right, Level)
// positional encoding used by the TwigStack family of algorithms.
package xmltree

import (
	"fmt"
	"sort"
	"strings"
)

// Node is a single node of an ordered labeled tree. Element nodes carry a
// tag in Label; value nodes (character data) carry the text in Label and
// have IsValue set. Value nodes are always leaves.
type Node struct {
	Label    string
	IsValue  bool
	Parent   *Node
	Children []*Node

	// Post is the 1-based postorder number assigned by Document.Number.
	Post int
	// Pre is the 1-based preorder number assigned by Document.Number.
	Pre int
	// Left, Right and Level form the region encoding used by structural
	// join algorithms: a node X is an ancestor of Y iff
	// X.Left < Y.Left && Y.Right < X.Right (within one document).
	Left, Right, Level int
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// AddChild appends c as the last child of n and sets its parent pointer.
func (n *Node) AddChild(c *Node) {
	c.Parent = n
	n.Children = append(n.Children, c)
}

// Document is one XML document tree with numbering applied.
type Document struct {
	// ID is the document identifier within a collection.
	ID int
	// Root is the document root element.
	Root *Node
	// Nodes holds every node indexed by postorder number minus one, so
	// Nodes[i].Post == i+1. It is populated by Number.
	Nodes []*Node
}

// NewDocument wraps root in a Document and assigns all numberings.
func NewDocument(id int, root *Node) *Document {
	d := &Document{ID: id, Root: root}
	d.Number()
	return d
}

// Size returns the total number of nodes in the document.
func (d *Document) Size() int { return len(d.Nodes) }

// Node returns the node with the given postorder number (1-based).
func (d *Document) Node(post int) *Node {
	if post < 1 || post > len(d.Nodes) {
		return nil
	}
	return d.Nodes[post-1]
}

// Number assigns postorder, preorder and region (Left, Right, Level)
// numbers to every node reachable from the root, and rebuilds d.Nodes.
// Region numbers follow the extended-preorder convention: Left is assigned
// on entry, Right on exit, both drawn from a single counter, so the
// containment property holds.
func (d *Document) Number() {
	d.Nodes = d.Nodes[:0]
	post, pre, region := 0, 0, 0
	// Iterative DFS to survive the TREEBANK-style deep recursions without
	// growing the goroutine stack per node.
	type frame struct {
		n     *Node
		child int
		level int
	}
	if d.Root == nil {
		return
	}
	// Room for 32 levels without touching the heap; deeper trees grow it.
	stack := append(make([]frame, 0, 32), frame{n: d.Root, level: 1})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.child == 0 {
			pre++
			region++
			f.n.Pre = pre
			f.n.Left = region
			f.n.Level = f.level
		}
		if f.child < len(f.n.Children) {
			c := f.n.Children[f.child]
			f.child++
			stack = append(stack, frame{n: c, level: f.level + 1})
			continue
		}
		post++
		region++
		f.n.Post = post
		f.n.Right = region
		d.Nodes = append(d.Nodes, f.n)
		stack = stack[:len(stack)-1]
	}
}

// MaxDepth returns the maximum node level in the document (root is 1).
func (d *Document) MaxDepth() int {
	max := 0
	for _, n := range d.Nodes {
		if n.Level > max {
			max = n.Level
		}
	}
	return max
}

// CountElements returns the number of element (non-value) nodes.
func (d *Document) CountElements() int {
	c := 0
	for _, n := range d.Nodes {
		if !n.IsValue {
			c++
		}
	}
	return c
}

// CountValues returns the number of value (character data) nodes.
func (d *Document) CountValues() int { return len(d.Nodes) - d.CountElements() }

// Leaves returns the leaf nodes in postorder.
func (d *Document) Leaves() []*Node {
	var out []*Node
	for _, n := range d.Nodes {
		if n.IsLeaf() {
			out = append(out, n)
		}
	}
	return out
}

// Tags returns the distinct element tags in the document, sorted.
func (d *Document) Tags() []string {
	set := map[string]bool{}
	for _, n := range d.Nodes {
		if !n.IsValue {
			set[n.Label] = true
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the document with numbering reapplied.
func (d *Document) Clone() *Document {
	var cp func(n *Node) *Node
	cp = func(n *Node) *Node {
		m := &Node{Label: n.Label, IsValue: n.IsValue}
		for _, c := range n.Children {
			m.AddChild(cp(c))
		}
		return m
	}
	return NewDocument(d.ID, cp(d.Root))
}

// String renders the tree in a compact s-expression form, useful in tests
// and error messages: (a (b "v") (c)).
func (d *Document) String() string {
	var b strings.Builder
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsValue {
			fmt.Fprintf(&b, "%q", n.Label)
			return
		}
		b.WriteByte('(')
		b.WriteString(n.Label)
		for _, c := range n.Children {
			b.WriteByte(' ')
			walk(c)
		}
		b.WriteByte(')')
	}
	if d.Root != nil {
		walk(d.Root)
	}
	return b.String()
}

// Validate checks internal consistency of the numbering: postorder numbers
// are a permutation of 1..n, parents have larger postorder numbers than
// children, and the region encoding satisfies the containment property.
func (d *Document) Validate() error {
	if d.Root == nil {
		return fmt.Errorf("xmltree: document %d has no root", d.ID)
	}
	seen := make([]bool, len(d.Nodes)+1)
	for _, n := range d.Nodes {
		if n.Post < 1 || n.Post > len(d.Nodes) || seen[n.Post] {
			return fmt.Errorf("xmltree: bad postorder number %d", n.Post)
		}
		seen[n.Post] = true
		if n.Parent != nil {
			p := n.Parent
			if p.Post <= n.Post {
				return fmt.Errorf("xmltree: parent %d not after child %d in postorder", p.Post, n.Post)
			}
			if !(p.Left < n.Left && n.Right < p.Right) {
				return fmt.Errorf("xmltree: containment violated between %d and parent %d", n.Post, p.Post)
			}
		}
		if n.IsValue && len(n.Children) > 0 {
			return fmt.Errorf("xmltree: value node %q has children", n.Label)
		}
	}
	return nil
}
