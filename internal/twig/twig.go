// Package twig models the query twigs of the PRIX paper: small ordered
// labeled trees with child ("/") and descendant ("//") edges, wildcard
// ("*") steps and equality value predicates. It parses the XPath subset
// used in the paper's evaluation (Table 3), transforms twigs into Prüfer
// sequences with per-edge structural constraints (§4.5), enumerates branch
// arrangements for unordered matching (§5.7), and provides a brute-force
// matcher used as ground truth by the test suites.
package twig

import (
	"fmt"
	"strconv"

	"repro/internal/prufer"
	"repro/internal/xmltree"
)

// Edge constrains the number of tree steps between a query node and its
// parent's image in the data. A plain child edge is {1, 1}; a descendant
// edge is {1, Unbounded}; each collapsed '*' step adds one mandatory hop.
type Edge struct {
	Min int
	Max int // Unbounded for descendant axes
}

// Unbounded marks an edge with no upper depth bound.
const Unbounded = int(^uint(0) >> 1)

// Exact reports whether the edge is a plain parent-child edge.
func (e Edge) Exact() bool { return e.Min == 1 && e.Max == 1 }

// Allows reports whether a hop count satisfies the edge.
func (e Edge) Allows(steps int) bool { return steps >= e.Min && steps <= e.Max }

// String renders the edge in the re-parseable surface syntax: collapsed
// '*' steps are expanded back, so "/a/*/b"'s {2,2} edge prints as "/*/".
// The canonical form (Query.String) must reparse to itself — the serving
// layer uses it both as a cache key and as the echoed wire form.
func (e Edge) String() string { return string(e.append(nil)) }

func (e Edge) append(b []byte) []byte {
	if e.Max != Unbounded && e.Max != e.Min {
		// Not expressible in the grammar; only reachable by hand-built
		// edges, never by Parse.
		return fmt.Appendf(b, "/{%d,%d}", e.Min, e.Max)
	}
	b = append(b, '/')
	if e.Max == Unbounded {
		b = append(b, '/')
	}
	for stars := e.Min - 1; stars > 0; stars-- {
		b = append(b, "*/"...)
	}
	return b
}

// Node is one materialised query node ('*' steps are collapsed into edges).
type Node struct {
	// Label is the element tag, or the literal text for value nodes.
	Label string
	// IsValue marks equality-predicate value nodes.
	IsValue bool
	// Edge constrains this node's attachment to its parent (ignored on
	// the root, which uses Query.RootEdge).
	Edge Edge
	// Children in document order (predicate order, then the spine child).
	Children []*Node
}

// Query is a parsed twig query.
type Query struct {
	// Root is the query root node.
	Root *Node
	// RootEdge constrains where the root may match relative to the
	// document root: a leading "/" gives {1,1} (the root itself; our
	// virtual super-root sits one step above it), a leading "//" gives
	// {1, Unbounded} (anywhere).
	RootEdge Edge
	// Source is the original query text, if parsed.
	Source string
}

// String renders the query in a canonical XPath-like form.
func (q *Query) String() string {
	// Rendered on the stack when it fits, so the string is the one
	// allocation; a longer form gets one buffer sized for it.
	var b []byte
	if n := q.Root.renderedLen() + 2*q.RootEdge.Min; n <= 256 {
		b = make([]byte, 0, 256)
	} else {
		b = make([]byte, 0, n)
	}
	return string(q.AppendString(b))
}

// renderedLen is the length of the subtree's canonical form when no label
// needs escaping (and a close guess when one does).
func (n *Node) renderedLen() int {
	// Per node at most: an edge's two slashes, "[." and "]", or "[text()=",
	// two quotes and "]"; and two bytes per collapsed '*' step.
	l := len(n.Label) + 12 + 2*n.Edge.Min
	for _, c := range n.Children {
		l += c.renderedLen()
	}
	return l
}

// AppendString appends the canonical form to b, for callers that build a
// longer key around it.
func (q *Query) AppendString(b []byte) []byte {
	return appendNode(q.RootEdge.append(b), q.Root)
}

func appendNode(b []byte, n *Node) []byte {
	if n.IsValue {
		return strconv.AppendQuote(b, n.Label)
	}
	b = append(b, n.Label...)
	for i, c := range n.Children {
		last := i == len(n.Children)-1
		if last && !c.IsValue {
			b = appendNode(c.Edge.append(b), c)
			continue
		}
		b = append(b, '[')
		if c.IsValue {
			b = strconv.AppendQuote(append(b, "text()="...), c.Label)
		} else {
			b = appendNode(c.Edge.append(append(b, '.')), c)
		}
		b = append(b, ']')
	}
	return b
}

// Size returns the number of materialised nodes in the query.
func (q *Query) Size() int { return q.Root.size() }

func (n *Node) size() int {
	s := 1
	for _, c := range n.Children {
		s += c.size()
	}
	return s
}

// leaves counts the childless nodes under (and including) n.
func (n *Node) leaves() int {
	if len(n.Children) == 0 {
		return 1
	}
	s := 0
	for _, c := range n.Children {
		s += c.leaves()
	}
	return s
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	var cp func(n *Node) *Node
	cp = func(n *Node) *Node {
		m := &Node{Label: n.Label, IsValue: n.IsValue, Edge: n.Edge}
		for _, c := range n.Children {
			m.Children = append(m.Children, cp(c))
		}
		return m
	}
	return &Query{Root: cp(q.Root), RootEdge: q.RootEdge, Source: q.Source}
}

// Pattern is a query twig prepared for PRIX matching: the twig as a plain
// ordered tree with postorder numbering, its Prüfer sequence, and the edge
// constraint of every non-root node indexed by postorder number.
type Pattern struct {
	// Query is the source query.
	Query *Query
	// Doc is the twig as an ordered labeled tree (dummy children added
	// when Extended).
	Doc *xmltree.Document
	// Seq is LPS/NPS of Doc.
	Seq *prufer.Sequence
	// Edges[p-1] is the constraint between node p (postorder) and its
	// parent, for p in 1..n-1.
	Edges []Edge
	// Anchored is true for queries with a leading "/" whose root must be
	// the document root.
	Anchored bool
	// Extended marks a pattern built for an Extended-Prüfer index.
	Extended bool

	// Doc and Seq point at these, and the pattern tree's nodes and child
	// lists come from the two slabs, so PrepareInto refills all of it in
	// place.
	doc   xmltree.Document
	seq   prufer.Sequence
	nodes []xmltree.Node
	kids  []*xmltree.Node
}

// Prepare builds the Pattern for the query. With extended set, a dummy
// child (empty value node, matching prufer.ExtendTree's convention) is
// appended under every query leaf so the pattern lines up with an EPIndex
// (§5.6); dummy edges are exact.
func (q *Query) Prepare(extended bool) (*Pattern, error) {
	p := new(Pattern)
	if err := q.PrepareInto(p, extended); err != nil {
		return nil, err
	}
	return p, nil
}

// PrepareInto is Prepare into p, reusing the capacity of everything p holds
// from an earlier query: a pooled Pattern compiles a query without
// allocating once it has seen one as large. Whatever p held before is
// overwritten, including what its Doc, Seq and Edges pointed at.
func (q *Query) PrepareInto(p *Pattern, extended bool) error {
	total := q.Root.size()
	if extended {
		total += q.Root.leaves()
	}
	// The pattern tree is a handful of nodes: they come from one slab laid out
	// in postorder (so a node's slab index is its postorder number minus one,
	// which is how an edge finds its slot), their child lists from another.
	p.nodes, p.kids, p.Edges = resized(p.nodes, total), resized(p.kids, total-1), resized(p.Edges, total-1)
	b := patternBuilder{extended: extended, nodes: p.nodes, kids: p.kids, edges: p.Edges}
	p.doc = xmltree.Document{Root: b.conv(q.Root), Nodes: resized(p.doc.Nodes, total)[:0]}
	p.doc.Number()
	prufer.BuildInto(&p.seq, &p.doc)
	p.Query, p.Doc, p.Seq = q, &p.doc, &p.seq
	p.Anchored, p.Extended = q.RootEdge.Exact(), extended
	if p.Seq.Len() == 0 {
		return fmt.Errorf("twig: query %q has a single node and no sequence; "+
			"single-tag queries must be answered from the tag index directly", q)
	}
	return nil
}

// resized returns s with length n, reusing its backing array when that is
// large enough. The contents are left for the caller to overwrite.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// patternBuilder converts a query tree into an xmltree out of its slabs.
type patternBuilder struct {
	extended bool
	nodes    []xmltree.Node
	kids     []*xmltree.Node
	edges    []Edge // edges[p-1] constrains the node with postorder number p
	next     int    // next free node slot = postorder numbers handed out so far
	nextKid  int
}

func (b *patternBuilder) conv(n *Node) *xmltree.Node {
	nkids := len(n.Children)
	if b.extended && nkids == 0 {
		nkids = 1
	}
	kids := b.kids[b.nextKid : b.nextKid : b.nextKid+nkids]
	b.nextKid += nkids
	for _, c := range n.Children {
		cx := b.conv(c)
		b.edges[b.next-1] = c.Edge // cx took the slot just before next
		kids = append(kids, cx)
	}
	if b.extended && len(n.Children) == 0 {
		d := &b.nodes[b.next]
		*d = xmltree.Node{Label: "", IsValue: true}
		b.edges[b.next] = Edge{Min: 1, Max: 1}
		b.next++
		kids = append(kids, d)
	}
	x := &b.nodes[b.next]
	b.next++
	*x = xmltree.Node{Label: n.Label, IsValue: n.IsValue, Children: kids}
	for _, c := range kids {
		c.Parent = x
	}
	return x
}

// Arrangements enumerates the branch arrangements of the query (§5.7):
// every permutation of every node's child list, deduplicated by canonical
// form. It returns at most limit queries (the original first) and reports
// whether the enumeration was truncated.
func (q *Query) Arrangements(limit int) ([]*Query, bool) {
	seen := map[string]bool{}
	var out []*Query
	truncated := false
	var emit func(cur *Query) bool // returns false when limit reached
	emit = func(cur *Query) bool {
		s := cur.String()
		if seen[s] {
			return true
		}
		seen[s] = true
		out = append(out, cur)
		return len(out) < limit
	}
	// Depth-first over permutation choices: permute children node by node.
	var nodes []*Node
	var collect func(n *Node)
	collect = func(n *Node) {
		nodes = append(nodes, n)
		for _, c := range n.Children {
			collect(c)
		}
	}
	base := q.Clone()
	collect(base.Root)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(nodes) {
			return emit(base.Clone())
		}
		n := nodes[i]
		if len(n.Children) < 2 {
			return rec(i + 1)
		}
		orig := append([]*Node(nil), n.Children...)
		ok := permute(n.Children, 0, func() bool { return rec(i + 1) })
		copy(n.Children, orig)
		return ok
	}
	if !rec(0) {
		truncated = true
	}
	return out, truncated
}

// permute generates all permutations of s in place (Heap's algorithm),
// invoking fn for each; stops early when fn returns false.
func permute(s []*Node, k int, fn func() bool) bool {
	if k == len(s)-1 {
		return fn()
	}
	for i := k; i < len(s); i++ {
		s[k], s[i] = s[i], s[k]
		if !permute(s, k+1, fn) {
			s[k], s[i] = s[i], s[k]
			return false
		}
		s[k], s[i] = s[i], s[k]
	}
	return true
}
