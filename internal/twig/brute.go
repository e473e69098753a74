package twig

import (
	"slices"

	"repro/internal/xmltree"
)

// Embedding maps query postorder numbers (index i holds the image of query
// node i+1) to document postorder numbers. It is the unit the paper counts
// in Table 3's "# of Twig Matches".
type Embedding []int

// Ordered twig match semantics (what PRIX's filtering + refinement phases
// accept, stated directly on trees):
//
//	(a) labels are equal (tags for element nodes, text for value nodes);
//	(b) every query edge (p, c) maps to an ancestor chain in the document
//	    whose length satisfies the edge's {Min, Max} constraint;
//	(c) the map is strictly postorder-monotone: u <post v implies
//	    φ(u) <post φ(v); and
//	(d) ancestorship is preserved in both directions: u is an ancestor of
//	    v iff φ(u) is an ancestor of φ(v).
//
// (c) and (d) together say the images of distinct query branches are
// disjoint subtrees in left-to-right order, which is exactly what the gap
// and frequency consistency refinements enforce on Prüfer sequences.

// MatchBruteForce enumerates every ordered embedding of the query in the
// document by exhaustive backtracking. It is the test oracle: O(candidates^m)
// worst case, intended for the small documents in the test corpora.
func MatchBruteForce(q *Query, doc *xmltree.Document) []Embedding {
	p, err := q.Prepare(false)
	if err != nil {
		// Single-node query: every node with the right label matches.
		var out []Embedding
		for _, n := range doc.Nodes {
			if sameLabel(q.Root.Label, q.Root.IsValue, n) && rootPlacementOK(q, n, doc) {
				out = append(out, Embedding{n.Post})
			}
		}
		return out
	}
	return matchPattern(p, doc)
}

func matchPattern(p *Pattern, doc *xmltree.Document) []Embedding {
	qdoc := p.Doc
	m := qdoc.Size()
	// Process query nodes in preorder so each node's parent is assigned
	// first.
	pre := make([]*xmltree.Node, 0, m)
	var collect func(n *xmltree.Node)
	collect = func(n *xmltree.Node) {
		pre = append(pre, n)
		for _, c := range n.Children {
			collect(c)
		}
	}
	collect(qdoc.Root)

	assign := make([]*xmltree.Node, m+1) // query post -> doc node
	var out []Embedding

	var rec func(i int)
	rec = func(i int) {
		if i == len(pre) {
			emb := make(Embedding, m)
			for qp := 1; qp <= m; qp++ {
				emb[qp-1] = assign[qp].Post
			}
			out = append(out, emb)
			return
		}
		qn := pre[i]
		var candidates []*xmltree.Node
		if qn.Parent == nil {
			for _, dn := range doc.Nodes {
				if sameLabel(qn.Label, qn.IsValue, dn) && rootPlacementOK(p.Query, dn, doc) {
					candidates = append(candidates, dn)
				}
			}
		} else {
			parentImg := assign[qn.Parent.Post]
			edge := p.Edges[qn.Post-1]
			// Descendants of parentImg at an allowed depth.
			for _, dn := range doc.Nodes {
				if !sameLabel(qn.Label, qn.IsValue, dn) {
					continue
				}
				steps := dn.Level - parentImg.Level
				if steps < edge.Min || steps > edge.Max {
					continue
				}
				if !(parentImg.Left < dn.Left && dn.Right < parentImg.Right) {
					continue
				}
				candidates = append(candidates, dn)
			}
		}
		for _, dn := range candidates {
			if !consistent(qdoc, assign, qn, dn) {
				continue
			}
			assign[qn.Post] = dn
			rec(i + 1)
			assign[qn.Post] = nil
		}
	}
	rec(0)
	sortEmbeddings(out)
	return out
}

// consistent checks conditions (c) and (d) of dn as the image of qn against
// all previously assigned nodes.
func consistent(qdoc *xmltree.Document, assign []*xmltree.Node, qn *xmltree.Node, dn *xmltree.Node) bool {
	anc := func(a, b *xmltree.Node) bool { return a.Left < b.Left && b.Right < a.Right }
	for qp := 1; qp < len(assign); qp++ {
		prev := assign[qp]
		if prev == nil || qp == qn.Post {
			continue
		}
		if prev == dn {
			return false // injectivity
		}
		// (c) postorder monotone.
		if (qp < qn.Post) != (prev.Post < dn.Post) {
			return false
		}
		// (d) ancestorship preserved in both directions.
		qprev := qdoc.Node(qp)
		if anc(qprev, qn) != anc(prev, dn) || anc(qn, qprev) != anc(dn, prev) {
			return false
		}
	}
	return true
}

// sameLabel reports whether dn carries a query node's label and kind.
func sameLabel(label string, isValue bool, dn *xmltree.Node) bool {
	return isValue == dn.IsValue && label == dn.Label
}

// rootPlacementOK checks the query's root edge: anchored queries must map
// the query root onto the document root.
func rootPlacementOK(q *Query, dn *xmltree.Node, doc *xmltree.Document) bool {
	if q.RootEdge.Exact() {
		return dn == doc.Root
	}
	// RootEdge with Min > 1 (leading /*/...) requires minimum depth.
	return dn.Level >= q.RootEdge.Min && (q.RootEdge.Max == Unbounded || dn.Level <= q.RootEdge.Max)
}

func sortEmbeddings(es []Embedding) {
	slices.SortFunc(es, func(a, b Embedding) int { return slices.Compare(a, b) })
}

// CountBruteForce sums embeddings of q over a collection of documents.
func CountBruteForce(q *Query, docs []*xmltree.Document) int {
	total := 0
	for _, d := range docs {
		total += len(MatchBruteForce(q, d))
	}
	return total
}
