// Package twigtest holds the twig fixtures the repository's tests share: a
// seeded random twig generator, the branch check, and the brute-force
// unordered oracle, which enumerates branch arrangements (§5.7). It is
// imported only by _test.go files.
package twigtest

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/twig"
	"repro/internal/xmltree"
)

// RandomTwig draws a twig of 2–7 nodes over the alphabet a–d and the values
// v1, v2: a node gets up to three children, so branches nest; element edges
// are / (half), // (a third) or /*/, value leaves hang by /, and the root is
// anchored now and then. It goes through the parser, so it is a twig Parse
// produces.
func RandomTwig(rng *rand.Rand) *twig.Query {
	labels, values := []string{"a", "b", "c", "d"}, []string{"v1", "v2"}
	root := &twig.Node{Label: labels[rng.Intn(len(labels))]}
	nodes := []*twig.Node{root}
	for size, tries := 2+rng.Intn(6), 0; len(nodes) < size && tries < 50; tries++ {
		p := nodes[rng.Intn(len(nodes))]
		if p.IsValue || len(p.Children) == 3 {
			continue
		}
		n := &twig.Node{Label: values[rng.Intn(len(values))], IsValue: true, Edge: twig.Edge{Min: 1, Max: 1}}
		if rng.Intn(5) > 0 {
			n = &twig.Node{Label: labels[rng.Intn(len(labels))], Edge: twig.Edge{Min: 1, Max: 1}}
			switch r := rng.Intn(6); {
			case r < 2:
				n.Edge.Max = twig.Unbounded
			case r == 2:
				n.Edge = twig.Edge{Min: 2, Max: 2}
			}
		}
		p.Children = append(p.Children, n)
		nodes = append(nodes, n)
	}
	q := &twig.Query{Root: root, RootEdge: twig.Edge{Min: 1, Max: twig.Unbounded}}
	if rng.Intn(6) == 0 {
		q.RootEdge.Max = 1
	}
	return twig.MustParse(q.String())
}

// HasBranches reports whether some node of n's subtree has two or more
// children, where unordered semantics differ from ordered.
func HasBranches(n *twig.Node) bool { return n.Leaves() > 1 }

// UnorderedCount is the unordered oracle: the union of embeddings over
// every branch arrangement (§5.7), deduplicated by document and image set.
// Within one arrangement the image set determines the embedding (postorder
// monotonicity), so this collapses exactly the cross-arrangement duplicates.
// It enumerates up to 5,040 arrangements (7!, all of any twig of up to 8
// nodes) and panics past that rather than undercount.
func UnorderedCount(q *twig.Query, docs []*xmltree.Document) int {
	arr, truncated := Arrangements(q, 5041)
	if truncated {
		panic(fmt.Sprintf("twigtest: %s has more than 5,040 branch arrangements", q))
	}
	seen := map[string]bool{}
	for _, a := range arr {
		for _, d := range docs {
			for _, e := range twig.MatchBruteForce(a, d) {
				imgs := append([]int(nil), e...)
				sort.Ints(imgs)
				seen[fmt.Sprintf("%d:%v", d.ID, imgs)] = true
			}
		}
	}
	return len(seen)
}

// Arrangements enumerates the branch arrangements of the query (§5.7):
// every permutation of every node's child list, deduplicated by canonical
// form. It returns at most limit queries (the original first) and reports
// whether the enumeration was truncated.
func Arrangements(q *twig.Query, limit int) ([]*twig.Query, bool) {
	seen := map[string]bool{}
	var out []*twig.Query
	truncated := false
	var emit func(cur *twig.Query) bool // returns false when limit reached
	emit = func(cur *twig.Query) bool {
		s := cur.String()
		if seen[s] {
			return true
		}
		seen[s] = true
		out = append(out, cur)
		return len(out) < limit
	}
	// Depth-first over permutation choices: permute children node by node.
	var nodes []*twig.Node
	var collect func(n *twig.Node)
	collect = func(n *twig.Node) {
		nodes = append(nodes, n)
		for _, c := range n.Children {
			collect(c)
		}
	}
	base := clone(q)
	collect(base.Root)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(nodes) {
			return emit(clone(base))
		}
		n := nodes[i]
		if len(n.Children) < 2 {
			return rec(i + 1)
		}
		orig := append([]*twig.Node(nil), n.Children...)
		ok := permute(n.Children, 0, func() bool { return rec(i + 1) })
		copy(n.Children, orig)
		return ok
	}
	if !rec(0) {
		truncated = true
	}
	return out, truncated
}

// clone returns a deep copy of the query.
func clone(q *twig.Query) *twig.Query {
	var cp func(n *twig.Node) *twig.Node
	cp = func(n *twig.Node) *twig.Node {
		m := &twig.Node{Label: n.Label, IsValue: n.IsValue, Edge: n.Edge}
		for _, c := range n.Children {
			m.Children = append(m.Children, cp(c))
		}
		return m
	}
	return &twig.Query{Root: cp(q.Root), RootEdge: q.RootEdge, Source: q.Source}
}

// permute generates all permutations of s in place (Heap's algorithm),
// invoking fn for each; stops early when fn returns false.
func permute(s []*twig.Node, k int, fn func() bool) bool {
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
