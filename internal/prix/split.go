package prix

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/twig"
)

// This file answers the twigs §4.5's proxy positions cannot: a query node
// with two or more non-exact (// or *) child edges. Each such branch needs a
// proxy deletion among the children of its parent's image, and one strictly
// increasing subsequence has no room for two when the branch images sit
// under the same child (DESIGN.md "Known algorithmic corner"). Where every
// node has at most one non-exact child edge the descent is exact, so
// matchSplit cuts the others into such twigs and joins their answers (Bille
// & Gørtz's decomposition, PAPERS.md). An unordered twig is answered the
// same way with every child counted as a branch: its parts are root-to-leaf
// paths, which carry no sibling order, and the join checks that the branches
// map into disjoint subtrees, and that identical branches map in postorder:
// swapping their images gives the same image set, so one order finds each
// set once and keeps the join's rows to the C(n,k) sets, not their k!
// orders.

// RiskOfFalseDismissal reports whether the descent alone could miss an
// occurrence of q: some node of q has two or more non-exact child edges.
// Match answers those twigs exactly too, by splitting them (matchSplit).
func RiskOfFalseDismissal(q *twig.Query) bool { return splitNode(q.Root, false) != nil }

// isBranch reports whether child c of a split node gets a part of its own: a
// non-exact child edge does, and unordered every child does.
func isBranch(c *twig.Node, unordered bool) bool { return unordered || !c.Edge.Exact() }

// splitNode returns the first node of n's subtree, in preorder, with two or
// more branches, or nil when there is none.
func splitNode(n *twig.Node, unordered bool) *twig.Node {
	k := 0
	for _, c := range n.Children {
		if isBranch(c, unordered) {
			k++
		}
	}
	if k >= 2 {
		return n
	}
	for _, c := range n.Children {
		if v := splitNode(c, unordered); v != nil {
			return v
		}
	}
	return nil
}

// matchSplit answers a query exactly, ordered or unordered per opts. Without
// a split node it is matchOrdered. Otherwise the twig is cut at the first
// split node v into one part per branch of v — the whole twig without v's
// other branches — each part is answered by matchSplit (a part may split
// again) under a part span, and the parts are joined into opts.Into like any
// answer. A joined match has no single witness, so its Positions are nil.
func (ix *Index) matchSplit(q *twig.Query, opts MatchOptions, stats *QueryStats, workers int, sp *obs.Span) ([]Match, error) {
	v := splitNode(q.Root, opts.Unordered)
	if v == nil {
		return ix.matchOrdered(q, opts, stats, workers, sp)
	}
	s := splitterPool.Get().(*splitter)
	defer s.release()
	t0 := sp.Start()
	s.unordered = opts.Unordered
	s.cut(q, v, ix.opts.Extended)
	sp.Stage(obs.StageCompile, t0)
	for i := range s.parts {
		pt := &s.parts[i]
		popts := opts
		popts.Into = &pt.buf
		var psp *obs.Span
		if sp != nil {
			// Rendered now: the part's twig goes back to the pool with s,
			// and the trace is read after Match returns.
			psp = sp.ChildKeyed("part", obs.OrdinalKey(i))
			psp.SetStr("query", pt.q.String())
		}
		var err error
		pt.ms, err = ix.matchSplit(&pt.q, popts, stats, workers, psp)
		psp.End()
		if err != nil || len(pt.ms) == 0 {
			return nil, err // no part answer, no joined answer
		}
	}
	t0 = sp.Start()
	out, err := s.join(ix, int(patternSize(q.Root, ix.opts.Extended)), opts, stats)
	sp.Stage(obs.StageReduce, t0)
	return out, err
}

// splitter is the pooled working memory of one split, so that a split query
// allocates no more than its parts' walks do: the parts' twigs, cut from the
// nodes and kids slabs, and the join's tables.
type splitter struct {
	unordered bool
	nodes     []twig.Node
	kids      []*twig.Node
	parts     []part
	trunk     []int32  // 0-based image slots every part holds
	tabs      [2]table // the join's running result, alternately
}

// part is one cut of a split twig and its answer.
type part struct {
	q twig.Query
	// post[k] is the whole pattern's postorder number of the part's node
	// k+1; lo..hi are those of the part's own branch, hi its root's.
	post   []int32
	lo, hi int32
	// branch is the query's node the part keeps of v's branches, and
	// class the first part whose branch is identical to it: unordered, the
	// join maps identical branches in postorder.
	branch *twig.Node
	class  int
	// buf is where ms is packed: the splitter's own, not NewMatchBuf's
	// pool, where an extra buffer would leave every request that draws it
	// to grow it.
	buf MatchBuf
	ms  []Match
	tab table
}

// table holds matches as rows of images in the whole pattern's numbering,
// sorted by (docid, trunk images).
type table struct {
	ids  []uint32
	rows []int32
}

var splitterPool = sync.Pool{New: func() any { return new(splitter) }}

// release pools s without what it borrowed from the query (labels, answers)
// and without any buffer above scratchKeep.
func (s *splitter) release() {
	clear(s.nodes)
	clear(s.kids)
	big := max(cap(s.tabs[0].rows), cap(s.tabs[1].rows))
	for i := range s.parts {
		pt := &s.parts[i]
		pt.q, pt.ms, pt.branch = twig.Query{}, nil, nil
		big = max(big, cap(pt.tab.rows), cap(pt.buf.ints), cap(pt.buf.matches)*matchBytes/4)
	}
	if big*4 <= scratchKeep {
		splitterPool.Put(s)
	}
}

// cut fills s.parts with one part per branch of v.
func (s *splitter) cut(q *twig.Query, v *twig.Node, extended bool) {
	k := 0
	for _, c := range v.Children {
		if isBranch(c, s.unordered) {
			k++
		}
	}
	// Part nodes point into the slabs, so the slabs must not grow while the
	// parts are cut.
	s.nodes, s.kids = slices.Grow(s.nodes[:0], k*q.Size()), slices.Grow(s.kids[:0], k*q.Size())
	s.parts = slices.Grow(s.parts[:0], k)[:k] // parts of an earlier split keep their buffers
	i := 0
	for _, c := range v.Children {
		if isBranch(c, s.unordered) {
			pt := &s.parts[i]
			pt.post, pt.branch, pt.class = pt.post[:0], c, i
			for j := 0; s.unordered && j < i; j++ {
				if sameTwig(s.parts[j].branch, c) {
					pt.class = j
					break
				}
			}
			var next int32
			pt.q = twig.Query{Root: s.copy(pt, q.Root, v, c, k, extended, &next), RootEdge: q.RootEdge}
			i++
		}
	}
}

// copy copies n's subtree for part pt, which keeps of v's k branches only
// keep, numbering what it keeps in the whole pattern's postorder: next
// counts its numbers, a dummy leaf under every leaf on an EPIndex included.
func (s *splitter) copy(pt *part, n, v, keep *twig.Node, k int, extended bool, next *int32) *twig.Node {
	kept := len(n.Children)
	if n == v {
		kept -= k - 1
	}
	kids := s.kids[len(s.kids) : len(s.kids) : len(s.kids)+kept]
	s.kids = s.kids[:len(s.kids)+kept]
	for _, c := range n.Children {
		switch {
		case n == v && isBranch(c, s.unordered) && c != keep:
			*next += patternSize(c, extended)
		case c == keep:
			pt.lo = *next + 1
			kids = append(kids, s.copy(pt, c, v, keep, k, extended, next))
			pt.hi = *next
		default:
			kids = append(kids, s.copy(pt, c, v, keep, k, extended, next))
		}
	}
	// n's number, after its dummy leaf's on an EPIndex.
	for d := 0; d < 1 || d < 2 && extended && len(n.Children) == 0; d++ {
		*next++
		pt.post = append(pt.post, *next)
	}
	s.nodes = append(s.nodes, twig.Node{Label: n.Label, IsValue: n.IsValue, Edge: n.Edge, Children: kids})
	return &s.nodes[len(s.nodes)-1]
}

// sameTwig reports whether the subtrees at a and b print identically.
func sameTwig(a, b *twig.Node) bool {
	if a.Label != b.Label || a.IsValue != b.IsValue || a.Edge != b.Edge || len(a.Children) != len(b.Children) {
		return false
	}
	for i, c := range a.Children {
		if !sameTwig(c, b.Children[i]) {
			return false
		}
	}
	return true
}

// mayRepeat reports whether an unordered join can find one image set more
// than once: some node has two children that differ, which the join cannot
// order, so their branches may trade images (./b and .//b over two b
// children). Identical siblings are joined in postorder and find each set
// once.
func mayRepeat(n *twig.Node) bool {
	for i, c := range n.Children {
		if i > 0 && !sameTwig(n.Children[i-1], c) || mayRepeat(c) {
			return true
		}
	}
	return false
}

// patternSize is the number of nodes n's subtree has in a pattern: a dummy
// leaf more under every leaf on an EPIndex.
func patternSize(n *twig.Node, extended bool) int32 {
	s := int32(1)
	if extended && len(n.Children) == 0 {
		s++
	}
	for _, c := range n.Children {
		s += patternSize(c, extended)
	}
	return s
}

// join combines the parts' answers into the whole twig's, packed into
// opts.Into (nil: memory of the answer's own). Each part's matches become a
// table of m-image rows sorted by (docid, trunk), the images outside every
// part's own branch; the parts are then folded in one by one, merging on
// that key. A combination is kept when its branches map into disjoint
// subtrees, in query order unless unordered (disjoint, identical branches in
// postorder), which is all the parts do not check among themselves. The
// context is checked once a document.
func (s *splitter) join(ix *Index, m int, opts MatchOptions, stats *QueryStats) ([]Match, error) {
	s.trunk = s.trunk[:0]
	for _, p := range s.parts[0].post {
		if p < s.parts[0].lo || p > s.parts[0].hi {
			s.trunk = append(s.trunk, p-1)
		}
	}
	for i := range s.parts {
		pt := &s.parts[i]
		slices.SortFunc(pt.ms, pt.compare)
		pt.tab.ids, pt.tab.rows = sized(pt.tab.ids, len(pt.ms)), sized(pt.tab.rows, len(pt.ms)*m)
		for k, mt := range pt.ms {
			pt.tab.ids[k] = mt.DocID
			for j, img := range mt.Images {
				pt.tab.rows[k*m+int(pt.post[j])-1] = img
			}
		}
	}
	sc := getScratch()
	defer putScratch(sc)
	acc := &s.parts[0].tab
	for i := 1; i < len(s.parts); i++ {
		pt, out := &s.parts[i], &s.tabs[i%2]
		out.ids, out.rows = out.ids[:0], out.rows[:0]
		for a, b := 0, 0; a < len(acc.ids) && b < len(pt.tab.ids); {
			if c := s.compare(acc, a, &pt.tab, b, m); c != 0 {
				a, b = a+max(-c, 0), b+max(c, 0)
				continue
			}
			if err := opts.context().Err(); err != nil {
				return nil, fmt.Errorf("prix: match canceled: %w", err)
			}
			ea, eb := s.groupEnd(acc, a, m), s.groupEnd(&pt.tab, b, m)
			doc, err := ix.fetchAsOf(acc.ids[a], opts.AsOf, stats, &sc.rec, &sc.view)
			if err != nil {
				return nil, err
			}
			for x := a; doc != nil && x < ea; x++ {
				for y := b; y < eb; y++ {
					ra, rb := acc.rows[x*m:(x+1)*m], pt.tab.rows[y*m:(y+1)*m]
					if !s.disjoint(doc, ra, rb[pt.hi-1], i) {
						continue
					}
					o := len(out.rows)
					out.ids, out.rows = append(out.ids, acc.ids[x]), append(out.rows, ra...)
					copy(out.rows[o+int(pt.lo)-1:o+int(pt.hi)], rb[pt.lo-1:pt.hi])
				}
			}
			a, b = ea, eb
		}
		acc = out
	}
	if len(acc.ids) == 0 {
		return nil, nil
	}
	var own MatchBuf
	dst := opts.Into
	if dst == nil {
		dst = &own
	}
	dst.ints, dst.matches = sized(dst.ints, len(acc.rows)), sized(dst.matches, len(acc.ids))
	copy(dst.ints, acc.rows)
	for k := range dst.matches {
		images := dst.ints[k*m : (k+1)*m : (k+1)*m]
		dst.matches[k] = Match{DocID: acc.ids[k], Images: images, Root: images[m-1]}
	}
	return dst.matches, nil
}

// disjoint reports whether r, part i's branch root image, roots a subtree
// disjoint from those of the earlier parts' branch roots, whose images row
// holds. Ordered, r must also follow them in postorder, so the previous
// part's is the only one to check; unordered, every earlier part's is, and r
// must follow those of identical branches.
func (s *splitter) disjoint(doc docShape, row []int32, r int32, i int) bool {
	for j := i - 1; j >= 0; j-- {
		l := row[s.parts[j].hi-1]
		inOrder := !s.unordered || s.parts[j].class == s.parts[i].class
		if inOrder && l > r || l == r || isAncestor(doc, max(l, r), min(l, r)) {
			return false
		}
		if !s.unordered {
			break
		}
	}
	return true
}

// compare orders two of the part's matches by (docid, trunk images), the
// images outside its own branch.
func (pt *part) compare(a, b Match) int {
	if c := cmp.Compare(a.DocID, b.DocID); c != 0 {
		return c
	}
	for j, p := range pt.post {
		if p < pt.lo || p > pt.hi {
			if c := cmp.Compare(a.Images[j], b.Images[j]); c != 0 {
				return c
			}
		}
	}
	return 0
}

// compare orders row x of table a against row y of table b by (docid, trunk
// images).
func (s *splitter) compare(a *table, x int, b *table, y, m int) int {
	if c := cmp.Compare(a.ids[x], b.ids[y]); c != 0 {
		return c
	}
	for _, t := range s.trunk {
		if c := cmp.Compare(a.rows[x*m+int(t)], b.rows[y*m+int(t)]); c != 0 {
			return c
		}
	}
	return 0
}

// groupEnd is the end of the run of rows of t with row x's key.
func (s *splitter) groupEnd(t *table, x, m int) int {
	e := x + 1
	for e < len(t.ids) && s.compare(t, x, t, e, m) == 0 {
		e++
	}
	return e
}

// isAncestor reports whether node a is a proper ancestor of node d: parents
// number higher in postorder, so the chase up from d stops past a.
func isAncestor(doc docShape, a, d int32) bool {
	for p := doc.ParentOf(d); p != 0 && p <= a; p = doc.ParentOf(p) {
		if p == a {
			return true
		}
	}
	return false
}
