package prufer

// Reference oracles the tests check the production paths against.

import "repro/internal/xmltree"

// BuildExtended constructs the Extended-Prüfer sequence of §5.6: the tree is
// (conceptually) extended with one dummy child under every leaf, so the
// label of every original node — including leaves and values — appears in
// the LPS. The NPS numbers refer to postorder numbers in the extended tree.
func BuildExtended(d *xmltree.Document) *Sequence {
	ext := ExtendTree(d)
	s := Build(ext)
	s.Extended = true
	s.ValueAt = make([]bool, s.Len())
	for i := 1; i < ext.Size(); i++ {
		s.ValueAt[i-1] = ext.Node(i).Parent.IsValue
	}
	return s
}

// BuildBySimulation constructs the sequence by literally simulating the
// paper's node-removal process (§3.1): repeatedly delete the leaf with the
// smallest postorder number and record its parent. It exists to cross-check
// Build (Lemma 1) in tests and runs in O(n log n).
func BuildBySimulation(d *xmltree.Document) *Sequence {
	n := d.Size()
	remaining := make([]int, n+1) // remaining child count per postorder number
	parent := make([]int, n+1)
	label := make([]string, n+1)
	for i := 1; i <= n; i++ {
		node := d.Node(i)
		remaining[i] = len(node.Children)
		label[i] = node.Label
		if node.Parent != nil {
			parent[i] = node.Parent.Post
		}
	}
	// Min-heap of current leaves by postorder number.
	h := &intHeap{}
	for i := 1; i <= n; i++ {
		if remaining[i] == 0 {
			h.push(i)
		}
	}
	s := &Sequence{N: n}
	for len(*h) > 0 {
		leaf := h.pop()
		p := parent[leaf]
		if p == 0 {
			break // only the root remains
		}
		s.Labels = append(s.Labels, label[p])
		s.Numbers = append(s.Numbers, p)
		remaining[p]--
		if remaining[p] == 0 {
			h.push(p)
		}
	}
	return s
}

// LeafMap extracts the postorder-number → label map of a document's leaves,
// the side table the paper stores alongside LPS/NPS (§4.3: "the label and
// postorder number of every leaf node should be stored in the database").
func LeafMap(d *xmltree.Document) map[int]string {
	m := make(map[int]string)
	for _, n := range d.Nodes {
		if n.IsLeaf() {
			m[n.Post] = n.Label
		}
	}
	return m
}

// IsSubsequence reports whether needle is a (classical, Definition 1)
// subsequence of hay, and if so returns one witness: the positions in hay
// (1-based) where each needle element matched, chosen greedily.
func IsSubsequence(needle, hay []string) ([]int, bool) {
	pos := make([]int, 0, len(needle))
	j := 0
	for i := 0; i < len(hay) && j < len(needle); i++ {
		if hay[i] == needle[j] {
			pos = append(pos, i+1)
			j++
		}
	}
	if j != len(needle) {
		return nil, false
	}
	return pos, true
}

// SubsequenceMatches enumerates every set of positions (1-based, strictly
// increasing) at which needle matches a subsequence of hay, invoking fn for
// each. It is the brute-force oracle for the filtering phase in tests; the
// production path uses the virtual-trie index instead. fn may return false
// to stop the enumeration early. The positions slice is reused between
// invocations; callers must copy it to retain it.
func SubsequenceMatches(needle, hay []string, fn func(pos []int) bool) {
	if len(needle) == 0 {
		return
	}
	pos := make([]int, len(needle))
	var rec func(qi, start int) bool
	rec = func(qi, start int) bool {
		if qi == len(needle) {
			return fn(pos)
		}
		// Not enough room left for the remaining needle elements.
		for i := start; i+len(needle)-qi-1 < len(hay); i++ {
			if hay[i] == needle[qi] {
				pos[qi] = i + 1
				if !rec(qi+1, i+1) {
					return false
				}
			}
		}
		return true
	}
	rec(0, 0)
}

// intHeap is a tiny min-heap of ints used by BuildBySimulation.
type intHeap []int

func (h *intHeap) push(x int) {
	*h = append(*h, x)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] <= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(*h) && (*h)[l] < (*h)[small] {
			small = l
		}
		if r < len(*h) && (*h)[r] < (*h)[small] {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}
