// Package vist implements the ViST baseline (Wang, Park, Fan, Yu — SIGMOD
// 2003) as characterised by the PRIX paper's §2 and §6: XML documents are
// transformed top-down into structure-encoded sequences — preorder lists of
// (symbol, prefix) pairs where the prefix is the root-to-parent label path —
// the sequences are stored in a virtual trie, and the (symbol, prefix)
// pairs are kept directly in a D-Ancestorship B+-tree. Twig queries run as
// subsequence matching over the trie ranges with prefix-pattern filtering.
//
// Two behaviours of ViST that the PRIX paper calls out are reproduced
// faithfully:
//
//   - prefix matching allows trailing slack ("prefix-of" semantics), so the
//     Figure 1(b) query finds a false alarm in Doc2, and result candidates
//     can be supersets of the true matches;
//   - queries with a wildcard anywhere on the root path must examine every
//     (symbol, prefix) key of the symbol (the paper's "every key with S as
//     its symbol was matched"), which is what makes ViST expensive on
//     recursive datasets such as TREEBANK.
package vist

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"repro/internal/btree"
	"repro/internal/docstore"
	"repro/internal/pager"
	"repro/internal/twig"
	"repro/internal/vtrie"
	"repro/internal/xmltree"
)

// Index is a built ViST index.
type Index struct {
	forest *btree.Forest
	dict   *docstore.Dict
	danc   *btree.Tree // D-Ancestorship: (symbol, prefix, Left) -> Right
	docid  *btree.Tree // Left of sequence end -> docID
}

// Stats reports the work one query performed.
type Stats struct {
	// RangeQueries counts B+-tree scans issued.
	RangeQueries int
	// KeysExamined counts D-Ancestorship entries touched (the paper's
	// "unique (symbol, prefix) keys matched" is bounded by this).
	KeysExamined int
	// Candidates counts candidate documents reported (including false
	// alarms, which ViST does not filter).
	Candidates int
	// PagesRead is the physical pages read during the query.
	PagesRead uint64
	// Elapsed is wall-clock query time.
	Elapsed time.Duration
}

// Build constructs the index over a document collection.
func Build(docs []*xmltree.Document, bp *pager.BufferPool, dict *docstore.Dict) (*Index, error) {
	forest, err := btree.Open(bp)
	if err != nil {
		return nil, err
	}
	ix := &Index{forest: forest, dict: dict}
	if ix.danc, err = forest.Tree("dancestor"); err != nil {
		return nil, err
	}
	if ix.docid, err = forest.Tree("docid"); err != nil {
		return nil, err
	}
	// Composite (symbol, prefix) elements interned in their own space so
	// the trie builder can share paths.
	compDict := map[string]vtrie.Symbol{}
	type compMeta struct {
		label  vtrie.Symbol
		prefix []vtrie.Symbol
	}
	var metas []compMeta
	builder := vtrie.NewBuilder()
	for id, doc := range docs {
		if err := doc.Validate(); err != nil {
			return nil, fmt.Errorf("vist: document %d: %w", id, err)
		}
		seq := make([]vtrie.Symbol, 0, doc.Size())
		var prefix []vtrie.Symbol
		var walk func(n *xmltree.Node)
		walk = func(n *xmltree.Node) {
			label := symbolFor(dict, n)
			key := compKey(label, prefix)
			comp, ok := compDict[key]
			if !ok {
				comp = vtrie.Symbol(len(metas))
				compDict[key] = comp
				metas = append(metas, compMeta{label: label, prefix: append([]vtrie.Symbol(nil), prefix...)})
			}
			seq = append(seq, comp)
			prefix = append(prefix, label)
			for _, c := range n.Children {
				walk(c)
			}
			prefix = prefix[:len(prefix)-1]
		}
		walk(doc.Root)
		if err := builder.Add(seq, uint32(id)); err != nil {
			return nil, err
		}
	}
	builder.Label()
	if err := builder.Validate(); err != nil {
		return nil, err
	}
	err = builder.Emit(func(p vtrie.Posting, ds []uint32) error {
		m := metas[p.Symbol]
		key := dancKey(m.label, m.prefix, p.Left)
		var val [8]byte
		binary.BigEndian.PutUint64(val[:], p.Right)
		if err := ix.danc.Insert(key, val[:]); err != nil {
			return err
		}
		for _, d := range ds {
			var dv [4]byte
			binary.LittleEndian.PutUint32(dv[:], d)
			if err := ix.docid.Insert(btree.KeyUint64(p.Left), dv[:]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ix, forest.Flush()
}

func symbolFor(dict *docstore.Dict, n *xmltree.Node) vtrie.Symbol {
	if n.IsValue {
		return dict.Intern("\x00" + n.Label)
	}
	return dict.Intern(n.Label)
}

// compKey renders (label, prefix) for the build-time interner.
func compKey(label vtrie.Symbol, prefix []vtrie.Symbol) string {
	b := make([]byte, 0, 4*(len(prefix)+1))
	b = appendSym(b, label)
	for _, s := range prefix {
		b = appendSym(b, s)
	}
	return string(b)
}

func appendSym(b []byte, s vtrie.Symbol) []byte {
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], uint32(s))
	return append(b, tmp[:]...)
}

// dancKey is the D-Ancestorship key: symbol(4) | prefixLen(2) | prefix
// (4 bytes per ancestor symbol) | Left(8), all big-endian so same-symbol
// keys cluster and Left order is preserved within one prefix.
func dancKey(label vtrie.Symbol, prefix []vtrie.Symbol, left uint64) []byte {
	b := make([]byte, 0, 4+2+4*len(prefix)+8)
	b = appendSym(b, label)
	var l2 [2]byte
	binary.BigEndian.PutUint16(l2[:], uint16(4*len(prefix)))
	b = append(b, l2[:]...)
	for _, s := range prefix {
		b = appendSym(b, s)
	}
	b = append(b, btree.KeyUint64(left)...)
	return b
}

// parseDancKey splits a stored key back into (prefix symbols, left).
func parseDancKey(k []byte) (prefix []vtrie.Symbol, left uint64, err error) {
	if len(k) < 14 {
		return nil, 0, fmt.Errorf("vist: short D-Ancestorship key")
	}
	plen := int(binary.BigEndian.Uint16(k[4:6]))
	if len(k) != 4+2+plen+8 || plen%4 != 0 {
		return nil, 0, fmt.Errorf("vist: malformed D-Ancestorship key")
	}
	prefix = make([]vtrie.Symbol, plen/4)
	for i := range prefix {
		prefix[i] = vtrie.Symbol(binary.BigEndian.Uint32(k[6+4*i : 10+4*i]))
	}
	left = binary.BigEndian.Uint64(k[len(k)-8:])
	return prefix, left, nil
}

// qstep is one query node prepared for matching: its label symbol, the
// prefix pattern along its root path, and whether the pattern is exact
// (anchored with child-only edges), allowing a narrow key-range scan.
type qstep struct {
	label vtrie.Symbol
	// pattern steps top-down: gaps between consecutive ancestor labels.
	pattern []patStep
	// rootEdge bounds the depth of the first pattern label.
	rootEdge twig.Edge
	// minTrail is the minimum number of hops between the last ancestor
	// label and the node itself (trailing slack beyond it is allowed —
	// ViST's "prefix-of" semantics, the false-alarm source).
	minTrail int
	exact    bool
	// exactPrefix is the literal prefix when exact.
	exactPrefix []vtrie.Symbol
}

type patStep struct {
	label    vtrie.Symbol
	min, max int // hops from the previous pattern label (or root anchor)
}

// compile turns the query into preorder steps. A nil slice with no error
// means a query label does not occur in the collection.
func (ix *Index) compile(q *twig.Query) ([]qstep, error) {
	type anc struct {
		node *twig.Node
		edge twig.Edge
	}
	var steps []qstep
	ok := true
	var walk func(n *twig.Node, edge twig.Edge, ancs []anc)
	walk = func(n *twig.Node, edge twig.Edge, ancs []anc) {
		label, found := lookup(ix.dict, n)
		if !found {
			ok = false
			return
		}
		st := qstep{label: label, rootEdge: q.RootEdge}
		if n != q.Root {
			st.minTrail = edge.Min
		}
		// The narrow key-range scan applies only to fully anchored,
		// child-edge-only root paths; everything else (in particular
		// every leading-// query, i.e. all of the paper's) examines the
		// symbol's whole key range, as ViST does.
		exact := q.RootEdge.Exact() && (n == q.Root || edge.Exact())
		for _, a := range ancs {
			sym, f := lookup(ix.dict, a.node)
			if !f {
				ok = false
				return
			}
			st.pattern = append(st.pattern, patStep{label: sym, min: a.edge.Min, max: a.edge.Max})
			if !a.edge.Exact() {
				exact = false
			}
		}
		st.exact = exact
		if st.exact {
			for _, a := range ancs {
				sym, _ := lookup(ix.dict, a.node)
				st.exactPrefix = append(st.exactPrefix, sym)
			}
		}
		steps = append(steps, st)
		nextAncs := append(append([]anc(nil), ancs...), anc{node: n, edge: edge})
		for _, c := range n.Children {
			walk(c, c.Edge, nextAncs)
		}
	}
	walk(q.Root, q.RootEdge, nil)
	if !ok {
		return nil, nil
	}
	return steps, nil
}

func lookup(dict *docstore.Dict, n *twig.Node) (vtrie.Symbol, bool) {
	if n.IsValue {
		return dict.Lookup("\x00" + n.Label)
	}
	return dict.Lookup(n.Label)
}

// Match returns the candidate document ids (sorted, deduplicated). ViST
// does not run PRIX-style refinement, so candidates may include false
// alarms; callers needing exact answers must verify externally.
func (ix *Index) Match(q *twig.Query) ([]uint32, *Stats, error) {
	start := time.Now()
	bp := ix.forest.BufferPool()
	if err := bp.DropAll(); err != nil {
		return nil, nil, err
	}
	bp.ResetStats()
	stats := &Stats{}
	steps, err := ix.compile(q)
	if err != nil {
		return nil, nil, err
	}
	docSet := map[uint32]bool{}
	if steps != nil {
		if err := ix.findSubsequence(steps, 0, 0, vtrie.MaxRange, stats, docSet); err != nil {
			return nil, nil, err
		}
	}
	out := make([]uint32, 0, len(docSet))
	for d := range docSet {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	stats.Candidates = len(out)
	stats.PagesRead = bp.Stats().PhysicalReads
	stats.Elapsed = time.Since(start)
	return out, stats, nil
}

// findSubsequence performs the trie-range subsequence matching: query step
// i must match a D-Ancestorship entry whose trie position lies strictly
// inside the previous step's range.
func (ix *Index) findSubsequence(steps []qstep, i int, ql, qr uint64, stats *Stats, docSet map[uint32]bool) error {
	st := steps[i]
	type hit struct{ left, right uint64 }
	var hits []hit
	stats.RangeQueries++
	collect := func(k, v []byte) bool {
		stats.KeysExamined++
		prefix, left, err := parseDancKey(k)
		if err != nil {
			return true
		}
		if left <= ql || left > qr {
			return true
		}
		if !st.matchesPrefix(prefix) {
			return true
		}
		hits = append(hits, hit{left: left, right: binary.BigEndian.Uint64(v)})
		return true
	}
	if st.exact {
		// Narrow scan: fixed (symbol, prefix), Left within (ql, qr].
		lo := dancKey(st.label, st.exactPrefix, ql)
		hi := dancKey(st.label, st.exactPrefix, qr)
		if err := ix.danc.Scan(lo, hi, false, true, collect); err != nil {
			return err
		}
	} else {
		// Wildcard path: every key of the symbol is examined (the
		// behaviour the paper measures on TREEBANK).
		lo := appendSym(nil, st.label)
		hi := appendSym(nil, st.label+1)
		if err := ix.danc.Scan(lo, hi, true, false, collect); err != nil {
			return err
		}
	}
	for _, h := range hits {
		if i == len(steps)-1 {
			stats.RangeQueries++
			err := ix.docid.Scan(btree.KeyUint64(h.left), btree.KeyUint64(h.right), true, true,
				func(k, v []byte) bool {
					docSet[binary.LittleEndian.Uint32(v)] = true
					return true
				})
			if err != nil {
				return err
			}
		} else {
			if err := ix.findSubsequence(steps, i+1, h.left, h.right, stats, docSet); err != nil {
				return err
			}
		}
	}
	return nil
}

// matchesPrefix applies the prefix pattern with ViST's trailing-slack
// semantics: the pattern must embed into the data prefix respecting the
// per-edge hop bounds, the root anchor, and a minimum (but not maximum)
// trailing distance to the node itself.
func (st *qstep) matchesPrefix(prefix []vtrie.Symbol) bool {
	n := len(prefix)
	if len(st.pattern) == 0 {
		// Query root itself: only the depth anchor applies. Depth of the
		// node is len(prefix)+1.
		depth := n + 1
		if depth < st.rootEdge.Min {
			return false
		}
		if st.rootEdge.Max != twig.Unbounded && depth > st.rootEdge.Max {
			return false
		}
		return true
	}
	// Backtracking placement of pattern labels at increasing indices.
	var rec func(pi, pos int) bool
	rec = func(pi, pos int) bool {
		if pi == len(st.pattern) {
			// pos is the index just past the last matched label; the
			// node itself sits at depth n+1, so the trailing hop count
			// is n - (pos - 1). Only the minimum is enforced.
			return n-(pos-1) >= st.minTrail
		}
		p := st.pattern[pi]
		var lo, hi int
		if pi == 0 {
			lo = st.rootEdge.Min - 1
			hi = n - 1
			if st.rootEdge.Max != twig.Unbounded {
				hi = st.rootEdge.Max - 1
			}
		} else {
			lo = pos - 1 + p.min
			hi = n - 1
			if p.max != twig.Unbounded {
				hi = pos - 1 + p.max
			}
		}
		if hi > n-1 {
			hi = n - 1
		}
		for idx := lo; idx <= hi; idx++ {
			if idx < 0 || idx >= n {
				continue
			}
			if prefix[idx] != p.label {
				continue
			}
			if rec(pi+1, idx+1) {
				return true
			}
		}
		return false
	}
	return rec(0, 0)
}
