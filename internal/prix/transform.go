package prix

import (
	"fmt"
	"strings"

	"repro/internal/docstore"
	"repro/internal/prufer"
	"repro/internal/vtrie"
	"repro/internal/xmltree"
)

// SeqLabel is one Prüfer-sequence position before dictionary interning: the
// parent node's label plus whether it is a value (values are namespaced
// away from element tags when interned).
type SeqLabel struct {
	Label   string
	IsValue bool
}

// LeafLabel is one leaf of the (possibly extended) tree before interning.
type LeafLabel struct {
	Post    int32
	Label   string
	IsValue bool
}

// GapLabel carries one node's child-postorder gap, the per-symbol MaxGap
// catalog contribution.
type GapLabel struct {
	Label   string
	IsValue bool
	Gap     int64
}

// DocSeq is the dictionary-free Prüfer transform of one document: every
// label is carried as a string, so a DocSeq can be computed by a scan
// worker with no access to the index, persisted into a run file, and
// replayed later through Builder.AddSeq — which interns the labels in the
// exact order a direct Builder.Add would have, reproducing the same symbol
// dictionary byte for byte.
type DocSeq struct {
	// DocID is the document's stream ordinal.
	DocID uint32
	// NumNodes is the node count of the (extended, for an EPIndex) tree.
	NumNodes int32
	// NPS / LPS are the paper's parallel number and label sequences; LPS
	// interning order is the slice order.
	NPS []int32
	LPS []SeqLabel
	// Leaves are the tree's leaves in postorder (interned after the LPS).
	Leaves []LeafLabel
	// Gaps are the non-leaf nodes' child gaps in node order (interned last).
	Gaps []GapLabel
	// Build statistics of the original (unextended) document.
	Elements int64
	Values   int64
	MaxDepth int64
}

// Transform computes the DocSeq of one document under the given sequence
// flavor (extended selects Extended-Prüfer, §5.6). It is the pure half of
// prepareDocument: everything except dictionary interning and storage.
func Transform(id uint32, doc *xmltree.Document, extended bool) (*DocSeq, error) {
	if err := doc.Validate(); err != nil {
		return nil, fmt.Errorf("prix: document %d: %w", id, err)
	}
	seqTree := doc
	if extended {
		seqTree = prufer.ExtendTree(doc)
	}
	seq := prufer.Build(seqTree)
	ds := &DocSeq{
		DocID:    id,
		NumNodes: int32(seqTree.Size()),
		NPS:      make([]int32, seq.Len()),
		LPS:      make([]SeqLabel, seq.Len()),
		Elements: int64(doc.CountElements()),
		Values:   int64(doc.CountValues()),
		MaxDepth: int64(doc.MaxDepth()),
	}
	for i := 0; i < seq.Len(); i++ {
		parent := seqTree.Node(seq.Numbers[i])
		ds.NPS[i] = int32(seq.Numbers[i])
		ds.LPS[i] = SeqLabel{Label: parent.Label, IsValue: parent.IsValue}
	}
	for _, n := range seqTree.Nodes {
		if n.IsLeaf() {
			ds.Leaves = append(ds.Leaves, LeafLabel{Post: int32(n.Post), Label: n.Label, IsValue: n.IsValue})
		}
	}
	for _, n := range seqTree.Nodes {
		if len(n.Children) == 0 {
			continue
		}
		ds.Gaps = append(ds.Gaps, GapLabel{
			Label:   n.Label,
			IsValue: n.IsValue,
			Gap:     int64(n.Children[len(n.Children)-1].Post - n.Children[0].Post),
		})
	}
	return ds, nil
}

// Drain reads documents back out of an index as the DocSeqs they were built
// from, straight off their stored records: a record already is the document's
// NPS, LPS and leaf list, so nothing is reconstructed, stripped, re-extended
// or re-sequenced on the way. It holds the scratch one document's derivation
// needs, the DocSeq it hands out included, and reuses it for the next; it is
// not safe for concurrent use.
type Drain struct {
	ix    *Index
	rec   docstore.Record
	ds    DocSeq
	stack []pendingNode
}

// pendingNode is a finished subtree waiting for its parent during the drain's
// pass over the parent array: its root's postorder number and its height in
// original (unextended) nodes.
type pendingNode struct{ post, height int32 }

// NewDrain returns a Drain over ix. Its DocSeq starts with empty, not nil,
// sequences, which sized keeps: a single-node document drains to the empty
// NPS and LPS Transform gives it.
func (ix *Index) NewDrain() *Drain {
	return &Drain{ix: ix, ds: DocSeq{NPS: []int32{}, LPS: []SeqLabel{}}}
}

// DocSeq returns document id's DocSeq — what Transform produced when the
// document was added — or an error if its record is unreadable or is not a
// well-formed sequence (see recordDocSeq). The DocSeq is the Drain's own: it
// and its slices are valid only until the next call, which refills them.
func (d *Drain) DocSeq(id uint32) (*DocSeq, error) {
	d.ix.repairMu.RLock()
	err := d.ix.store.GetInto(&d.rec, id)
	d.ix.repairMu.RUnlock()
	if err != nil {
		return nil, err
	}
	return d.recordDocSeq(id, &d.rec)
}

// recordDocSeq is the inverse of internDocSeq: NPS copied, labels resolved
// through the dictionary, and the leaves, child gaps and original-document
// statistics read off one pass over the parent array. The pass keeps every
// structural check the ReconstructDocument → Transform detour made — a parent
// follows its child and is at most N, the numbering is a postorder (the
// finished subtrees waiting for a parent nest), one root, one label per inner
// node, the leaf list names exactly the leaves, a value has no children — so
// a damaged record is an error here, never a different sequence. For an
// EPIndex the tree is the extended one: every leaf must be an extension dummy
// (the empty value) hanging alone under an original leaf, and the dummies
// count towards neither Elements, Values nor MaxDepth.
func (d *Drain) recordDocSeq(id uint32, rec *docstore.Record) (*DocSeq, error) {
	dict, extended := d.ix.store.Dict(), d.ix.opts.Extended
	n := int(rec.NumNodes)
	bad := func(format string, args ...any) (*DocSeq, error) {
		return nil, fmt.Errorf("prix: document %d: record is not a Prüfer sequence: "+format, append([]any{id}, args...)...)
	}
	if n < 1 || len(rec.NPS) != n-1 || len(rec.LPS) != n-1 || len(rec.Leaves) > n {
		return bad("%d nodes, %d/%d positions, %d leaves", n, len(rec.NPS), len(rec.LPS), len(rec.Leaves))
	}
	label := func(sym vtrie.Symbol) (SeqLabel, error) {
		name, ok := dict.NameOf(sym)
		if !ok {
			return SeqLabel{}, fmt.Errorf("prix: document %d: unknown symbol %d", id, sym)
		}
		if strings.HasPrefix(name, valuePrefix) {
			return SeqLabel{Label: name[len(valuePrefix):], IsValue: true}, nil
		}
		return SeqLabel{Label: name}, nil
	}
	ds, gaps := &d.ds, d.ds.Gaps
	*ds = DocSeq{
		DocID:    id,
		NumNodes: rec.NumNodes,
		NPS:      sized(ds.NPS, n-1),
		LPS:      sized(ds.LPS, n-1),
		Leaves:   sized(ds.Leaves, len(rec.Leaves))[:0],
	}
	copy(ds.NPS, rec.NPS)
	if inner := n - len(rec.Leaves); inner > 0 {
		ds.Gaps = sized(gaps, inner)[:0] // else nil, as Transform leaves it
	}
	stack := d.stack[:0]
	defer func() { d.stack = stack[:0] }()
	for i := 1; i <= n; i++ {
		// i's children are the pending subtrees whose parent it is; they sit
		// on top of the stack, the last child (i-1) uppermost.
		var (
			lab      SeqLabel
			err      error
			kids     int
			first    int32
			height   int32
			dummyKid bool
		)
		for len(stack) > 0 && int(rec.NPS[stack[len(stack)-1].post-1]) == i {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if kids == 0 {
				if lab, err = label(rec.LPS[c.post-1]); err != nil {
					return nil, err
				}
			} else if rec.LPS[c.post-1] != rec.LPS[first-1] {
				return bad("node %d has two labels", i)
			}
			ds.LPS[c.post-1] = lab
			first, height, dummyKid = c.post, max(height, c.height), dummyKid || c.height == 0
			kids++
		}
		original := true // a node of the unextended document
		switch {
		case kids == 0:
			k := len(ds.Leaves)
			if k == len(rec.Leaves) || int(rec.Leaves[k].Post) != i {
				return bad("leaf %d is missing from the leaf list", i)
			}
			if lab, err = label(rec.Leaves[k].Sym); err != nil {
				return nil, err
			}
			ds.Leaves = append(ds.Leaves, LeafLabel{Post: int32(i), Label: lab.Label, IsValue: lab.IsValue})
			if extended {
				if !lab.IsValue || lab.Label != "" || n == 1 {
					return bad("leaf %d is not an extension dummy", i)
				}
				original = false
			}
		case dummyKid && kids > 1:
			return bad("extension dummy under node %d has siblings", i)
		case lab.IsValue && !dummyKid:
			return bad("value node %d has children", i)
		default:
			ds.Gaps = append(ds.Gaps, GapLabel{Label: lab.Label, IsValue: lab.IsValue, Gap: int64(i-1) - int64(first)})
		}
		if original {
			height++
			if lab.IsValue {
				ds.Values++
			} else {
				ds.Elements++
			}
		}
		if i == n {
			ds.MaxDepth = int64(height)
			break
		}
		p := int(rec.NPS[i-1])
		if p <= i || p > n {
			return bad("parent of %d is %d", i, p)
		}
		if len(stack) > 0 && p > int(rec.NPS[stack[len(stack)-1].post-1]) {
			return bad("numbering is not a postorder at node %d", i)
		}
		stack = append(stack, pendingNode{post: int32(i), height: height})
	}
	if len(stack) > 0 || len(ds.Leaves) != len(rec.Leaves) {
		return bad("%d subtrees without a parent, %d leaf entries naming no leaf", len(stack), len(rec.Leaves)-len(ds.Leaves))
	}
	return ds, nil
}

// internDocSeq resolves a DocSeq's labels against the index dictionary —
// LPS positions first, then leaves, then gaps, the order prepareDocument
// has always interned in, so replayed and direct builds assign identical
// symbols — filling rec with the docstore record and folding the gaps into
// the MaxGap catalog. rec is the caller's scratch: its LPS and Leaves storage
// is reused, and its NPS is ds.NPS itself, so rec is valid as long as ds is.
// It returns rec.LPS, the interned sequence. Nothing downstream keeps rec's
// slices: the store encodes the record into its own pages and the shape
// dictionary packs the shape into its own words.
func (ix *Index) internDocSeq(id uint32, ds *DocSeq, rec *docstore.Record) []vtrie.Symbol {
	dict := ix.store.Dict()
	*rec = docstore.Record{
		DocID:    id,
		NumNodes: ds.NumNodes,
		NPS:      ds.NPS,
		LPS:      sized(rec.LPS, len(ds.LPS)),
		Leaves:   sized(rec.Leaves, len(ds.Leaves)),
	}
	for i, l := range ds.LPS {
		rec.LPS[i] = SymbolFor(dict, l.Label, l.IsValue)
	}
	for i, lf := range ds.Leaves {
		rec.Leaves[i] = docstore.Leaf{Post: lf.Post, Sym: SymbolFor(dict, lf.Label, lf.IsValue)}
	}
	for _, g := range ds.Gaps {
		sym := SymbolFor(dict, g.Label, g.IsValue)
		if g.Gap > ix.maxGap[sym] {
			ix.maxGap[sym] = g.Gap
		}
	}
	return rec.LPS
}

// addSeq stages one pre-transformed document: intern, account stats, store
// the record (interning its shape), and add the sequence to the trie. Add and
// the streaming-ingest replay (AddSeq) both funnel through here; the record
// is interned into the builder's scratch, so ds is not kept.
func (b *Builder) addSeq(ds *DocSeq) error {
	ix, bs := b.ix, &b.stats
	syms := ix.internDocSeq(b.nextID, ds, &b.rec)
	bs.elements += ds.Elements
	bs.values += ds.Values
	if ds.MaxDepth > bs.maxDepth {
		bs.maxDepth = ds.MaxDepth
	}
	bs.seqLen += int64(len(syms))
	if len(syms) == 0 {
		// A single-node document has no sequence; it is still stored so
		// single-tag fallbacks can see it, but cannot join the trie.
		return ix.putRecord(&b.rec)
	}
	if err := b.trie.Add(syms, b.nextID); err != nil {
		return err
	}
	return ix.putRecord(&b.rec)
}

// putRecord appends a new document's record and copies a shape it interned
// into the shape tree.
func (ix *Index) putRecord(rec *docstore.Record) error {
	if err := ix.store.Put(rec); err != nil {
		return err
	}
	return ix.writeShapes()
}

// AddSeq stages one pre-transformed document, the replay half of streaming
// ingest: the scan phase persists DocSeqs into run files and the merge
// phase feeds them back here in docid order, reproducing the exact
// dictionary, trie, and store a Builder.Add sequence over the original
// documents would have built. ds is not kept past the call, so a caller may
// refill it for the next document.
func (b *Builder) AddSeq(ds *DocSeq) error {
	if b.done {
		return fmt.Errorf("prix: AddSeq after Finalize")
	}
	if err := b.addSeq(ds); err != nil {
		b.buildEr = err
		return err
	}
	b.nextID++
	return nil
}
