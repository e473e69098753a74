package hot

import (
	"math/bits"

	"repro/internal/docstore"
	"repro/internal/vtrie"
)

// Summary is a bit-packed encoding of one document's refinement data: one
// field per node holding its parent's postorder number (bits.Len(n) bits,
// 0 for the root) and its label (bits.Len(max symbol) bits). Nodes,
// ParentOf and LabelOf each read one field with two shifts and a mask, so
// Algorithm 2 navigates a resident document in place; NPS, LPS and the leaf
// list all derive from the same vector (Record). On 20-node documents the
// parent field costs about 8 B more than 2n balanced-parentheses bits would,
// and in exchange needs no rank/select directory and no decode.
//
// NewSummary round-trips the encoding against the source record and admits
// nothing on any mismatch, so a Summary is behaviourally identical to the
// record it replaced — the tier can never change query results. A Summary
// the tier fills (Tier.Summary) is a view whose words alias the tier's arena.
type Summary struct {
	docID  uint32
	n      int32
	pw, lw uint8    // parent and label field widths; pw+lw <= 63
	words  []uint64 // node post's field starts at bit (post-1)*(pw+lw), LSB-first
}

// DocID returns the document the summary encodes.
func (s *Summary) DocID() uint32 { return s.docID }

// Entry returns the summary as a tier entry.
func (s *Summary) Entry() Entry {
	return Entry{kind: KindSummary, words: s.words, n: s.n, pw: s.pw, lw: s.lw}
}

// Nodes returns n, the node count of the encoded tree.
func (s *Summary) Nodes() int32 { return s.n }

// ParentOf returns the postorder number of node post's parent, or 0 for the
// root and for numbers outside the tree (docstore.Record.ParentOf's contract).
func (s *Summary) ParentOf(post int32) int32 {
	if post < 1 || post > s.n {
		return 0
	}
	return int32(s.field(post) & (1<<s.pw - 1))
}

// LabelOf returns the label symbol of node post; false outside the tree.
func (s *Summary) LabelOf(post int32) (vtrie.Symbol, bool) {
	if post < 1 || post > s.n {
		return 0, false
	}
	return vtrie.Symbol(s.field(post) >> s.pw), true
}

// field extracts node post's packed (label<<pw | parent) field.
func (s *Summary) field(post int32) uint64 {
	w := uint(s.pw) + uint(s.lw)
	bit := uint(post-1) * w
	i, sh := bit>>6, bit&63
	x := s.words[i] >> sh
	if sh+w > 64 {
		x |= s.words[i+1] << (64 - sh)
	}
	return x & (1<<w - 1)
}

// NewSummary encodes rec, returning nil when the record is not expressible
// (structural damage) or when the decoded image differs from the source in
// any field — the caller then simply keeps reading the record from the
// store.
func NewSummary(rec *docstore.Record) *Summary {
	if rec == nil {
		return nil
	}
	n := int(rec.NumNodes)
	if n < 1 || len(rec.NPS) != n-1 || len(rec.LPS) != n-1 {
		return nil
	}
	// One label per node: internal nodes from the LPS (their label appears
	// wherever they act as a parent), leaves from the leaf list. Conflicts
	// mean a damaged record; unlabeled nodes keep 0 and the round-trip
	// check below decides whether that is faithful.
	labels := make([]vtrie.Symbol, n+1)
	labeled := make([]bool, n+1)
	setLabel := func(post int32, sym vtrie.Symbol) bool {
		if post < 1 || post > int32(n) || (labeled[post] && labels[post] != sym) {
			return false
		}
		labels[post], labeled[post] = sym, true
		return true
	}
	for i := 1; i < n; i++ {
		// Postorder numbers a parent after its children.
		if p := rec.NPS[i-1]; p <= int32(i) || !setLabel(p, rec.LPS[i-1]) {
			return nil
		}
	}
	for _, l := range rec.Leaves {
		if !setLabel(l.Post, l.Sym) {
			return nil
		}
	}
	var maxSym vtrie.Symbol
	for _, sym := range labels {
		maxSym = max(maxSym, sym)
	}
	s := &Summary{
		docID: rec.DocID,
		n:     rec.NumNodes,
		pw:    uint8(bits.Len32(uint32(n))),
		lw:    uint8(bits.Len32(uint32(maxSym))),
	}
	w := uint(s.pw) + uint(s.lw)
	s.words = make([]uint64, (uint(n)*w+63)/64)
	for post := 1; post <= n; post++ {
		f := uint64(labels[post]) << s.pw
		if post < n {
			f |= uint64(rec.NPS[post-1])
		}
		bit := uint(post-1) * w
		i, sh := bit>>6, bit&63
		s.words[i] |= f << sh
		if sh+w > 64 {
			s.words[i+1] |= f >> (64 - sh)
		}
	}
	if !s.matches(rec) {
		return nil
	}
	return s
}

// Record decodes the summary back into a fresh docstore record. The result
// is freshly allocated on every call; callers may treat it exactly like a
// record read from the store.
func (s *Summary) Record() *docstore.Record {
	n := s.n
	rec := &docstore.Record{
		DocID:    s.docID,
		NumNodes: n,
		NPS:      make([]int32, n-1),
		LPS:      make([]vtrie.Symbol, n-1),
	}
	internal := make([]bool, n+1)
	for p := int32(1); p < n; p++ {
		pp := s.ParentOf(p)
		rec.NPS[p-1] = pp
		rec.LPS[p-1], _ = s.LabelOf(pp)
		internal[pp] = true
	}
	for p := int32(1); p <= n; p++ {
		if !internal[p] {
			sym, _ := s.LabelOf(p)
			rec.Leaves = append(rec.Leaves, docstore.Leaf{Post: p, Sym: sym})
		}
	}
	return rec
}

// matches reports whether the decoded image equals rec field by field (nil
// and empty slices compare equal).
func (s *Summary) matches(rec *docstore.Record) bool {
	got := s.Record()
	if got.DocID != rec.DocID || got.NumNodes != rec.NumNodes ||
		len(got.NPS) != len(rec.NPS) || len(got.LPS) != len(rec.LPS) ||
		len(got.Leaves) != len(rec.Leaves) {
		return false
	}
	for i := range got.NPS {
		if got.NPS[i] != rec.NPS[i] || got.LPS[i] != rec.LPS[i] {
			return false
		}
	}
	for i := range got.Leaves {
		if got.Leaves[i] != rec.Leaves[i] {
			return false
		}
	}
	return true
}
