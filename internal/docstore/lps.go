package docstore

// Resident LPS. A document's current image is its shape (shape.go) and its
// LPS; the store keeps both resident, so refinement — leaf labels, and the
// label of an internal node a regular-Prüfer element leaf lands on — and the
// single-node scan read no record page for a latest image. The LPS of every
// current image sits in one byte arena exactly as its record encodes it (a
// uvarint count, then one uvarint per entry), at dirEntry.lps. Open fills the
// arena in one pass over the record pages, read around the buffer pool; Put,
// Rewrite and RewriteKeepOld append to it. Bytes below len(lps) are never
// rewritten — a re-pointed document's old run becomes dead, and once dead
// bytes are half the arena it is repacked into a fresh array — so a View
// stays valid for as long as its holder keeps it. The record pages stay the
// durable copy: a record that does not read at Open (or at ReloadLPS) leaves
// its document without a resident LPS (noLPS), and ViewOf sends the caller
// to the record.

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/pager"
	"repro/internal/vtrie"
)

// noLPS is the dirEntry.lps of a document whose LPS is not resident.
const noLPS = math.MaxUint32

// ErrNotResident is ViewOf's answer for a document whose record did not read
// when the store was opened: its current image is only on its record page
// (GetInto reads it, and reports why it does not read).
var ErrNotResident = errors.New("docstore: document image not resident")

// View is a document's current image read in place: its resident shape and
// its LPS. It answers Algorithm 2's Nodes, ParentOf and LabelOf like the
// decoded Record.
type View struct {
	Shape
	leaves int
	lps    []byte // count, then the entries, uvarints
}

// LabelOf resolves the label of node post: a leaf's from the shape, an
// internal node's from the LPS entry of its last child, which postorder
// numbers post-1. It is false for numbers outside the tree.
func (v *View) LabelOf(post int32) (vtrie.Symbol, bool) {
	if sym, ok := v.LeafLabel(post); ok {
		return sym, true
	}
	if post < 2 || post > v.n || v.ParentOf(post-1) != post {
		return 0, false
	}
	// Skip the count and the entries of nodes 1 … post-2.
	b := v.lps
	for i := int32(0); i < post-1; i++ {
		_, k := binary.Uvarint(b)
		if k <= 0 {
			return 0, false
		}
		b = b[k:]
	}
	sym, k := binary.Uvarint(b)
	return vtrie.Symbol(sym), k > 0
}

// Fill sets rec to the whole image — NumNodes, NPS, LPS and Leaves, not the
// DocID — reusing the capacity of its slices. An error wraps ErrBadRecord.
func (v *View) Fill(rec *Record) error {
	v.fill(rec, v.leaves)
	n := lpsSpan(v.lps)
	if n < 0 {
		rec.reset()
		return fmt.Errorf("docstore: resident LPS does not parse: %w", ErrBadRecord)
	}
	var err error
	if rec.LPS, err = decodeLPS(rec.LPS, v.lps[:n], v.n); err != nil {
		rec.reset()
		return fmt.Errorf("docstore: resident LPS: %w: %v", ErrBadRecord, err)
	}
	return nil
}

// decodeLPS decodes an LPS encoding, which must hold exactly the n-1 entries
// of an n-node shape and nothing after them, into dst's capacity. The count
// is checked against the bytes that remain before dst is sized by it.
func decodeLPS(dst []vtrie.Symbol, b []byte, n int32) ([]vtrie.Symbol, error) {
	count, b, err := uvarint(b)
	if err != nil {
		return dst[:0], fmt.Errorf("LPS length: %w", err)
	}
	// Each entry is a varint of at least one byte.
	if count != uint64(max(n-1, 0)) || count > uint64(len(b)) {
		return dst[:0], fmt.Errorf("LPS of %d entries for a %d-node shape in %d bytes", count, n, len(b))
	}
	dst = resize(dst, count)
	for i := range dst {
		var v uint64
		if v, b, err = uvarint(b); err != nil {
			return dst[:0], fmt.Errorf("LPS[%d]: %w", i, err)
		}
		dst[i] = vtrie.Symbol(v)
	}
	if len(b) != 0 {
		return dst[:0], fmt.Errorf("%d bytes after the LPS", len(b))
	}
	return dst, nil
}

// lpsSpan returns the length of the LPS encoding at the front of b, -1 when
// it does not parse.
func lpsSpan(b []byte) int {
	count, n := binary.Uvarint(b)
	if n <= 0 || count > uint64(len(b)) {
		return -1
	}
	for i := uint64(0); i < count; i++ {
		_, k := binary.Uvarint(b[n:])
		if k <= 0 {
			return -1
		}
		n += k
	}
	return n
}

// splitRecord parses a record encoding's docID and shape id, holding the
// shape id against wantShape (anyShape: none), and returns its LPS encoding.
func splitRecord(data []byte, wantShape uint32) (docID uint32, shape uint64, lps []byte, err error) {
	v, data, err := uvarint(data)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("docID: %w", err)
	}
	shape, data, err = uvarint(data)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("shape: %w", err)
	}
	if wantShape != anyShape && shape != uint64(wantShape) {
		return 0, 0, nil, fmt.Errorf("shape %d, directory says %d", shape, wantShape)
	}
	return uint32(v), shape, data, nil
}

// ViewOf fills dst with docID's current image without reading a page. A
// quarantined document wraps ErrQuarantined; one whose shape is missing (both
// dictionary copies damaged, or one not yet restored) wraps ErrBadRecord; one
// whose LPS is not resident wraps ErrNotResident.
func (s *Store) ViewOf(docID uint32, dst *View) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(docID) >= len(s.dir) {
		return fmt.Errorf("docstore: no record for document %d", docID)
	}
	if s.quarantined[docID] {
		return fmt.Errorf("docstore: document %d: %w", docID, ErrQuarantined)
	}
	e := s.dir[docID]
	sh, h, ok := s.shapes.view(e.shape)
	if !ok {
		return fmt.Errorf("docstore: document %d: shape %d missing: %w", docID, e.shape, ErrBadRecord)
	}
	if e.lps == noLPS {
		return fmt.Errorf("docstore: document %d: %w", docID, ErrNotResident)
	}
	// The view runs on to the arena's end: LabelOf reads no further than
	// the shape's n-1 entries, whose count is held against the shape here.
	lps := s.lps[e.lps:len(s.lps):len(s.lps)]
	if count, _ := binary.Uvarint(lps); count != uint64(max(h.n-1, 0)) {
		return fmt.Errorf("docstore: document %d: LPS of %d entries for a %d-node shape: %w", docID, count, h.n, ErrBadRecord)
	}
	*dst = View{Shape: sh, leaves: int(h.leaves), lps: lps}
	return nil
}

// appendLPSLocked adds an LPS encoding to the arena and returns its offset.
func (s *Store) appendLPSLocked(lps []byte) (uint32, error) {
	if len(s.lps)+len(lps) >= noLPS {
		return 0, fmt.Errorf("docstore: resident LPS arena full")
	}
	off := uint32(len(s.lps))
	s.lps = append(s.lps, lps...)
	return off, nil
}

// dropLPSLocked marks the run entry e points at dead, and repacks the arena
// once dead runs are half of it.
func (s *Store) dropLPSLocked(e dirEntry) {
	if e.lps == noLPS {
		return
	}
	s.lpsDead += lpsSpan(s.lps[e.lps:])
	if s.lpsDead < 4096 || 2*s.lpsDead < len(s.lps) {
		return
	}
	live := make([]byte, 0, len(s.lps)-s.lpsDead)
	for i := range s.dir {
		if off := s.dir[i].lps; off != noLPS {
			s.dir[i].lps = uint32(len(live))
			live = append(live, s.lps[off:int(off)+lpsSpan(s.lps[off:])]...)
		}
	}
	s.lps, s.lpsDead = live, 0
}

// ReloadLPS re-reads every document's resident LPS from its record, as Open
// does, into a fresh arena (views already handed out keep the old one). A
// record that no longer reads leaves its document to its record page, where
// the next query finds the damage. It is for callers that want the next
// queries to see the disk as a fresh Open would — Index.ResetIOStats's cold
// start.
func (s *Store) ReloadLPS() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loadLPS()
}

// loadLPS fills a fresh arena from the record pages, in heap order: each page
// is read once through pager.BufferPool.GetNoFill and stays pinned while the
// next records lie in it too, so Open leaves no frame behind. A record that
// does not read or decode leaves its document at noLPS.
func (s *Store) loadLPS() {
	s.lps, s.lpsDead = nil, 0
	order := make([]uint32, len(s.dir))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int {
		ea, eb := s.dir[a], s.dir[b]
		return cmp.Or(cmp.Compare(ea.page, eb.page), cmp.Compare(ea.offset, eb.offset))
	})
	var held pager.Page // Data is nil while nothing is pinned
	hold := func(id pager.PageID) bool {
		if held.Data != nil {
			if held.ID == id {
				return true
			}
			held.Unpin(false)
			held = pager.Page{}
		}
		p, err := s.bp.GetNoFill(id)
		if err != nil {
			return false
		}
		held = p
		return true
	}
	filePages := uint64(s.bp.File().NumPages())
	var spill []byte
	for _, id := range order {
		e := &s.dir[id]
		e.lps = noLPS
		page, off, length := e.page, int(e.offset), int(e.length)
		if length == 0 || off >= pager.PageDataSize ||
			uint64(page)*pager.PageDataSize+uint64(off+length) > filePages*pager.PageDataSize {
			continue
		}
		data, ok := spill[:0], true
		if off+length <= pager.PageDataSize {
			if ok = hold(page); ok {
				data = held.Data[off : off+length]
			}
		} else {
			// A record spanning pages is copied out a page at a time; its last
			// page stays held for the records that follow it there.
			for ; ok && len(data) < length; page, off = page+1, 0 {
				if ok = hold(page); ok {
					data = append(data, held.Data[off:off+min(length-len(data), pager.PageDataSize-off)]...)
				}
			}
			spill = data
		}
		if !ok {
			continue
		}
		_, _, lps, err := splitRecord(data, e.shape)
		if err != nil || lpsSpan(lps) != len(lps) {
			continue
		}
		if e.lps, err = s.appendLPSLocked(lps); err != nil {
			e.lps = noLPS
		}
	}
	if held.Data != nil {
		held.Unpin(false)
	}
	s.lps = slices.Clone(s.lps) // no append slack
}
