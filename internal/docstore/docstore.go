// Package docstore persists the per-document side data PRIX needs during
// the refinement phases (§4.2–§4.4 of the paper): the Numbered Prüfer
// sequence, the Labeled Prüfer sequence (as interned symbols), and the
// (label, postorder) list of leaf nodes. It also owns the symbol dictionary
// shared with the virtual trie and the MaxGap catalog of §5.4.
//
// A document's skeleton — node count, NPS and leaf list — is interned once
// per distinct shape in a resident shape dictionary (shape.go); its record,
// in a heap of pager pages read back through the buffer pool, holds the
// docID, the shape id and the LPS. The dictionary, the shapes, the record
// directory and the catalogs live in page chains of their own (meta.go),
// each flushed only when it changed.
package docstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/pager"
	"repro/internal/vtrie"
)

// Leaf is one leaf node of a document: its postorder number and label.
type Leaf struct {
	Post int32
	Sym  vtrie.Symbol
}

// Record is a document's whole Prüfer image, as the store's readers return
// it. The store keeps NumNodes, NPS and Leaves once per distinct shape, and
// the DocID and LPS per document.
type Record struct {
	DocID uint32
	// NumNodes is n, the node count of the (possibly extended) tree.
	NumNodes int32
	// NPS[i] is the postorder number of the parent of node i+1 (len n-1).
	NPS []int32
	// LPS[i] is the interned label of that parent (len n-1).
	LPS []vtrie.Symbol
	// Leaves lists the document's leaf nodes in postorder.
	Leaves []Leaf
}

// encode appends the record's serialized form to dst: its docID, the id of
// its interned shape and its LPS, all uvarints. NumNodes, NPS and Leaves
// live in the shape.
func (r *Record) encode(dst []byte, shape uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(r.DocID))
	dst = binary.AppendUvarint(dst, uint64(shape))
	dst = binary.AppendUvarint(dst, uint64(len(r.LPS)))
	for _, v := range r.LPS {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst
}

// reset empties the record, keeping the capacity of its slices.
func (r *Record) reset() {
	r.DocID, r.NumNodes = 0, 0
	r.NPS, r.LPS, r.Leaves = r.NPS[:0], r.LPS[:0], r.Leaves[:0]
}

// resize returns s with length n, reusing its backing array when that is
// large enough. A zero n keeps s's own (possibly nil) empty slice, so a fresh
// Record decodes to the same value it always did.
func resize[T any](s []T, n uint64) []T {
	if n <= uint64(cap(s)) {
		return s[:n]
	}
	return make([]T, n)
}

// anyShape is the wantShape of a read with no directory entry to hold the
// record's shape id against (an AS OF image at an explicit Loc).
const anyShape = ^uint32(0)

// decodeRecord parses a record encoding into rec, filling its skeleton from
// the shape dictionary and reusing the capacity of rec's slices; wantShape is
// the shape id the directory holds for it (anyShape for none). Every length
// is checked against the bytes that remain before anything is sized by it.
// On error rec is left empty, never half filled.
func (s *Store) decodeRecord(rec *Record, data []byte, wantShape uint32) error {
	err := s.decodeFields(rec, data, wantShape)
	if err != nil {
		rec.reset()
	}
	return err
}

func (s *Store) decodeFields(rec *Record, data []byte, wantShape uint32) error {
	docID, id, lps, err := splitRecord(data, wantShape)
	if err != nil {
		return err
	}
	rec.DocID = docID
	var (
		sh Shape
		h  shapeHdr
		ok bool
	)
	if id <= math.MaxUint32 {
		s.mu.Lock()
		sh, h, ok = s.shapes.view(uint32(id))
		s.mu.Unlock()
	}
	if !ok {
		return fmt.Errorf("shape %d missing", id)
	}
	sh.fill(rec, int(h.leaves))
	rec.LPS, err = decodeLPS(rec.LPS, lps, h.n)
	return err
}

var errVarintOverflow = errors.New("varint overflows 64 bits")

// uvarint decodes one varint off the front of b and returns the rest.
func uvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n == 0 {
		return 0, b, io.ErrUnexpectedEOF
	}
	if n < 0 {
		return 0, b, errVarintOverflow
	}
	return v, b[n:], nil
}

// Nodes returns n, the node count of the (possibly extended) tree.
func (r *Record) Nodes() int32 { return r.NumNodes }

// ParentOf returns the postorder number of node post's parent, or 0 for the
// root and for numbers outside the tree. It is the NPS lookup N_T[i] of
// Algorithm 2 and of the wildcard chase of §4.5.
func (r *Record) ParentOf(post int32) int32 {
	if post < 1 || int(post) > len(r.NPS) {
		return 0
	}
	return r.NPS[post-1]
}

// LabelOf resolves the label symbol of node post: leaves from the leaf
// list, internal nodes from the first LPS position whose NPS entry is the
// node (Example 6's "search LPS/NPS" step).
func (r *Record) LabelOf(post int32) (vtrie.Symbol, bool) {
	for _, l := range r.Leaves {
		if l.Post == post {
			return l.Sym, true
		}
	}
	for i, v := range r.NPS {
		if v == post {
			return r.LPS[i], true
		}
	}
	return 0, false
}

// dirEntry locates a record in the heap, names its shape and locates its
// resident LPS, so refinement reaches a document's image without reading its
// record.
type dirEntry struct {
	page   pager.PageID
	offset uint16
	length uint32
	shape  uint32
	lps    uint32 // offset in Store.lps; noLPS when not resident (lps.go)
}

// Loc is the exported form of a heap location. The versioning layer keeps
// Locs of superseded record images so AS OF reads can resolve them after
// the directory has been repointed at the current image.
type Loc struct {
	Page pager.PageID
	Off  uint16
	Len  uint32
}

// Zero reports whether the Loc is the zero value (no stored image).
func (l Loc) Zero() bool { return l == Loc{} }

// Store is a collection of records plus catalogs, persisted through a
// buffer pool. Records must be Put in strictly increasing DocID order with
// no gaps (datasets are loaded sequentially).
type Store struct {
	mu     sync.Mutex
	bp     *pager.BufferPool
	dict   *Dict
	dir    []dirEntry
	shapes shapeDict
	// lps is the resident LPS of every current image (lps.go); lpsDead is
	// the bytes of it no directory entry points at.
	lps     []byte
	lpsDead int
	// enc is the encoding of the record being appended.
	enc []byte
	// Catalogs holds named per-symbol integer catalogs; PRIX stores
	// MaxGap here (§5.4), keyed by "maxgap".
	catalogs map[string]map[vtrie.Symbol]int64
	// Stats holds named dataset statistics (Table 2 feed).
	stats map[string]int64
	// blobs holds named opaque payloads persisted with the meta (the MVCC
	// version map lives here, keyed "mvcc").
	blobs map[string][]byte
	// extraRefs, when set, is consulted by PageReferenced so pages holding
	// superseded-but-retained record images are not treated as garbage.
	extraRefs func(pager.PageID) bool
	// quarantined marks documents whose records proved unreadable or
	// corrupt; Get refuses them and queries skip them (degraded mode).
	quarantined map[uint32]bool

	// append cursor
	curPage pager.PageID
	curOff  int

	meta metaState
}

// ErrQuarantined wraps every Get of a quarantined document, so callers can
// classify with errors.Is.
var ErrQuarantined = errors.New("docstore: document quarantined")

// ErrBadRecord wraps records that read fine at the page level but do not
// decode — damage the page checksum cannot see (a stale directory entry, a
// record torn across a partially committed flush). It is permanent, like
// pager.ErrCorrupt.
var ErrBadRecord = errors.New("docstore: bad record")

// NewStore initialises an empty store over an empty page file.
func NewStore(bp *pager.BufferPool, dict *Dict) (*Store, error) {
	if bp.NumPages() != 0 {
		return nil, fmt.Errorf("docstore: NewStore over non-empty file; use Open")
	}
	s := &Store{
		bp: bp, dict: dict,
		catalogs: map[string]map[vtrie.Symbol]int64{},
		stats:    map[string]int64{},
		blobs:    map[string][]byte{},
		curPage:  pager.InvalidPage,
	}
	// Page 0 is reserved for the meta header written by Flush.
	p, err := bp.NewPage()
	if err != nil {
		return nil, err
	}
	copy(p.Data, storeMagic)
	p.Unpin(true)
	return s, nil
}

// Dict returns the symbol dictionary.
func (s *Store) Dict() *Dict { return s.dict }

// BufferPool returns the pool the store performs all I/O through.
func (s *Store) BufferPool() *pager.BufferPool { return s.bp }

// NumDocs returns the number of stored records.
func (s *Store) NumDocs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.dir)
}

// Put appends a record. rec.DocID must equal NumDocs().
func (s *Store) Put(rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(rec.DocID) != len(s.dir) {
		return fmt.Errorf("docstore: Put docID %d out of order (next is %d)", rec.DocID, len(s.dir))
	}
	entry, err := s.appendRecordLocked(rec)
	if err != nil {
		return err
	}
	s.dir = append(s.dir, entry)
	return nil
}

// Rewrite replaces the stored record of an existing document: the new
// encoding is appended to the heap and the directory entry is repointed.
// The old bytes become garbage (their pages, once no live record touches
// them, can be zeroed by the repair sweep). The caller must Flush to make
// the repointed directory durable; until then, readers resolve the old
// entry from the in-memory directory — so Rewrite is only called with the
// repair lock held.
func (s *Store) Rewrite(rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(rec.DocID) >= len(s.dir) {
		return fmt.Errorf("docstore: Rewrite of unknown document %d (have %d)", rec.DocID, len(s.dir))
	}
	entry, err := s.appendRecordLocked(rec)
	if err != nil {
		return err
	}
	s.setEntryLocked(rec.DocID, entry)
	return nil
}

// RewriteKeepOld replaces the stored record like Rewrite, but returns the
// heap location of the superseded image so the versioning layer can keep
// resolving it for AS OF reads. The caller must register the Loc with the
// extra-refs hook (see SetExtraRefs) before the next sweep, or the old
// image's pages become reclaimable garbage.
func (s *Store) RewriteKeepOld(rec *Record) (Loc, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(rec.DocID) >= len(s.dir) {
		return Loc{}, fmt.Errorf("docstore: RewriteKeepOld of unknown document %d (have %d)", rec.DocID, len(s.dir))
	}
	old := s.dir[rec.DocID]
	entry, err := s.appendRecordLocked(rec)
	if err != nil {
		return Loc{}, err
	}
	s.setEntryLocked(rec.DocID, entry)
	return Loc{Page: old.page, Off: old.offset, Len: old.length}, nil
}

// appendRecordLocked writes rec's encoding at the append cursor, spanning
// pages as needed, and returns its directory entry.
func (s *Store) appendRecordLocked(rec *Record) (dirEntry, error) {
	if len(rec.LPS) != len(rec.NPS) {
		return dirEntry{}, fmt.Errorf("docstore: document %d: %d LPS entries for %d NPS entries", rec.DocID, len(rec.LPS), len(rec.NPS))
	}
	shape, err := s.shapes.intern(rec)
	if err != nil {
		return dirEntry{}, fmt.Errorf("docstore: document %d: %w", rec.DocID, err)
	}
	s.enc = rec.encode(s.enc[:0], shape)
	data := s.enc
	_, _, lps, err := splitRecord(data, shape)
	if err != nil {
		return dirEntry{}, err
	}
	// If the open append page is unreadable (corrupt on disk with no cached
	// copy — the very page a repair may be rewriting a record away from),
	// abandon it: records must occupy contiguous pages, so the record starts
	// on a fresh page and the old tail becomes sweepable garbage.
	if s.curPage != pager.InvalidPage && s.curOff != pager.PageDataSize {
		if p, err := s.bp.Get(s.curPage); err != nil {
			s.curPage = pager.InvalidPage
		} else {
			p.Unpin(false)
		}
	}
	// Start a fresh page if none is open or the current one is full.
	if s.curPage == pager.InvalidPage || s.curOff == pager.PageDataSize {
		p, err := s.bp.NewPage()
		if err != nil {
			return dirEntry{}, err
		}
		s.curPage = p.ID
		s.curOff = 0
		p.Unpin(true)
	}
	entry := dirEntry{page: s.curPage, offset: uint16(s.curOff), length: uint32(len(data)), shape: shape}
	for len(data) > 0 {
		if s.curOff == pager.PageDataSize {
			p, err := s.bp.NewPage()
			if err != nil {
				return dirEntry{}, err
			}
			s.curPage = p.ID
			s.curOff = 0
			p.Unpin(true)
		}
		p, err := s.bp.Get(s.curPage)
		if err != nil {
			return dirEntry{}, err
		}
		n := copy(p.Data[s.curOff:], data)
		p.Unpin(true)
		s.curOff += n
		data = data[n:]
	}
	if entry.lps, err = s.appendLPSLocked(lps); err != nil {
		return dirEntry{}, err
	}
	return entry, nil
}

// Get reads the record for docID. Quarantined documents return an error
// wrapping ErrQuarantined without touching the disk.
func (s *Store) Get(docID uint32) (*Record, error) {
	rec := new(Record)
	if err := s.GetInto(rec, docID); err != nil {
		return nil, err
	}
	return rec, nil
}

// GetInto is Get decoding into rec, a record the caller owns: the capacity of
// its NPS, LPS and Leaves is reused, so a caller that needs each record only
// until the next one (Algorithm 2 refining candidate after candidate) reads
// them all through one Record without allocating. On error rec is empty.
func (s *Store) GetInto(rec *Record, docID uint32) error {
	s.mu.Lock()
	if int(docID) >= len(s.dir) {
		s.mu.Unlock()
		return fmt.Errorf("docstore: no record for document %d", docID)
	}
	if s.quarantined[docID] {
		s.mu.Unlock()
		return fmt.Errorf("docstore: document %d: %w", docID, ErrQuarantined)
	}
	e := s.dir[docID]
	s.mu.Unlock()
	return s.readRecord(rec, docID, e)
}

// readRecord decodes the record stored at e into rec.
func (s *Store) readRecord(rec *Record, docID uint32, e dirEntry) error {
	page, off := e.page, int(e.offset)
	if off >= pager.PageDataSize && e.length > 0 {
		return fmt.Errorf("docstore: document %d: directory offset %d out of page: %w", docID, off, ErrBadRecord)
	}
	var err error
	if e.length > 0 && int(e.length) <= pager.PageDataSize-off {
		// The record lies within one page: decode it where it is pinned.
		p, gerr := s.bp.Get(page)
		if gerr != nil {
			return gerr
		}
		err = s.decodeRecord(rec, p.Data[off:off+int(e.length)], e.shape)
		p.Unpin(false)
	} else {
		// A spanning record is copied out; a corrupt directory length must not
		// size that copy beyond what the file can hold.
		if end := uint64(page)*pager.PageDataSize + uint64(off) + uint64(e.length); end > uint64(s.bp.NumPages())*pager.PageDataSize {
			return fmt.Errorf("docstore: document %d: %d bytes from page %d run past the file: %w", docID, e.length, page, ErrBadRecord)
		}
		data := make([]byte, 0, e.length)
		for ; uint32(len(data)) < e.length; page, off = page+1, 0 {
			p, gerr := s.bp.Get(page)
			if gerr != nil {
				return gerr
			}
			avail := min(int(e.length)-len(data), pager.PageDataSize-off)
			data = append(data, p.Data[off:off+avail]...)
			p.Unpin(false)
		}
		err = s.decodeRecord(rec, data, e.shape)
	}
	if err != nil {
		return fmt.Errorf("docstore: document %d: %w: %v", docID, ErrBadRecord, err)
	}
	return nil
}

// GetAtLoc reads a record image at an explicit heap location — a superseded
// version kept by the MVCC layer. Quarantine does not apply: the location is
// independent of the current directory entry, and a decode failure is
// reported to the caller, who degrades the read rather than quarantining the
// (healthy) current image.
func (s *Store) GetAtLoc(docID uint32, loc Loc) (*Record, error) {
	rec := new(Record)
	if err := s.GetAtLocInto(rec, docID, loc); err != nil {
		return nil, err
	}
	return rec, nil
}

// GetAtLocInto is GetAtLoc decoding into the caller's rec, like GetInto.
func (s *Store) GetAtLocInto(rec *Record, docID uint32, loc Loc) error {
	return s.readRecord(rec, docID, dirEntry{page: loc.Page, offset: loc.Off, length: loc.Len, shape: anyShape})
}

// GetAny reads the record for docID ignoring quarantine. The verification
// and repair paths use it to re-attempt the decode Get refuses: a document
// quarantined after a transient misread, or one whose page was repaired
// under it, may in fact be healthy.
func (s *Store) GetAny(docID uint32) (*Record, error) {
	s.mu.Lock()
	if int(docID) >= len(s.dir) {
		s.mu.Unlock()
		return nil, fmt.Errorf("docstore: no record for document %d", docID)
	}
	e := s.dir[docID]
	s.mu.Unlock()
	rec := new(Record)
	if err := s.readRecord(rec, docID, e); err != nil {
		return nil, err
	}
	return rec, nil
}

// Quarantine marks docID as damaged: subsequent Gets fail fast with
// ErrQuarantined and queries skip the document. It is idempotent and takes
// effect immediately, in memory only — reopening the store clears it.
func (s *Store) Quarantine(docID uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.quarantined == nil {
		s.quarantined = make(map[uint32]bool)
	}
	s.quarantined[docID] = true
}

// Unquarantine clears docID's quarantine mark after a successful repair (or
// after verification shows the document was healthy all along).
func (s *Store) Unquarantine(docID uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.quarantined, docID)
}

// IsQuarantined reports whether docID is quarantined.
func (s *Store) IsQuarantined(docID uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined[docID]
}

// Quarantined returns the quarantined docids in ascending order (empty
// when the store is healthy).
func (s *Store) Quarantined() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.quarantined) == 0 {
		return nil
	}
	out := make([]uint32, 0, len(s.quarantined))
	for id := range s.quarantined {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Verify reads and decodes every record, including quarantined ones, and
// returns the per-document errors found (empty when the store is clean).
// prixcheck uses it for offline verification.
func (s *Store) Verify() map[uint32]error {
	s.mu.Lock()
	dir := append([]dirEntry(nil), s.dir...)
	s.mu.Unlock()
	bad := make(map[uint32]error)
	var rec Record
	for id, e := range dir {
		if err := s.readRecord(&rec, uint32(id), e); err != nil {
			bad[uint32(id)] = err
		}
	}
	return bad
}

// lastPage returns the last heap page an entry's bytes touch. Records span
// pages contiguously: bytes [offset, offset+length) laid over PageDataSize-
// sized payloads starting at e.page.
func (e dirEntry) lastPage() pager.PageID {
	if e.length == 0 {
		return e.page
	}
	end := int(e.offset) + int(e.length) - 1
	return e.page + pager.PageID(end/pager.PageDataSize)
}

// DocsOnPage returns, in ascending order, the ids of documents whose record
// bytes touch page id. The scrubber uses it to quarantine exactly the
// documents a failed page checksum implicates.
func (s *Store) DocsOnPage(id pager.PageID) []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []uint32
	for doc, e := range s.dir {
		if e.page <= id && id <= e.lastPage() {
			out = append(out, uint32(doc))
		}
	}
	return out
}

// PageReferenced reports whether page id holds live store data: the header
// page, a meta section's chain, any record's bytes, or the open append
// cursor page. Unreferenced pages are garbage (bytes of rewritten records,
// a chain page replaced because it no longer read) and may be zeroed by a
// repair sweep.
func (s *Store) PageReferenced(id pager.PageID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == 0 || id == s.curPage {
		return true
	}
	for i := range s.meta.sections {
		if slices.Contains(s.meta.sections[i].pages, id) {
			return true
		}
	}
	for _, e := range s.dir {
		if e.page <= id && id <= e.lastPage() {
			return true
		}
	}
	if s.extraRefs != nil {
		extra := s.extraRefs
		// The hook walks versioning state guarded by other locks; release
		// ours so the callback cannot deadlock against a concurrent Get.
		s.mu.Unlock()
		ref := extra(id)
		s.mu.Lock()
		return ref
	}
	return false
}

// SetExtraRefs installs a hook PageReferenced consults for pages it does not
// itself account for (superseded record images kept for AS OF reads). A nil
// fn removes the hook.
func (s *Store) SetExtraRefs(fn func(pager.PageID) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.extraRefs = fn
}

// SetBlob stores a named opaque payload persisted by Flush. A nil or empty
// payload deletes the entry. Like SetCatalog and SetStat it marks the
// catalogs section for the next Flush only when it changes what is stored.
func (s *Store) SetBlob(name string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.blobs[name]
	if ok && bytes.Equal(old, data) || !ok && len(data) == 0 {
		return // unchanged: the section stays clean
	}
	s.meta.smallDirty = true
	if len(data) == 0 {
		delete(s.blobs, name)
		return
	}
	s.blobs[name] = append(old[:0], data...)
}

// Blob returns a named payload (nil if absent). The returned slice is a copy.
func (s *Store) Blob(name string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[name]
	if !ok {
		return nil
	}
	return append([]byte(nil), b...)
}

// SetCatalog stores a named per-symbol catalog (e.g. "maxgap").
func (s *Store) SetCatalog(name string, m map[vtrie.Symbol]int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.catalogs[name]; ok && maps.Equal(old, m) {
		return
	}
	s.meta.smallDirty = true
	cp := make(map[vtrie.Symbol]int64, len(m))
	maps.Copy(cp, m)
	s.catalogs[name] = cp
}

// Catalog returns a named catalog (nil if absent). The returned map must
// not be mutated.
func (s *Store) Catalog(name string) map[vtrie.Symbol]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.catalogs[name]
}

// SetStat records a named dataset statistic.
func (s *Store) SetStat(name string, v int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.stats[name]; ok && old == v {
		return
	}
	s.meta.smallDirty = true
	s.stats[name] = v
}

// Stat returns a named statistic and whether it was set.
func (s *Store) Stat(name string) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.stats[name]
	return v, ok
}
