// Package docstore persists the per-document side data PRIX needs during
// the refinement phases (§4.2–§4.4 of the paper): the Numbered Prüfer
// sequence, the Labeled Prüfer sequence (as interned symbols), and the
// (label, postorder) list of leaf nodes. It also owns the symbol dictionary
// shared with the virtual trie and the MaxGap catalog of §5.4.
//
// Records live in a heap of pager pages and are read back through the
// buffer pool, so refinement I/O is accounted exactly like index I/O.
package docstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/pager"
	"repro/internal/vtrie"
)

// Dict interns strings (element tags and values) as vtrie symbols.
// The zero value is ready to use. Dict is safe for concurrent reads after
// loading; interning is mutex-protected.
type Dict struct {
	mu     sync.Mutex
	byName map[string]vtrie.Symbol
	names  []string
}

// Intern returns the symbol for s, assigning a fresh one on first use.
func (d *Dict) Intern(s string) vtrie.Symbol {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.byName == nil {
		d.byName = make(map[string]vtrie.Symbol)
	}
	if sym, ok := d.byName[s]; ok {
		return sym
	}
	sym := vtrie.Symbol(len(d.names))
	d.byName[s] = sym
	d.names = append(d.names, s)
	return sym
}

// Lookup returns the symbol for s without interning.
func (d *Dict) Lookup(s string) (vtrie.Symbol, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sym, ok := d.byName[s]
	return sym, ok
}

// Name returns the string for a symbol. Unknown symbols (which can come
// out of a corrupt record) yield a synthetic placeholder, not a panic.
func (d *Dict) Name(sym vtrie.Symbol) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(sym) < 0 || int(sym) >= len(d.names) {
		return fmt.Sprintf("<unknown symbol %d>", sym)
	}
	return d.names[sym]
}

// Names returns all interned strings in symbol order. The returned slice
// is a copy.
func (d *Dict) Names() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.names...)
}

// Len returns the number of interned symbols.
func (d *Dict) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.names)
}

// Leaf is one leaf node of a document: its postorder number and label.
type Leaf struct {
	Post int32
	Sym  vtrie.Symbol
}

// Record is the per-document data consulted during refinement.
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

// encode appends the record's serialized form to buf.
func (r *Record) encode(buf *bytes.Buffer) {
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
	}
	put(uint64(r.DocID))
	put(uint64(r.NumNodes))
	put(uint64(len(r.NPS)))
	for _, v := range r.NPS {
		put(uint64(v))
	}
	for _, v := range r.LPS {
		put(uint64(v))
	}
	put(uint64(len(r.Leaves)))
	for _, l := range r.Leaves {
		put(uint64(l.Post))
		put(uint64(l.Sym))
	}
}

func decodeRecord(data []byte) (*Record, error) {
	r := &Record{}
	br := bytes.NewReader(data)
	get := func() (uint64, error) { return binary.ReadUvarint(br) }
	v, err := get()
	if err != nil {
		return nil, fmt.Errorf("docstore: decode docID: %w", err)
	}
	r.DocID = uint32(v)
	if v, err = get(); err != nil {
		return nil, fmt.Errorf("docstore: decode numNodes: %w", err)
	}
	r.NumNodes = int32(v)
	n, err := get()
	if err != nil {
		return nil, fmt.Errorf("docstore: decode len: %w", err)
	}
	// NPS and LPS each hold n varints of at least one byte, so a length
	// that exceeds the remaining bytes is corrupt — reject it before
	// allocating (a flipped length byte must not over-allocate).
	if n > uint64(br.Len()) {
		return nil, fmt.Errorf("docstore: decode len %d exceeds %d remaining bytes", n, br.Len())
	}
	if n > 0 {
		r.NPS = make([]int32, n)
		r.LPS = make([]vtrie.Symbol, n)
	}
	for i := range r.NPS {
		if v, err = get(); err != nil {
			return nil, fmt.Errorf("docstore: decode NPS[%d]: %w", i, err)
		}
		r.NPS[i] = int32(v)
	}
	for i := range r.LPS {
		if v, err = get(); err != nil {
			return nil, fmt.Errorf("docstore: decode LPS[%d]: %w", i, err)
		}
		r.LPS[i] = vtrie.Symbol(v)
	}
	if v, err = get(); err != nil {
		return nil, fmt.Errorf("docstore: decode leaf count: %w", err)
	}
	// Each leaf is two varints, at least two bytes.
	if v > uint64(br.Len())/2 {
		return nil, fmt.Errorf("docstore: decode leaf count %d exceeds %d remaining bytes", v, br.Len())
	}
	if v > 0 {
		r.Leaves = make([]Leaf, v)
	}
	for i := range r.Leaves {
		if v, err = get(); err != nil {
			return nil, fmt.Errorf("docstore: decode leaf post: %w", err)
		}
		r.Leaves[i].Post = int32(v)
		if v, err = get(); err != nil {
			return nil, fmt.Errorf("docstore: decode leaf sym: %w", err)
		}
		r.Leaves[i].Sym = vtrie.Symbol(v)
	}
	return r, nil
}

// EncodeStructure serializes the record's structural half — DocID,
// NumNodes, NPS and the leaf list, everything except the LPS. It is the
// payload of the prix structure sidecar: the one-to-one Prüfer
// correspondence means the NPS determines the tree's shape, and the LPS is
// recoverable from the Trie-Symbol postings, so together the sidecar and
// the trie make a damaged docstore record fully rebuildable.
func (r *Record) EncodeStructure() []byte {
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { buf.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	put(uint64(r.DocID))
	put(uint64(r.NumNodes))
	put(uint64(len(r.NPS)))
	for _, v := range r.NPS {
		put(uint64(v))
	}
	put(uint64(len(r.Leaves)))
	for _, l := range r.Leaves {
		put(uint64(l.Post))
		put(uint64(l.Sym))
	}
	return buf.Bytes()
}

// DecodeStructure parses an EncodeStructure payload. The returned record
// has a nil LPS; the caller recovers it from the trie postings.
func DecodeStructure(data []byte) (*Record, error) {
	r := &Record{}
	br := bytes.NewReader(data)
	get := func() (uint64, error) { return binary.ReadUvarint(br) }
	v, err := get()
	if err != nil {
		return nil, fmt.Errorf("docstore: structure docID: %w", err)
	}
	r.DocID = uint32(v)
	if v, err = get(); err != nil {
		return nil, fmt.Errorf("docstore: structure numNodes: %w", err)
	}
	r.NumNodes = int32(v)
	n, err := get()
	if err != nil {
		return nil, fmt.Errorf("docstore: structure len: %w", err)
	}
	// Same over-allocation guard as decodeRecord: a corrupt length must not
	// allocate more than the payload can hold.
	if n > uint64(br.Len()) {
		return nil, fmt.Errorf("docstore: structure len %d exceeds %d remaining bytes", n, br.Len())
	}
	if n > 0 {
		r.NPS = make([]int32, n)
	}
	for i := range r.NPS {
		if v, err = get(); err != nil {
			return nil, fmt.Errorf("docstore: structure NPS[%d]: %w", i, err)
		}
		r.NPS[i] = int32(v)
	}
	if v, err = get(); err != nil {
		return nil, fmt.Errorf("docstore: structure leaf count: %w", err)
	}
	if v > uint64(br.Len())/2 {
		return nil, fmt.Errorf("docstore: structure leaf count %d exceeds %d remaining bytes", v, br.Len())
	}
	if v > 0 {
		r.Leaves = make([]Leaf, v)
	}
	for i := range r.Leaves {
		if v, err = get(); err != nil {
			return nil, fmt.Errorf("docstore: structure leaf post: %w", err)
		}
		r.Leaves[i].Post = int32(v)
		if v, err = get(); err != nil {
			return nil, fmt.Errorf("docstore: structure leaf sym: %w", err)
		}
		r.Leaves[i].Sym = vtrie.Symbol(v)
	}
	return r, nil
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

// dirEntry locates a record in the heap.
type dirEntry struct {
	page   pager.PageID
	offset uint16
	length uint32
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
	mu   sync.Mutex
	bp   *pager.BufferPool
	dict *Dict
	dir  []dirEntry
	// Catalogs holds named per-symbol integer catalogs; PRIX stores
	// MaxGap here (§5.4), keyed by "maxgap".
	catalogs map[string]map[vtrie.Symbol]int64
	// Stats holds named dataset statistics (Table 2 feed).
	stats map[string]int64
	// blobs holds named opaque payloads persisted with the meta (the MVCC
	// version map lives here, keyed "mvcc"). Stores flushed before blobs
	// existed simply have none — the section is only decoded when present.
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

	// metaFirst/metaLen locate the meta payload written by the last Flush
	// (or found by Open), so PageReferenced can tell live meta pages from
	// orphaned ones.
	metaFirst pager.PageID
	metaLen   int
}

// ErrQuarantined wraps every Get of a quarantined document, so callers can
// classify with errors.Is.
var ErrQuarantined = errors.New("docstore: document quarantined")

// ErrBadRecord wraps records that read fine at the page level but do not
// decode — damage the page checksum cannot see (a stale directory entry, a
// record torn across a partially committed flush). It is permanent, like
// pager.ErrCorrupt.
var ErrBadRecord = errors.New("docstore: bad record")

var storeMagic = []byte("PRIXDOC1")

// NewStore initialises an empty store over an empty page file.
func NewStore(bp *pager.BufferPool, dict *Dict) (*Store, error) {
	if bp.File().NumPages() != 0 {
		return nil, fmt.Errorf("docstore: NewStore over non-empty file; use Open")
	}
	s := &Store{
		bp: bp, dict: dict,
		catalogs:  map[string]map[vtrie.Symbol]int64{},
		stats:     map[string]int64{},
		blobs:     map[string][]byte{},
		curPage:   pager.InvalidPage,
		metaFirst: pager.InvalidPage,
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
	s.dir[rec.DocID] = entry
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
	s.dir[rec.DocID] = entry
	return Loc{Page: old.page, Off: old.offset, Len: old.length}, nil
}

// appendRecordLocked writes rec's encoding at the append cursor, spanning
// pages as needed, and returns its directory entry.
func (s *Store) appendRecordLocked(rec *Record) (dirEntry, error) {
	var buf bytes.Buffer
	rec.encode(&buf)
	data := buf.Bytes()
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
	entry := dirEntry{page: s.curPage, offset: uint16(s.curOff), length: uint32(len(data))}
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
	return entry, nil
}

// Get reads the record for docID. Quarantined documents return an error
// wrapping ErrQuarantined without touching the disk.
func (s *Store) Get(docID uint32) (*Record, error) {
	s.mu.Lock()
	if int(docID) >= len(s.dir) {
		s.mu.Unlock()
		return nil, fmt.Errorf("docstore: no record for document %d", docID)
	}
	if s.quarantined[docID] {
		s.mu.Unlock()
		return nil, fmt.Errorf("docstore: document %d: %w", docID, ErrQuarantined)
	}
	e := s.dir[docID]
	s.mu.Unlock()
	return s.readRecord(docID, e)
}

func (s *Store) readRecord(docID uint32, e dirEntry) (*Record, error) {
	data := make([]byte, 0, e.length)
	page, off := e.page, int(e.offset)
	for uint32(len(data)) < e.length {
		if off >= pager.PageDataSize {
			return nil, fmt.Errorf("docstore: document %d: directory offset %d out of page: %w", docID, off, ErrBadRecord)
		}
		p, err := s.bp.Get(page)
		if err != nil {
			return nil, err
		}
		need := int(e.length) - len(data)
		avail := pager.PageDataSize - off
		if need < avail {
			avail = need
		}
		data = append(data, p.Data[off:off+avail]...)
		p.Unpin(false)
		page++
		off = 0
	}
	rec, err := decodeRecord(data)
	if err != nil {
		return nil, fmt.Errorf("docstore: document %d: %w: %v", docID, ErrBadRecord, err)
	}
	return rec, nil
}

// GetAtLoc reads a record image at an explicit heap location — a superseded
// version kept by the MVCC layer. Quarantine does not apply: the location is
// independent of the current directory entry, and a decode failure is
// reported to the caller, who degrades the read rather than quarantining the
// (healthy) current image.
func (s *Store) GetAtLoc(docID uint32, loc Loc) (*Record, error) {
	return s.readRecord(docID, dirEntry{page: loc.Page, offset: loc.Off, length: loc.Len})
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
	return s.readRecord(docID, e)
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
	for id, e := range dir {
		if _, err := s.readRecord(uint32(id), e); err != nil {
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
// page, the current meta chain, any record's bytes, or the open append
// cursor page. Unreferenced pages are garbage (orphaned meta chains, bytes
// of rewritten records) and may be zeroed by a repair sweep.
func (s *Store) PageReferenced(id pager.PageID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == 0 || id == s.curPage {
		return true
	}
	if s.metaFirst != pager.InvalidPage {
		metaPages := pager.PageID((s.metaLen + pager.PageDataSize - 1) / pager.PageDataSize)
		if s.metaFirst <= id && id < s.metaFirst+metaPages {
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
// payload deletes the entry.
func (s *Store) SetBlob(name string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.blobs == nil {
		s.blobs = map[string][]byte{}
	}
	if len(data) == 0 {
		delete(s.blobs, name)
		return
	}
	s.blobs[name] = append([]byte(nil), data...)
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
	cp := make(map[vtrie.Symbol]int64, len(m))
	for k, v := range m {
		cp[k] = v
	}
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
	s.stats[name] = v
}

// Stat returns a named statistic and whether it was set.
func (s *Store) Stat(name string) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.stats[name]
	return v, ok
}

// meta serialisation -----------------------------------------------------------

// Flush persists the directory, dictionary, catalogs and stats, then writes
// all pages back. The meta payload lives in a run of pages of its own;
// page 0 records where it starts.
func (s *Store) Flush() error {
	s.mu.Lock()
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { buf.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	putStr := func(x string) { put(uint64(len(x))); buf.WriteString(x) }
	// Directory.
	put(uint64(len(s.dir)))
	for _, e := range s.dir {
		put(uint64(e.page))
		put(uint64(e.offset))
		put(uint64(e.length))
	}
	// Dictionary.
	s.dict.mu.Lock()
	put(uint64(len(s.dict.names)))
	for _, n := range s.dict.names {
		putStr(n)
	}
	s.dict.mu.Unlock()
	// Catalogs, sorted for determinism.
	catNames := make([]string, 0, len(s.catalogs))
	for n := range s.catalogs {
		catNames = append(catNames, n)
	}
	sort.Strings(catNames)
	put(uint64(len(catNames)))
	for _, n := range catNames {
		putStr(n)
		m := s.catalogs[n]
		syms := make([]vtrie.Symbol, 0, len(m))
		for k := range m {
			syms = append(syms, k)
		}
		sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
		put(uint64(len(syms)))
		for _, k := range syms {
			put(uint64(k))
			put(uint64(m[k]))
		}
	}
	// Stats.
	statNames := make([]string, 0, len(s.stats))
	for n := range s.stats {
		statNames = append(statNames, n)
	}
	sort.Strings(statNames)
	put(uint64(len(statNames)))
	for _, n := range statNames {
		putStr(n)
		put(uint64(s.stats[n]))
	}
	// Blobs, sorted for determinism. Written only when present so stores
	// without blobs keep the pre-blob meta layout byte-for-byte.
	if len(s.blobs) > 0 {
		blobNames := make([]string, 0, len(s.blobs))
		for n := range s.blobs {
			blobNames = append(blobNames, n)
		}
		sort.Strings(blobNames)
		put(uint64(len(blobNames)))
		for _, n := range blobNames {
			putStr(n)
			put(uint64(len(s.blobs[n])))
			buf.Write(s.blobs[n])
		}
	}
	payload := buf.Bytes()
	// Write the payload over the previous meta region while it still fits —
	// the journal makes the overwrite atomic — and across fresh pages at the
	// tail once it has outgrown it (or a page of it no longer reads), leaving
	// the old region as sweepable garbage. Appending on every flush grew the
	// file by the whole dictionary per commit.
	need := (len(payload) + pager.PageDataSize - 1) / pager.PageDataSize
	first := s.metaFirst
	reuse := first != pager.InvalidPage && need <= (s.metaLen+pager.PageDataSize-1)/pager.PageDataSize
	for i := 0; i < need; i++ {
		var p pager.Page
		var err error
		if reuse {
			if p, err = s.bp.Get(first + pager.PageID(i)); err != nil {
				reuse, i = false, -1 // start over on fresh pages
				continue
			}
		} else if p, err = s.bp.NewPage(); err != nil {
			s.mu.Unlock()
			return err
		} else if i == 0 {
			first = p.ID
		}
		clear(p.Data)
		copy(p.Data, payload[i*pager.PageDataSize:])
		p.Unpin(true)
	}
	// Header in page 0.
	p, err := s.bp.Get(0)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	copy(p.Data, storeMagic)
	binary.LittleEndian.PutUint32(p.Data[8:12], uint32(first))
	binary.LittleEndian.PutUint64(p.Data[12:20], uint64(len(payload)))
	p.Unpin(true)
	s.metaFirst = first
	s.metaLen = len(payload)
	// Fresh meta pages occupy the file tail, so a record appended later that
	// started on the old partially-filled page and spilled would land on
	// non-contiguous pages — and records must span contiguous page ids
	// (readRecord walks page+1). Force the next append onto a fresh page.
	if !reuse {
		s.curPage = pager.InvalidPage
	}
	s.mu.Unlock()
	return s.bp.FlushAll()
}

// Open loads a store previously persisted by Flush.
func Open(bp *pager.BufferPool) (*Store, error) {
	s := &Store{
		bp: bp, dict: &Dict{},
		catalogs:  map[string]map[vtrie.Symbol]int64{},
		stats:     map[string]int64{},
		blobs:     map[string][]byte{},
		curPage:   pager.InvalidPage,
		metaFirst: pager.InvalidPage,
	}
	p, err := bp.Get(0)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(p.Data[:8], storeMagic) {
		p.Unpin(false)
		return nil, fmt.Errorf("docstore: page 0 is not a docstore header")
	}
	first := pager.PageID(binary.LittleEndian.Uint32(p.Data[8:12]))
	length := int(binary.LittleEndian.Uint64(p.Data[12:20]))
	p.Unpin(false)
	if first == pager.InvalidPage {
		return nil, fmt.Errorf("docstore: store was never flushed")
	}
	s.metaFirst = first
	s.metaLen = length
	payload := make([]byte, 0, length)
	for page := first; len(payload) < length; page++ {
		p, err := bp.Get(page)
		if err != nil {
			return nil, err
		}
		need := length - len(payload)
		if need > pager.PageDataSize {
			need = pager.PageDataSize
		}
		payload = append(payload, p.Data[:need]...)
		p.Unpin(false)
	}
	br := bytes.NewReader(payload)
	get := func() (uint64, error) { return binary.ReadUvarint(br) }
	getStr := func() (string, error) {
		n, err := get()
		if err != nil {
			return "", err
		}
		if n > uint64(br.Len()) {
			return "", fmt.Errorf("docstore: string of %d bytes exceeds %d remaining", n, br.Len())
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	n, err := get()
	if err != nil {
		return nil, fmt.Errorf("docstore: meta: %w", err)
	}
	// Every directory entry is three varints, at least three bytes.
	if n > uint64(br.Len())/3 {
		return nil, fmt.Errorf("docstore: meta directory of %d entries exceeds %d remaining bytes", n, br.Len())
	}
	s.dir = make([]dirEntry, n)
	for i := range s.dir {
		pg, err1 := get()
		of, err2 := get()
		ln, err3 := get()
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("docstore: meta directory truncated at %d", i)
		}
		s.dir[i] = dirEntry{page: pager.PageID(pg), offset: uint16(of), length: uint32(ln)}
	}
	if n, err = get(); err != nil {
		return nil, fmt.Errorf("docstore: meta dict: %w", err)
	}
	for i := uint64(0); i < n; i++ {
		name, err := getStr()
		if err != nil {
			return nil, fmt.Errorf("docstore: meta dict entry %d: %w", i, err)
		}
		s.dict.Intern(name)
	}
	if n, err = get(); err != nil {
		return nil, fmt.Errorf("docstore: meta catalogs: %w", err)
	}
	for i := uint64(0); i < n; i++ {
		name, err := getStr()
		if err != nil {
			return nil, err
		}
		sz, err := get()
		if err != nil {
			return nil, err
		}
		if sz > uint64(br.Len())/2 {
			return nil, fmt.Errorf("docstore: catalog %s of %d entries exceeds %d remaining bytes", name, sz, br.Len())
		}
		m := make(map[vtrie.Symbol]int64, sz)
		for j := uint64(0); j < sz; j++ {
			k, err1 := get()
			v, err2 := get()
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("docstore: catalog %s truncated", name)
			}
			m[vtrie.Symbol(k)] = int64(v)
		}
		s.catalogs[name] = m
	}
	if n, err = get(); err != nil {
		return nil, fmt.Errorf("docstore: meta stats: %w", err)
	}
	for i := uint64(0); i < n; i++ {
		name, err := getStr()
		if err != nil {
			return nil, err
		}
		v, err := get()
		if err != nil {
			return nil, err
		}
		s.stats[name] = int64(v)
	}
	// Blob section — present only in stores flushed by versions that had
	// blobs to write, so decode it iff bytes remain.
	if br.Len() > 0 {
		if n, err = get(); err != nil {
			return nil, fmt.Errorf("docstore: meta blobs: %w", err)
		}
		for i := uint64(0); i < n; i++ {
			name, err := getStr()
			if err != nil {
				return nil, fmt.Errorf("docstore: meta blob %d name: %w", i, err)
			}
			sz, err := get()
			if err != nil {
				return nil, fmt.Errorf("docstore: meta blob %s size: %w", name, err)
			}
			if sz > uint64(br.Len()) {
				return nil, fmt.Errorf("docstore: blob %s of %d bytes exceeds %d remaining", name, sz, br.Len())
			}
			b := make([]byte, sz)
			if _, err := io.ReadFull(br, b); err != nil {
				return nil, fmt.Errorf("docstore: meta blob %s: %w", name, err)
			}
			s.blobs[name] = b
		}
	}
	return s, nil
}
