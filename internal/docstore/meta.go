package docstore

// Meta layout. Everything a store keeps beside its records lives in four
// sections, each a chain of pages of its own reached from page 0:
//
//   - the dictionary, a stream of length-prefixed names in symbol order. It
//     only ever grows at its end: a flush writes the names interned since the
//     last one after the persisted tail and touches no earlier page;
//   - the shapes, a stream of shape encodings (shape.go) in id order that
//     grows at its end the same way. Each page's payload starts with the
//     offset and id of the first shape that begins in it (0xffff: none), so
//     a load resumes after an unreadable page and loses only the shapes that
//     touch it; a shape recorded as lost is written as node count 0;
//   - the directory, one independent block per page (a count, then that many
//     varint (page, offset, length, shape) entries in document order).
//     Re-pointing a document re-encodes its block alone; the slack a block is
//     born with absorbs entries that grow wider;
//   - catalogs, stats and blobs, one small stream re-encoded whenever a
//     setter changed something.
//
// A chain page starts with the id of the next one (0 ends the chain: page 0
// is the header and never a member) followed by payload. Page 0 holds the
// magic and, per section, head page, chain length and stream length, then the
// document, name and shape counts. A flush writes a section only if it is dirty,
// encodes it through one page of scratch into its pinned pages, and marks a
// page dirty only when its bytes differ — so the pool's journaled commit
// covers the pages a mutation changed and no others. A section that outgrows
// its chain takes one more page at the file's tail.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/pager"
	"repro/internal/vtrie"
)

const (
	secDict = iota
	secShapes
	secDir
	secSmall
	numSections
)

var sectionNames = [numSections]string{"dictionary", "shapes", "directory", "catalogs"}

const (
	chainHeader = 4 // next-page pointer
	chainCap    = pager.PageDataSize - chainHeader
	// dirSlack is the room a directory block is laid out short of full, so
	// that entries re-pointed later (a page number or length one varint byte
	// wider) still fit their page.
	dirSlack     = 64
	dirBlockHead = 2                         // entry count
	maxEntryLen  = 4 * binary.MaxVarintLen32 // page, offset, length, shape
	headerLen    = 8 + 16*numSections + 12
	// shapeHead is the resync header leading each shapes page: the offset of
	// the first shape that begins in the page and its id.
	shapeHead    = 6
	noShapeStart = 0xffff
)

var (
	storeMagic     = []byte("PRIXDOC3")
	oldStoreMagics = [][]byte{[]byte("PRIXDOC1"), []byte("PRIXDOC2")}
)

// ErrOldLayout reports a store file written before the shape dictionary:
// records carrying their own NPS and leaves (magic PRIXDOC2), or the meta as
// one re-encoded run of pages (PRIXDOC1). There is no reader for either.
var ErrOldLayout = errors.New("docstore: file uses a layout from before the shape dictionary")

// section is one meta page chain.
type section struct {
	pages []pager.PageID // head first
	// length is the section's stream length in bytes; for the directory,
	// the number of blocks (a re-layout can leave the chain longer than that).
	length int
}

// metaState is what Flush knows about the persisted meta: where it lives and
// which parts of it the in-memory state has moved away from. "Persisted" means
// written into the pool's pages; FlushAll makes them durable, and keeps them
// dirty for a retry when it fails.
type metaState struct {
	sections [numSections]section
	// dictFlushed is the number of dictionary names the dictionary section
	// holds, shapesFlushed the number of shapes the shapes section holds (0
	// after a restore: the section is rewritten from its start).
	dictFlushed   int
	shapesFlushed int
	// blockStart[b] is the first document of directory block b (the page at
	// chain position b); the last block ends at dirFlushed. Entries at and
	// beyond dirFlushed are in no block yet. blockDirty marks blocks holding a
	// re-pointed entry.
	blockStart []int
	blockDirty []bool
	dirFlushed int
	smallDirty bool
	// scratch is the page a section is encoded through, allocated by the first
	// Flush.
	scratch *[chainCap]byte
}

// setEntryLocked re-points a document's directory entry.
func (s *Store) setEntryLocked(docID uint32, e dirEntry) {
	old := s.dir[docID]
	s.dir[docID] = e
	s.dropLPSLocked(old)
	m := &s.meta
	if int(docID) < m.dirFlushed {
		b := sort.SearchInts(m.blockStart, int(docID)+1) - 1
		m.blockDirty[b] = true
	}
}

// Flush persists the directory, dictionary, catalogs, stats and blobs — the
// sections that changed since the last one — then writes all dirty pages back
// through the pool's commit.
func (s *Store) Flush() error {
	s.mu.Lock()
	err := s.flushMetaLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.bp.FlushAll()
}

// flushMetaLocked brings the pool's meta pages up to date. Every step can be
// repeated: what a failed flush already wrote is written again, to the same
// pages.
func (s *Store) flushMetaLocked() error {
	m := &s.meta
	if m.scratch == nil {
		m.scratch = new([chainCap]byte)
	}
	if err := s.flushDictLocked(); err != nil {
		return err
	}
	if err := s.flushShapesLocked(); err != nil {
		return err
	}
	if err := s.flushDirLocked(); err != nil {
		return err
	}
	if m.smallDirty || len(m.sections[secSmall].pages) == 0 {
		if err := s.flushSmallLocked(); err != nil {
			return err
		}
		m.smallDirty = false
	}
	return s.writeHeaderLocked()
}

func (s *Store) writeHeaderLocked() error {
	var hdr [headerLen]byte
	copy(hdr[:8], storeMagic)
	at := 8
	for i := range s.meta.sections {
		sec := &s.meta.sections[i]
		binary.LittleEndian.PutUint32(hdr[at:], uint32(sec.pages[0]))
		binary.LittleEndian.PutUint32(hdr[at+4:], uint32(len(sec.pages)))
		binary.LittleEndian.PutUint64(hdr[at+8:], uint64(sec.length))
		at += 16
	}
	binary.LittleEndian.PutUint32(hdr[at:], uint32(s.meta.dirFlushed))
	binary.LittleEndian.PutUint32(hdr[at+4:], uint32(s.meta.dictFlushed))
	binary.LittleEndian.PutUint32(hdr[at+8:], uint32(s.meta.shapesFlushed))
	p, err := s.bp.Get(0)
	if err != nil {
		return err
	}
	p.Unpin(update(p.Data[:headerLen], hdr[:]))
	return nil
}

// update makes dst equal to src and reports whether that changed it: a page
// is dirtied only by a write that alters it.
func update(dst, src []byte) bool {
	if bytes.Equal(dst, src) {
		return false
	}
	copy(dst, src)
	return true
}

// chain pages -------------------------------------------------------------------

// chainPageLocked pins the page at position i of sec's chain for a writer
// about to replace its whole payload. Position len(pages) extends the chain by
// a fresh page; so does a page that no longer reads, which the fresh page
// replaces in the chain (the old one becomes sweepable garbage).
func (s *Store) chainPageLocked(sec *section, i int) (pager.Page, error) {
	if i < len(sec.pages) {
		if p, err := s.bp.Get(sec.pages[i]); err == nil {
			return p, nil
		}
	}
	p, err := s.bp.NewPage()
	if err != nil {
		return pager.Page{}, err
	}
	if i > 0 {
		prev, err := s.bp.Get(sec.pages[i-1])
		if err != nil {
			p.Unpin(false)
			return pager.Page{}, err
		}
		binary.LittleEndian.PutUint32(prev.Data, uint32(p.ID))
		prev.Unpin(true)
	}
	if i < len(sec.pages) {
		if i+1 < len(sec.pages) {
			binary.LittleEndian.PutUint32(p.Data, uint32(sec.pages[i+1]))
		}
		sec.pages[i] = p.ID
	} else {
		sec.pages = append(sec.pages, p.ID)
	}
	// Records span contiguous page ids, and this page now sits behind the
	// open append page: the next record starts on a fresh one.
	s.curPage = pager.InvalidPage
	return p, nil
}

// writeChainPageLocked makes payload (chainCap bytes) the content of the page
// at position i of sec's chain, dirtying the page only if that changes it.
func (s *Store) writeChainPageLocked(sec *section, i int, payload []byte) error {
	p, err := s.chainPageLocked(sec, i)
	if err != nil {
		return err
	}
	p.Unpin(update(p.Data[chainHeader:], payload))
	return nil
}

// chainWriter encodes a section's stream through the store's scratch page
// into the section's chain, a page at a time.
type chainWriter struct {
	s    *Store
	sec  *section
	buf  *[chainCap]byte
	n    int // bytes of buf filled
	page int // chain position buf is written to next
	err  error
	// heads makes every page start with a shapes resync header.
	heads bool
}

// streamWriterLocked returns a writer positioned at byte offset at of sec's
// stream; bytes before at stay as they are.
func (s *Store) streamWriterLocked(sec *section, at int) (chainWriter, error) {
	w := chainWriter{s: s, sec: sec, buf: s.meta.scratch, page: at / chainCap, n: at % chainCap}
	if w.n > 0 {
		p, err := s.bp.Get(sec.pages[w.page])
		if err != nil {
			return w, err
		}
		copy(w.buf[:w.n], p.Data[chainHeader:])
		p.Unpin(false)
	}
	return w, nil
}

func (w *chainWriter) flushPage() {
	clear(w.buf[w.n:])
	w.err = w.s.writeChainPageLocked(w.sec, w.page, w.buf[:])
	w.page++
	w.n = 0
}

// head starts a fresh page of a headed stream with its resync header.
func (w *chainWriter) head() {
	if w.heads && w.n == 0 {
		binary.LittleEndian.PutUint16(w.buf[:], noShapeStart)
		binary.LittleEndian.PutUint32(w.buf[2:], 0)
		w.n = shapeHead
	}
}

// beginShape marks shape id as starting at the write position, if it is the
// first shape to begin in the page.
func (w *chainWriter) beginShape(id uint32) {
	w.head()
	if binary.LittleEndian.Uint16(w.buf[:]) == noShapeStart {
		binary.LittleEndian.PutUint16(w.buf[:], uint16(w.n))
		binary.LittleEndian.PutUint32(w.buf[2:], id)
	}
}

func chainWrite[T string | []byte](w *chainWriter, p T) {
	for len(p) > 0 && w.err == nil {
		w.head()
		c := copy(w.buf[w.n:], p)
		w.n += c
		p = p[c:]
		if w.n == chainCap {
			w.flushPage()
		}
	}
}

func (w *chainWriter) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	chainWrite(w, tmp[:binary.PutUvarint(tmp[:], v)])
}

// str writes a length-prefixed string.
func (w *chainWriter) str(x string) {
	w.uvarint(uint64(len(x)))
	chainWrite(w, x)
}

// finish writes the last, partly filled page (a section always has a head
// page, even when its stream is empty) and records the stream's length.
func (w *chainWriter) finish() error {
	length := w.page*chainCap + w.n
	if w.n > 0 || len(w.sec.pages) == 0 {
		w.flushPage()
	}
	if w.err == nil {
		w.sec.length = length
	}
	return w.err
}

// dictionary --------------------------------------------------------------------

func (s *Store) flushDictLocked() error {
	d := s.dict
	d.mu.Lock()
	defer d.mu.Unlock()
	m := &s.meta
	sec := &m.sections[secDict]
	if len(d.ends) == m.dictFlushed && len(sec.pages) > 0 {
		return nil
	}
	w, err := s.streamWriterLocked(sec, sec.length)
	if err != nil {
		return err
	}
	for sym := m.dictFlushed; sym < len(d.ends); sym++ {
		w.str(d.nameLocked(uint32(sym)))
	}
	if err := w.finish(); err != nil {
		return err
	}
	m.dictFlushed = len(d.ends)
	return nil
}

func (s *Store) loadDict(numNames uint32) error {
	sec := &s.meta.sections[secDict]
	// Every name is a uvarint length and its bytes, so the section holds at
	// most length-numNames name bytes — exactly that when every name is
	// shorter than 128 bytes. Sizing the dictionary up front (against a
	// header that cannot claim more names than the section has bytes) loads
	// it with no growth and no slack.
	if uint64(numNames) > uint64(sec.length) {
		return fmt.Errorf("docstore: meta dict: %d names in %d bytes", numNames, sec.length)
	}
	s.dict.reserve(int(numNames), sec.length-int(numNames))
	r := chainReader{bp: s.bp, pages: sec.pages, left: sec.length}
	defer r.close()
	var name []byte
	for i := uint32(0); i < numNames; i++ {
		n, err := binary.ReadUvarint(&r)
		if err != nil {
			return fmt.Errorf("docstore: meta dict entry %d: %w", i, err)
		}
		if n > uint64(r.left) {
			return fmt.Errorf("docstore: meta dict entry %d of %d bytes exceeds %d remaining", i, n, r.left)
		}
		name = slices.Grow(name[:0], int(n))[:n]
		if _, err := io.ReadFull(&r, name); err != nil {
			return fmt.Errorf("docstore: meta dict entry %d: %w", i, err)
		}
		if int(s.dict.InternBytes(name)) != int(i) {
			return fmt.Errorf("docstore: meta dict entry %d repeats an earlier name", i)
		}
	}
	if r.left != 0 {
		return fmt.Errorf("docstore: meta dict: %d bytes beyond its %d names", r.left, numNames)
	}
	s.meta.dictFlushed = int(numNames)
	return nil
}

// shapes ------------------------------------------------------------------------

func (s *Store) flushShapesLocked() error {
	m := &s.meta
	d := &s.shapes
	sec := &m.sections[secShapes]
	if len(d.hdrs) == m.shapesFlushed && len(sec.pages) > 0 {
		return nil
	}
	at := sec.length
	if m.shapesFlushed == 0 {
		at = 0
	}
	w, err := s.streamWriterLocked(sec, at)
	if err != nil {
		return err
	}
	w.heads = true
	for id := m.shapesFlushed; id < len(d.hdrs); id++ {
		w.beginShape(uint32(id))
		if sh, h, ok := d.view(uint32(id)); ok {
			s.enc = appendShape(s.enc[:0], &sh, int(h.leaves))
		} else {
			s.enc = append(s.enc[:0], 0, 0) // lost: node count 0, no leaves
		}
		chainWrite(&w, s.enc)
	}
	if err := w.finish(); err != nil {
		return err
	}
	m.shapesFlushed = len(d.hdrs)
	return nil
}

// loadShapes reads count shapes off the shapes section. A page that does not
// read loses the shapes that touch it (all that follow, if the chain ends
// there), and so does a shape that does not decode (with the rest of its run
// of pages): each is left missing, for the forest's copy to restore. Open
// fails only on a count the section cannot hold.
func (s *Store) loadShapes(count uint32) error {
	sec := &s.meta.sections[secShapes]
	d := &s.shapes
	// Every shape is at least two varints.
	if uint64(count) > uint64(sec.length)/2 {
		return fmt.Errorf("docstore: meta shapes: %d shapes in %d bytes", count, sec.length)
	}
	d.hdrs = make([]shapeHdr, count)
	for i := range d.hdrs {
		d.hdrs[i].n = missingShape
	}
	d.missing = int(count)
	var (
		rec  Record
		run  []byte // stream bytes from a shape boundary on, over readable pages
		next uint32 // id of the shape run starts with
		lost = false
	)
	parse := func() {
		for len(run) > 0 && next < count {
			rest, err := decodeShape(run, &rec)
			if err != nil || (rec.NumNodes > 0 && d.restore(next, &rec) != nil) {
				break
			}
			run, next = rest, next+1
		}
		run = run[:0]
	}
	left := sec.length
	for _, id := range sec.pages {
		if left == 0 {
			break
		}
		take := min(left, chainCap)
		left -= take
		// The shapes are held decoded: their pages are not kept as frames.
		p, err := s.bp.GetNoFill(id)
		if err != nil || take < shapeHead {
			if err == nil {
				p.Unpin(false)
			}
			parse()
			lost = true
			continue
		}
		payload := p.Data[chainHeader : chainHeader+take]
		first, firstID := int(binary.LittleEndian.Uint16(payload)), binary.LittleEndian.Uint32(payload[2:])
		switch {
		case !lost:
			run = append(run, payload[shapeHead:]...)
		case first != noShapeStart && first >= shapeHead && first < take && firstID >= next && firstID < count:
			next, lost = firstID, false
			run = append(run, payload[first:]...)
		}
		p.Unpin(false)
	}
	parse()
	d.trim()
	// With shapes lost, the next flush rewrites the section from the resident
	// dictionary (the chain past an unreadable page is unknown).
	if d.missing == 0 {
		s.meta.shapesFlushed = int(count)
	}
	return nil
}

// directory ---------------------------------------------------------------------

func appendEntry(dst []byte, e dirEntry) []byte {
	dst = binary.AppendUvarint(dst, uint64(e.page))
	dst = binary.AppendUvarint(dst, uint64(e.offset))
	dst = binary.AppendUvarint(dst, uint64(e.length))
	return binary.AppendUvarint(dst, uint64(e.shape))
}

// encodeDirBlock encodes as many of entries as fit limit bytes into buf,
// zero-padded, and returns how many that is and the bytes they take.
func encodeDirBlock(buf *[chainCap]byte, entries []dirEntry, limit int) (n, size int) {
	var tmp [maxEntryLen]byte
	size = dirBlockHead
	for _, e := range entries {
		enc := appendEntry(tmp[:0], e)
		if size+len(enc) > limit {
			break
		}
		size += copy(buf[size:], enc)
		n++
	}
	binary.LittleEndian.PutUint16(buf[:], uint16(n))
	clear(buf[size:])
	return n, size
}

// decodeDirBlock appends the entries of one directory page to dir.
func decodeDirBlock(dir []dirEntry, data []byte) ([]dirEntry, error) {
	n := int(binary.LittleEndian.Uint16(data))
	data = data[dirBlockHead:]
	// Every entry is four varints, at least four bytes.
	if n > len(data)/4 {
		return dir, fmt.Errorf("block of %d entries exceeds its page", n)
	}
	for i := 0; i < n; i++ {
		var f [4]uint64
		for j := range f {
			var err error
			if f[j], data, err = uvarint(data); err != nil {
				return dir, fmt.Errorf("entry %d: %w", i, err)
			}
		}
		dir = append(dir, dirEntry{page: pager.PageID(f[0]), offset: uint16(f[1]), length: uint32(f[2]), shape: uint32(f[3])})
	}
	return dir, nil
}

func (s *Store) flushDirLocked() error {
	m := &s.meta
	sec := &m.sections[secDir]
	last := len(m.blockStart) - 1
	// Every block but the last holds a fixed run of documents.
	for b := 0; b < last; b++ {
		if !m.blockDirty[b] {
			continue
		}
		run := s.dir[m.blockStart[b]:m.blockStart[b+1]]
		if n, _ := encodeDirBlock(m.scratch, run, chainCap); n < len(run) {
			// Wider entries have used the block's slack up: lay the
			// directory out afresh from here on.
			return s.reblockDirLocked(b)
		}
		if err := s.writeChainPageLocked(sec, b, m.scratch[:]); err != nil {
			return err
		}
		m.blockDirty[b] = false
	}
	if last < 0 || m.blockDirty[last] || m.dirFlushed < len(s.dir) {
		return s.reblockDirLocked(max(last, 0))
	}
	return nil
}

// reblockDirLocked lays the directory out from block b's first document on,
// over the pages at chain positions b, b+1, …, each filled to dirSlack short
// of capacity.
func (s *Store) reblockDirLocked(b int) error {
	m := &s.meta
	lo := 0
	if b < len(m.blockStart) {
		lo = m.blockStart[b]
	}
	m.blockStart, m.blockDirty = m.blockStart[:b], m.blockDirty[:b]
	// dirFlushed trails the layout, so a retry after a failed write resumes
	// from the last block that was laid out.
	m.dirFlushed = lo
	for {
		n, _ := encodeDirBlock(m.scratch, s.dir[lo:], chainCap-dirSlack)
		if err := s.writeChainPageLocked(&m.sections[secDir], len(m.blockStart), m.scratch[:]); err != nil {
			return err
		}
		m.blockStart = append(m.blockStart, lo)
		m.blockDirty = append(m.blockDirty, false)
		lo += n
		m.dirFlushed = lo
		if lo == len(s.dir) {
			m.sections[secDir].length = len(m.blockStart)
			return nil
		}
	}
}

func (s *Store) loadDir(numDocs uint32) error {
	m := &s.meta
	sec := &m.sections[secDir]
	// The count comes from disk: size the directory by it only as far as the
	// chain could hold.
	s.dir = make([]dirEntry, 0, min(int(numDocs), len(sec.pages)*(chainCap/4)))
	if sec.length == 0 {
		return fmt.Errorf("docstore: meta directory has no block")
	}
	for b, id := range sec.pages[:sec.length] {
		p, err := s.bp.Get(id)
		if err != nil {
			return err
		}
		m.blockStart = append(m.blockStart, len(s.dir))
		s.dir, err = decodeDirBlock(s.dir, p.Data[chainHeader:])
		p.Unpin(false)
		if err != nil {
			return fmt.Errorf("docstore: meta directory page %d: %w", b, err)
		}
	}
	if len(s.dir) != int(numDocs) {
		return fmt.Errorf("docstore: meta directory holds %d entries, header says %d", len(s.dir), numDocs)
	}
	m.blockDirty = make([]bool, len(m.blockStart))
	m.dirFlushed = len(s.dir)
	return nil
}

// catalogs, stats, blobs --------------------------------------------------------

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (s *Store) flushSmallLocked() error {
	w, err := s.streamWriterLocked(&s.meta.sections[secSmall], 0)
	if err != nil {
		return err
	}
	// Everything sorted, for determinism.
	w.uvarint(uint64(len(s.catalogs)))
	for _, name := range sortedKeys(s.catalogs) {
		w.str(name)
		m := s.catalogs[name]
		syms := make([]vtrie.Symbol, 0, len(m))
		for k := range m {
			syms = append(syms, k)
		}
		slices.Sort(syms)
		w.uvarint(uint64(len(syms)))
		for _, k := range syms {
			w.uvarint(uint64(k))
			w.uvarint(uint64(m[k]))
		}
	}
	w.uvarint(uint64(len(s.stats)))
	for _, name := range sortedKeys(s.stats) {
		w.str(name)
		w.uvarint(uint64(s.stats[name]))
	}
	w.uvarint(uint64(len(s.blobs)))
	for _, name := range sortedKeys(s.blobs) {
		w.str(name)
		w.uvarint(uint64(len(s.blobs[name])))
		chainWrite(&w, s.blobs[name])
	}
	return w.finish()
}

func (s *Store) loadSmall() error {
	sec := &s.meta.sections[secSmall]
	r := chainReader{bp: s.bp, pages: sec.pages, left: sec.length}
	defer r.close()
	get := func() (uint64, error) { return binary.ReadUvarint(&r) }
	getBytes := func() ([]byte, error) {
		n, err := get()
		if err != nil {
			return nil, err
		}
		if n > uint64(r.left) {
			return nil, fmt.Errorf("%d bytes exceed %d remaining", n, r.left)
		}
		b := make([]byte, n)
		_, err = io.ReadFull(&r, b)
		return b, err
	}
	n, err := get()
	if err != nil {
		return fmt.Errorf("docstore: meta catalogs: %w", err)
	}
	for i := uint64(0); i < n; i++ {
		name, err := getBytes()
		if err != nil {
			return fmt.Errorf("docstore: meta catalog %d name: %w", i, err)
		}
		sz, err := get()
		if err != nil {
			return fmt.Errorf("docstore: meta catalog %s: %w", name, err)
		}
		if sz > uint64(r.left)/2 {
			return fmt.Errorf("docstore: catalog %s of %d entries exceeds %d remaining bytes", name, sz, r.left)
		}
		m := make(map[vtrie.Symbol]int64, sz)
		for j := uint64(0); j < sz; j++ {
			k, err1 := get()
			v, err2 := get()
			if err1 != nil || err2 != nil {
				return fmt.Errorf("docstore: catalog %s truncated", name)
			}
			m[vtrie.Symbol(k)] = int64(v)
		}
		s.catalogs[string(name)] = m
	}
	if n, err = get(); err != nil {
		return fmt.Errorf("docstore: meta stats: %w", err)
	}
	for i := uint64(0); i < n; i++ {
		name, err := getBytes()
		if err != nil {
			return fmt.Errorf("docstore: meta stat %d name: %w", i, err)
		}
		v, err := get()
		if err != nil {
			return fmt.Errorf("docstore: meta stat %s: %w", name, err)
		}
		s.stats[string(name)] = int64(v)
	}
	if n, err = get(); err != nil {
		return fmt.Errorf("docstore: meta blobs: %w", err)
	}
	for i := uint64(0); i < n; i++ {
		name, err := getBytes()
		if err != nil {
			return fmt.Errorf("docstore: meta blob %d name: %w", i, err)
		}
		b, err := getBytes()
		if err != nil {
			return fmt.Errorf("docstore: meta blob %s: %w", name, err)
		}
		s.blobs[string(name)] = b
	}
	if r.left != 0 {
		return fmt.Errorf("docstore: meta catalogs: %d trailing bytes", r.left)
	}
	return nil
}

// open --------------------------------------------------------------------------

// chainReader reads a section's stream off its chain, keeping the page it is
// in pinned between calls. It is an io.Reader and an io.ByteReader.
type chainReader struct {
	bp     *pager.BufferPool
	pages  []pager.PageID
	left   int // unread bytes of the stream
	idx    int // chain position of cur
	off    int // read offset in cur's payload
	cur    pager.Page
	pinned bool
}

// window returns the unread stream bytes of the current page.
func (r *chainReader) window() ([]byte, error) {
	if r.left == 0 {
		return nil, io.EOF
	}
	if r.pinned && r.off == chainCap {
		r.close()
		r.idx++
		r.off = 0
	}
	if !r.pinned {
		p, err := r.bp.Get(r.pages[r.idx])
		if err != nil {
			return nil, err
		}
		r.cur, r.pinned = p, true
	}
	w := r.cur.Data[chainHeader+r.off:]
	return w[:min(len(w), r.left)], nil
}

func (r *chainReader) Read(p []byte) (int, error) {
	w, err := r.window()
	if err != nil {
		return 0, err
	}
	n := copy(p, w)
	r.off += n
	r.left -= n
	return n, nil
}

func (r *chainReader) ReadByte() (byte, error) {
	w, err := r.window()
	if err != nil {
		return 0, err
	}
	r.off++
	r.left--
	return w[0], nil
}

func (r *chainReader) close() {
	if r.pinned {
		r.cur.Unpin(false)
		r.pinned = false
	}
}

// walkChain follows n next-pointers from head. The pointers come from disk:
// every id must lie inside the file and the chain must end where the header
// says, so the walk is bounded whatever the pages hold. With lenient set, a
// page that does not read ends the walk there instead of failing it: the
// chain is returned up to and including that page.
func walkChain(bp *pager.BufferPool, head pager.PageID, n, filePages uint32, lenient bool) ([]pager.PageID, error) {
	pages := make([]pager.PageID, 0, n)
	id := head
	for i := uint32(0); i < n; i++ {
		if id == 0 || uint32(id) >= filePages {
			return nil, fmt.Errorf("page %d of %d is %d, outside the file's %d pages", i, n, id, filePages)
		}
		get := bp.Get
		if lenient {
			get = bp.GetNoFill // loadShapes decodes these pages once, no frame kept
		}
		p, err := get(id)
		if err != nil && lenient && errors.Is(err, pager.ErrCorrupt) {
			return append(pages, id), nil
		}
		if err != nil {
			return nil, err
		}
		pages = append(pages, id)
		id = pager.PageID(binary.LittleEndian.Uint32(p.Data))
		p.Unpin(false)
	}
	if id != 0 {
		return nil, fmt.Errorf("chain runs on to page %d past its %d pages", id, n)
	}
	return pages, nil
}

// Open loads a store previously persisted by Flush.
func Open(bp *pager.BufferPool) (*Store, error) {
	s := &Store{
		bp: bp, dict: &Dict{},
		catalogs: map[string]map[vtrie.Symbol]int64{},
		stats:    map[string]int64{},
		blobs:    map[string][]byte{},
		curPage:  pager.InvalidPage,
	}
	p, err := bp.Get(0)
	if err != nil {
		return nil, err
	}
	var hdr [headerLen]byte
	copy(hdr[:], p.Data)
	p.Unpin(false)
	for _, old := range oldStoreMagics {
		if bytes.Equal(hdr[:8], old) {
			return nil, ErrOldLayout
		}
	}
	if !bytes.Equal(hdr[:8], storeMagic) {
		return nil, fmt.Errorf("docstore: page 0 is not a docstore header")
	}
	filePages := bp.File().NumPages()
	var all []pager.PageID
	at := 8
	for i := range s.meta.sections {
		head := pager.PageID(binary.LittleEndian.Uint32(hdr[at:]))
		n := binary.LittleEndian.Uint32(hdr[at+4:])
		length := binary.LittleEndian.Uint64(hdr[at+8:])
		at += 16
		if head == 0 {
			return nil, fmt.Errorf("docstore: store was never flushed")
		}
		if limit := uint64(n) * chainCap; n > filePages || length > limit || (i == secDir && length > uint64(n)) {
			return nil, fmt.Errorf("docstore: meta %s: %d bytes over %d pages in a file of %d", sectionNames[i], length, n, filePages)
		}
		sec := &s.meta.sections[i]
		// The shapes have a second copy in the forest: an unreadable page
		// there loses shapes (loadShapes), not the store.
		if sec.pages, err = walkChain(bp, head, n, filePages, i == secShapes); err != nil {
			return nil, fmt.Errorf("docstore: meta %s: %w", sectionNames[i], err)
		}
		sec.length = int(length)
		all = append(all, sec.pages...)
	}
	// A page on two chains, or twice on one (a cycle), is corruption.
	slices.Sort(all)
	for i := 1; i < len(all); i++ {
		if all[i] == all[i-1] {
			return nil, fmt.Errorf("docstore: meta page %d is chained twice", all[i])
		}
	}
	numDocs := binary.LittleEndian.Uint32(hdr[at:])
	numNames := binary.LittleEndian.Uint32(hdr[at+4:])
	numShapes := binary.LittleEndian.Uint32(hdr[at+8:])
	if err := s.loadDict(numNames); err != nil {
		return nil, err
	}
	if err := s.loadShapes(numShapes); err != nil {
		return nil, err
	}
	if err := s.loadDir(numDocs); err != nil {
		return nil, err
	}
	if err := s.loadSmall(); err != nil {
		return nil, err
	}
	s.loadLPS()
	return s, nil
}

// SectionInfo is the footprint of one meta section, for size reports.
type SectionInfo struct {
	Name  string
	Head  pager.PageID // first page of the chain
	Pages int
	// Bytes is the payload the section's pages carry; Pages*PageSize minus
	// that is chain pointers, block slack and the unfilled tail.
	Bytes int
}

// MetaSections reports the meta sections as of the last Flush (or Open).
func (s *Store) MetaSections() []SectionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := &s.meta
	out := make([]SectionInfo, numSections)
	for i := range m.sections {
		sec := &m.sections[i]
		out[i] = SectionInfo{Name: sectionNames[i], Pages: len(sec.pages), Bytes: sec.length}
		if len(sec.pages) > 0 {
			out[i].Head = sec.pages[0]
		}
	}
	var tmp [maxEntryLen]byte
	dirBytes := dirBlockHead * len(m.blockStart)
	for _, e := range s.dir[:m.dirFlushed] {
		dirBytes += len(appendEntry(tmp[:0], e))
	}
	out[secDir].Bytes = dirBytes
	return out
}
