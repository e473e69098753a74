package docstore

// Shape dictionary. By §3.1 a document's NPS together with its leaf list is
// the whole shape of its tree, and the documents of one collection share few
// shapes: the benchmark's 6,000-document MIX EPIndex has 787. The store keeps
// each distinct skeleton — node count, NPS, leaf posts and their labels —
// once, resident, and a record is the document's id, its shape id and its
// LPS. Refinement navigates a shape in place, with the document's resident
// LPS (Store.ViewOf, lps.go), so it reads no record page for a latest image.
//
// A resident shape is one packed field per node, (leaf label + 1) << pw |
// parent, LSB-first over a run of uint64 words: Nodes, ParentOf and
// LeafLabel each read one field with two shifts and a mask. Internal nodes
// carry label 0; their labels are in the document's LPS. Shapes are
// append-only: a word below len(words) is never rewritten, so a Shape view
// stays valid for as long as its holder keeps it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/vtrie"
)

// Shape is a read-only view of one interned skeleton.
type Shape struct {
	n      int32
	pw, lw uint8    // parent and label field widths; pw+lw <= 64
	words  []uint64 // node post's field starts at bit (post-1)*(pw+lw)
}

// Nodes returns n, the node count of the (possibly extended) tree.
func (s *Shape) Nodes() int32 { return s.n }

// ParentOf returns the postorder number of node post's parent, or 0 for the
// root and for numbers outside the tree (Record.ParentOf's contract).
func (s *Shape) ParentOf(post int32) int32 {
	if post < 1 || post > s.n {
		return 0
	}
	return int32(s.field(post) & (1<<s.pw - 1))
}

// LeafLabel returns the label of leaf post. false means post is an internal
// node, whose label only the document's LPS holds, or outside the tree.
func (s *Shape) LeafLabel(post int32) (vtrie.Symbol, bool) {
	if post < 1 || post > s.n {
		return 0, false
	}
	l := s.field(post) >> s.pw
	if l == 0 {
		return 0, false
	}
	return vtrie.Symbol(l - 1), true
}

// field extracts node post's packed field.
func (s *Shape) field(post int32) uint64 {
	w := uint(s.pw) + uint(s.lw)
	bit := uint(post-1) * w
	i, sh := bit>>6, bit&63
	x := s.words[i] >> sh
	if sh+w > 64 {
		x |= s.words[i+1] << (64 - sh)
	}
	return x & (1<<w - 1)
}

// fill sets rec's NumNodes, NPS and Leaves from the shape, reusing their
// capacity.
func (s *Shape) fill(rec *Record, leaves int) {
	rec.NumNodes = s.n
	rec.NPS = resize(rec.NPS, uint64(max(s.n-1, 0)))
	rec.Leaves = resize(rec.Leaves, uint64(leaves))
	li := 0
	for post := int32(1); post <= s.n; post++ {
		f := s.field(post)
		if post < s.n {
			rec.NPS[post-1] = int32(f & (1<<s.pw - 1))
		}
		if l := f >> s.pw; l != 0 {
			rec.Leaves[li] = Leaf{Post: post, Sym: vtrie.Symbol(l - 1)}
			li++
		}
	}
}

// shapeHdr is one shape's place in the dictionary.
type shapeHdr struct {
	off    uint32 // first word in shapeDict.words
	n      int32  // node count; missingShape when the shape has no payload
	leaves uint32
	pw, lw uint8
}

// missingShape marks a shape id whose section bytes did not load; the
// forest's copy restores it (RestoreShape).
const missingShape = -1

// shapeDict interns skeletons. It is guarded by the store's mutex.
type shapeDict struct {
	words []uint64
	hdrs  []shapeHdr
	// index is a linear-probing hash table over the present shapes: a slot
	// holds an id + 1, 0 is empty; at most 70 % of its slots are used.
	index   []uint32
	missing int
	// pack is the packed fields of the record being interned.
	pack []uint64
}

var errShapeForm = errors.New("not a storable shape")

// packRecord packs rec's skeleton into d.pack and returns its header. A
// shape has at least one node (node count 0 marks a lost shape in the
// section), and its leaves are listed in strictly ascending postorder inside
// the tree.
func (d *shapeDict) packRecord(rec *Record) (shapeHdr, error) {
	n := rec.NumNodes
	if n < 1 || len(rec.NPS) != int(n-1) {
		return shapeHdr{}, fmt.Errorf("%w: %d nodes, %d NPS entries", errShapeForm, n, len(rec.NPS))
	}
	maxParent := n
	for _, p := range rec.NPS {
		if p < 0 {
			return shapeHdr{}, fmt.Errorf("%w: negative parent %d", errShapeForm, p)
		}
		maxParent = max(maxParent, p)
	}
	var maxLabel uint64
	prev := int32(0)
	for _, l := range rec.Leaves {
		if l.Post <= prev || l.Post > n {
			return shapeHdr{}, fmt.Errorf("%w: leaf %d after %d in a %d-node tree", errShapeForm, l.Post, prev, n)
		}
		prev = l.Post
		maxLabel = max(maxLabel, uint64(l.Sym)+1)
	}
	h := shapeHdr{n: n, leaves: uint32(len(rec.Leaves)), pw: uint8(bits.Len32(uint32(maxParent))), lw: uint8(bits.Len64(maxLabel))}
	w := uint(h.pw) + uint(h.lw)
	if w > 64 {
		return shapeHdr{}, fmt.Errorf("%w: %d-bit fields", errShapeForm, w)
	}
	nw := (uint(n)*w + 63) / 64
	if uint(cap(d.pack)) < nw {
		d.pack = make([]uint64, nw)
	}
	d.pack = d.pack[:nw]
	clear(d.pack)
	li := 0
	for post := int32(1); post <= n; post++ {
		var f uint64
		if post < n {
			f = uint64(rec.NPS[post-1])
		}
		if li < len(rec.Leaves) && rec.Leaves[li].Post == post {
			f |= (uint64(rec.Leaves[li].Sym) + 1) << h.pw
			li++
		}
		bit := uint(post-1) * w
		i, sh := bit>>6, bit&63
		d.pack[i] |= f << sh
		if sh+w > 64 {
			d.pack[i+1] |= f >> (64 - sh)
		}
	}
	return h, nil
}

func (h shapeHdr) span() int { return (int(h.n)*(int(h.pw)+int(h.lw)) + 63) / 64 }

// hashShape hashes a packed shape for the index.
func hashShape(h shapeHdr, words []uint64) uint64 {
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), 8*len(words))
	return maphash.Bytes(dictSeed, b) ^ (uint64(uint32(h.n))|uint64(h.pw)<<32|uint64(h.lw)<<40)*0x9e3779b97f4a7c15
}

// find probes the index for the packed shape (h, words). It returns the
// shape's id when present, and otherwise the empty slot where it would go
// (-1 with no index yet).
func (d *shapeDict) find(h shapeHdr, words []uint64) (slot int, id uint32, ok bool) {
	if len(d.index) == 0 {
		return -1, 0, false
	}
	mask := uint64(len(d.index) - 1)
	for i := hashShape(h, words) & mask; ; i = (i + 1) & mask {
		v := d.index[i]
		if v == 0 {
			return int(i), 0, false
		}
		o := d.hdrs[v-1]
		if o.n == h.n && o.pw == h.pw && o.lw == h.lw && slices.Equal(d.words[o.off:int(o.off)+o.span()], words) {
			return int(i), v - 1, true
		}
	}
}

// indexShape enters shape id into the index, growing it to keep the load
// at or below 70 %.
func (d *shapeDict) indexShape(id uint32) {
	h := d.hdrs[id]
	words := d.words[h.off : int(h.off)+h.span()]
	present := len(d.hdrs) - d.missing
	if 10*present > 7*len(d.index) {
		slots := minIndexSlots
		for 10*present > 7*slots {
			slots *= 2
		}
		d.index = make([]uint32, slots)
		for other := range d.hdrs {
			if o := d.hdrs[other]; o.n != missingShape && uint32(other) != id {
				slot, _, _ := d.find(o, d.words[o.off:int(o.off)+o.span()])
				d.index[slot] = uint32(other) + 1
			}
		}
	}
	slot, _, _ := d.find(h, words)
	d.index[slot] = id + 1
}

// intern returns the id of rec's skeleton, adding it on first sight. A
// known shape allocates nothing.
func (d *shapeDict) intern(rec *Record) (uint32, error) {
	h, err := d.packRecord(rec)
	if err != nil {
		return 0, err
	}
	if _, id, ok := d.find(h, d.pack); ok {
		return id, nil
	}
	if len(d.hdrs) >= math.MaxUint32-1 || len(d.words)+len(d.pack) > math.MaxUint32 {
		return 0, fmt.Errorf("docstore: shape dictionary full")
	}
	id := uint32(len(d.hdrs))
	d.hdrs = append(d.hdrs, shapeHdr{n: missingShape})
	d.missing++
	d.place(id, h, true)
	return id, nil
}

// restore gives missing shape id the skeleton of rec. The skeleton may
// repeat a present shape — a writer interned it anew while id was lost — and
// then both ids name it: the index keeps one of them for interning, and id
// serves the documents whose directory entries name it.
func (d *shapeDict) restore(id uint32, rec *Record) error {
	if int(id) >= len(d.hdrs) || d.hdrs[id].n != missingShape {
		return fmt.Errorf("docstore: shape %d is not missing", id)
	}
	h, err := d.packRecord(rec)
	if err != nil {
		return err
	}
	_, _, repeat := d.find(h, d.pack)
	d.place(id, h, !repeat)
	return nil
}

// place makes missing shape id the packed shape (h, d.pack), entering it
// into the index when index is set.
func (d *shapeDict) place(id uint32, h shapeHdr, index bool) {
	h.off = uint32(len(d.words))
	d.words = append(d.words, d.pack...)
	d.hdrs[id] = h
	d.missing--
	if index {
		d.indexShape(id)
	}
}

// view returns shape id, false when there is no such shape or it is missing.
func (d *shapeDict) view(id uint32) (Shape, shapeHdr, bool) {
	if int(id) >= len(d.hdrs) || d.hdrs[id].n == missingShape {
		return Shape{}, shapeHdr{}, false
	}
	h := d.hdrs[id]
	end := int(h.off) + h.span()
	return Shape{n: h.n, pw: h.pw, lw: h.lw, words: d.words[h.off:end:end]}, h, true
}

// trim copies the words into an exactly sized array, so a dictionary done
// loading holds no append slack.
func (d *shapeDict) trim() {
	d.words = slices.Clone(d.words)
}

// bytes is the heap the dictionary holds.
func (d *shapeDict) bytes() int {
	return 8*cap(d.words) + int(unsafe.Sizeof(shapeHdr{}))*cap(d.hdrs) + 4*len(d.index) + 8*cap(d.pack)
}

// Shape encoding, the payload of the shapes section and of the forest's
// shape tree: node count, the NPS, then the leaf count and per leaf its
// post's distance from the previous leaf and its label, all uvarints.

// appendShape appends the encoding of shape s with the given leaf count.
func appendShape(dst []byte, s *Shape, leaves int) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.n))
	for post := int32(1); post < s.n; post++ {
		dst = binary.AppendUvarint(dst, uint64(s.ParentOf(post)))
	}
	dst = binary.AppendUvarint(dst, uint64(leaves))
	prev := int32(0)
	for post := int32(1); post <= s.n; post++ {
		if sym, ok := s.LeafLabel(post); ok {
			dst = binary.AppendUvarint(dst, uint64(post-prev))
			dst = binary.AppendUvarint(dst, uint64(sym))
			prev = post
		}
	}
	return dst
}

// decodeShape parses one shape encoding off the front of data into rec's
// NumNodes, NPS and Leaves (rec.LPS is left empty) and returns the rest.
// Every length is checked against the bytes that remain before anything is
// sized by it.
func decodeShape(data []byte, rec *Record) ([]byte, error) {
	n, data, err := uvarint(data)
	if err != nil {
		return data, fmt.Errorf("shape node count: %w", err)
	}
	// Every NPS entry is a varint of at least one byte.
	if n > math.MaxInt32 || n > uint64(len(data))+1 {
		return data, fmt.Errorf("shape of %d nodes exceeds %d remaining bytes", n, len(data))
	}
	rec.NumNodes = int32(n)
	rec.NPS = resize(rec.NPS, uint64(max(int64(n)-1, 0)))
	rec.LPS = rec.LPS[:0]
	for i := range rec.NPS {
		var v uint64
		if v, data, err = uvarint(data); err != nil {
			return data, fmt.Errorf("shape NPS[%d]: %w", i, err)
		}
		if v > math.MaxInt32 {
			return data, fmt.Errorf("shape NPS[%d] = %d", i, v)
		}
		rec.NPS[i] = int32(v)
	}
	k, data, err := uvarint(data)
	if err != nil {
		return data, fmt.Errorf("shape leaf count: %w", err)
	}
	// Each leaf is two varints, at least two bytes.
	if k > uint64(len(data))/2 {
		return data, fmt.Errorf("shape leaf count %d exceeds %d remaining bytes", k, len(data))
	}
	rec.Leaves = resize(rec.Leaves, k)
	post := uint64(0)
	for i := range rec.Leaves {
		var d, sym uint64
		if d, data, err = uvarint(data); err != nil {
			return data, fmt.Errorf("shape leaf %d: %w", i, err)
		}
		if sym, data, err = uvarint(data); err != nil {
			return data, fmt.Errorf("shape leaf %d: %w", i, err)
		}
		if post += d; d == 0 || post > n || sym > math.MaxUint32 {
			return data, fmt.Errorf("shape leaf %d: post %d (+%d), label %d in a %d-node tree", i, post, d, sym, n)
		}
		rec.Leaves[i] = Leaf{Post: int32(post), Sym: vtrie.Symbol(sym)}
	}
	return data, nil
}

// Store surface ------------------------------------------------------------------

// ShapeID returns the shape id the directory holds for docID.
func (s *Store) ShapeID(docID uint32) (uint32, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(docID) >= len(s.dir) {
		return 0, false
	}
	return s.dir[docID].shape, true
}

// NumShapes returns the number of shape ids, missing ones included.
func (s *Store) NumShapes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shapes.hdrs)
}

// ShapeBytes returns the heap the resident shape dictionary holds.
func (s *Store) ShapeBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shapes.bytes()
}

// EncodeShape appends the encoding of shape id to dst; false when the shape
// is missing or out of range.
func (s *Store) EncodeShape(dst []byte, id uint32) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, h, ok := s.shapes.view(id)
	if !ok {
		return dst, false
	}
	return appendShape(dst, &sh, int(h.leaves)), true
}

// MissingShapes lists, ascending, the shape ids whose section bytes did not
// load at Open and have not been restored since.
func (s *Store) MissingShapes() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []uint32
	for id, h := range s.shapes.hdrs {
		if h.n == missingShape {
			out = append(out, uint32(id))
		}
	}
	return out
}

// RestoreShape gives missing shape id the skeleton encoded in data (the
// forest's copy) and marks the shapes section for a rewrite by the next
// Flush.
func (s *Store) RestoreShape(id uint32, data []byte) error {
	var rec Record
	rest, err := decodeShape(data, &rec)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d bytes after the shape", len(rest))
	}
	if err != nil {
		return fmt.Errorf("docstore: restore shape %d: %w", id, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.shapes.restore(id, &rec); err != nil {
		return err
	}
	s.meta.shapesFlushed = 0 // rewrite the section from its start
	return nil
}

// ShapeUse is the shape dictionary's footprint, for size reports.
type ShapeUse struct {
	Shapes, Missing int
	// Docs is the directory entries; NPSEntries the NPS entries the present
	// shapes hold once each.
	Docs, NPSEntries int
	// Resident is ShapeBytes; Encoded the bytes one persisted copy takes.
	Resident, Encoded int
}

// ShapeUsage reports the dictionary's footprint.
func (s *Store) ShapeUsage() ShapeUse {
	s.mu.Lock()
	defer s.mu.Unlock()
	u := ShapeUse{Shapes: len(s.shapes.hdrs), Missing: s.shapes.missing, Docs: len(s.dir), Resident: s.shapes.bytes()}
	var buf []byte
	for id := range s.shapes.hdrs {
		if sh, h, ok := s.shapes.view(uint32(id)); ok {
			u.NPSEntries += int(max(h.n-1, 0))
			buf = appendShape(buf[:0], &sh, int(h.leaves))
			u.Encoded += len(buf)
		}
	}
	return u
}

// ShapeRecord returns a fresh record holding shape id's skeleton — NumNodes,
// NPS and Leaves, no DocID or LPS; false when the shape is missing.
func (s *Store) ShapeRecord(id uint32) (*Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, h, ok := s.shapes.view(id)
	if !ok {
		return nil, false
	}
	rec := new(Record)
	sh.fill(rec, int(h.leaves))
	return rec, true
}
