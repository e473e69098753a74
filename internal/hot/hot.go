// Package hot is the in-memory hot tier: bit-packed posting lists mirroring
// the Trie-Symbol and Docid B+-trees. They shrink the Algorithm 1 descent to
// in-place reads of resident memory: a range scan binary-searches the packed
// cells themselves, so hot queries touch no pager pages and decode only the
// cells they visit (Algorithm 2 reads the document store's resident shape
// dictionary, with or without a tier). The tier is strictly a cache: every
// list is built from the authoritative B+-tree image, evicted LRU under a
// byte budget, and invalidated by writers, so results stay byte-identical to
// the paged path. Summary, a bit-packed whole-record encoding, is kept beside
// it.
//
// Readers get value views (Postings, DocIDs) whose slices alias the tier's
// arena. Arena bytes below len are never rewritten, so a view stays valid for
// as long as its holder keeps it, whatever the tier does meanwhile.
package hot

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/bitpack"
)

// packedList is a parsed list encoding, the view both Postings and DocIDs
// wrap. A list is frame-of-reference (FOR) coded: a header, then one
// fixed-width cell per entry holding three unsigned deltas, each least
// significant bit first —
//
//	header: uvarint(n) uvarint(base) uvarint(min) w0(1) w1(1) w2(1)
//	cells:  n × (w0+w1+w2) bits: Left − base, Right − Left, Level − min
//
// base is the first entry's Left (lists are sorted by Left) and min the
// smallest Level; each width is what the list's largest delta in that field
// needs. A docid list has the same layout with a zero-width middle field and
// DocID − min last. Every cell has the same width, so cell i starts at bit
// i × width and a seek binary-searches cell indexes, decoding only the Left
// field of each probe. The empty list is encoded as no bytes, and an
// encoding shorter than 8 bytes is padded to 8, the least bitpack reads. On
// the benchmark's MIX index (96,004 postings in 9,230 lists) a cell averages
// 3.35 B and a header 7.7 B, 4.09 B a posting in all, and the 6,000-entry
// docid list takes 3.75 B an entry.
type packedList struct {
	data  []byte // the whole encoding: header, then cells
	base  uint64
	n     uint32
	min   uint32
	hdr   uint8 // the header's length
	width uint8 // bits per cell
	w     [3]uint8
}

// parseList reads the header of an encoding made by encodeList.
func parseList(data []byte) packedList {
	l := packedList{data: data}
	if len(data) == 0 {
		return l
	}
	n, i := binary.Uvarint(data)
	base, k := binary.Uvarint(data[i:])
	i += k
	lo, k := binary.Uvarint(data[i:])
	i += k
	l.n, l.base, l.min = uint32(n), base, uint32(lo)
	l.w = [3]uint8{data[i], data[i+1], data[i+2]}
	l.width = l.w[0] + l.w[1] + l.w[2]
	l.hdr = uint8(i + 3)
	return l
}

// offset returns the bit offset of cell i in data.
func (l *packedList) offset(i int) uint { return uint(l.hdr)*8 + uint(i)*uint(l.width) }

// at decodes cell i field by field: Left, the middle field and the last
// field, bases added. Cells of at most bitpack.MaxWindow bits are read whole
// instead, by the scans.
func (l *packedList) at(i int) (left, mid uint64, last uint32) {
	off := l.offset(i)
	w0, w1, w2 := uint(l.w[0]), uint(l.w[1]), uint(l.w[2])
	return l.base + bitpack.Get(l.data, off, w0), bitpack.Get(l.data, off+w0, w1), l.min + uint32(bitpack.Get(l.data, off+w0+w1, w2))
}

// seek returns the index of the first cell whose Left is >= lo (> lo when
// loIncl is false); cells are sorted by Left, so none is below base. A
// probe decodes the Left field alone and compares it as Left − base: one
// 8-byte load, a shift and a mask when the field fits bitpack.MaxWindow.
func (l *packedList) seek(lo uint64, loIncl bool) int {
	if lo < l.base || (lo == l.base && loIncl) {
		return 0
	}
	t := lo - l.base // the answer is the first cell whose Left − base >= t
	if !loIncl {
		if t == math.MaxUint64 {
			return int(l.n)
		}
		t++
	}
	w0 := uint(l.w[0])
	if w0 > bitpack.MaxWindow {
		return sort.Search(int(l.n), func(h int) bool { return bitpack.Get(l.data, l.offset(h), w0) >= t })
	}
	data, first, width, mask := l.data, uint(l.hdr)*8, uint(l.width), bitpack.Mask(w0)
	i, j := 0, int(l.n)
	for i < j {
		h := int(uint(i+j) >> 1)
		if bitpack.Window(data, first+uint(h)*width)&mask < t {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// cell is one entry before encoding: Left, the middle field and the last.
type cell struct {
	left, mid uint64
	last      uint32
}

// encodeList appends the encoding of cells to dst[:0] and returns it.
func encodeList(dst []byte, cells []cell) []byte {
	dst = dst[:0]
	if len(cells) == 0 {
		return dst
	}
	base, lo := cells[0].left, cells[0].last
	for _, c := range cells {
		lo = min(lo, c.last)
	}
	var span, mid uint64
	var top uint32
	for _, c := range cells {
		span, mid, top = max(span, c.left-base), max(mid, c.mid), max(top, c.last-lo)
	}
	w0, w1, w2 := uint(bits.Len64(span)), uint(bits.Len64(mid)), uint(bits.Len32(top))
	width := w0 + w1 + w2
	dst = binary.AppendUvarint(dst, uint64(len(cells)))
	dst = binary.AppendUvarint(dst, base)
	dst = binary.AppendUvarint(dst, uint64(lo))
	dst = append(dst, byte(w0), byte(w1), byte(w2))
	hdr := len(dst)
	dst = append(dst, make([]byte, bitpack.Bytes(uint(len(cells))*width))...)
	area := dst[hdr:]
	for i, c := range cells {
		off := uint(i) * width
		bitpack.Put(area, off, w0, c.left-base)
		bitpack.Put(area, off+w0, w1, c.mid)
		bitpack.Put(area, off+w0+w1, w2, uint64(c.last-lo))
	}
	if len(dst) < 8 {
		dst = append(dst, make([]byte, 8-len(dst))...) // bitpack reads 8 bytes at a time
	}
	return dst
}

// builder gathers a list's entries in scan order and encodes them on demand.
type builder struct {
	cells []cell
	enc   []byte // the encoding the last view was made of
}

// Len returns the number of entries added so far.
func (b *builder) Len() int { return len(b.cells) }

// Reset empties the builder, keeping its buffers for the next list.
func (b *builder) Reset() { b.cells = b.cells[:0] }

// view encodes the entries added so far into the builder's own buffer.
func (b *builder) view() packedList {
	b.enc = encodeList(b.enc, b.cells)
	return parseList(b.enc)
}

// build encodes the entries added so far into an exactly sized buffer of
// their own.
func (b *builder) build() packedList {
	b.enc = encodeList(b.enc, b.cells)
	return parseList(slices.Clone(b.enc))
}

// Postings is a read-only view of a Trie-Symbol posting list: entries (Left,
// Right, Level) in exactly the order the source B+-tree's Scan visits them
// (ascending Left, duplicates in insertion order). The zero value is the
// empty list.
type Postings struct{ packedList }

// PostingsBuilder accumulates entries in scan order.
type PostingsBuilder struct{ builder }

// NewPostingsBuilder returns an empty builder.
func NewPostingsBuilder() *PostingsBuilder { return &PostingsBuilder{} }

// Add appends one posting. Calls must arrive in B+-tree Scan order.
func (b *PostingsBuilder) Add(left, right uint64, level uint32) {
	b.cells = append(b.cells, cell{left, right - left, level})
}

// View returns the list of the entries added so far, encoded into the
// builder's buffer; it is valid until the builder's next Add, Reset, View
// or Build.
func (b *PostingsBuilder) View() Postings { return Postings{b.view()} }

// Build freezes the builder into a list of its own, clipped to size.
func (b *PostingsBuilder) Build() *Postings { return &Postings{b.build()} }

// Len returns the number of entries.
func (p Postings) Len() int { return int(p.n) }

// Entry returns the list as a tier entry.
func (p Postings) Entry() Entry { return Entry{kind: KindPostings, list: p.data} }

// Scan visits entries with Left in the given bounds, in list order,
// mirroring btree.Tree.Scan semantics. fn returning false stops the scan. A
// cell of at most bitpack.MaxWindow bits is decoded from one 8-byte load.
func (p Postings) Scan(lo, hi uint64, loIncl, hiIncl bool, fn func(left, right uint64, level uint32) bool) {
	w0, w1, width := uint(p.w[0]), uint(p.w[1]), uint(p.width)
	m0, m1, m2 := bitpack.Mask(w0), bitpack.Mask(w1), bitpack.Mask(uint(p.w[2]))
	for i := p.seek(lo, loIncl); i < int(p.n); i++ {
		var left, scope uint64
		var level uint32
		if width <= bitpack.MaxWindow {
			x := bitpack.Window(p.data, p.offset(i))
			left, scope, level = p.base+x&m0, x>>w0&m1, p.min+uint32(x>>(w0+w1)&m2)
		} else {
			left, scope, level = p.at(i)
		}
		if left > hi || (left == hi && !hiIncl) || !fn(left, left+scope, level) {
			return
		}
	}
}

// DocIDs is a read-only view of the Docid-index list: (Left, DocID) pairs in
// B+-tree Scan order.
type DocIDs struct{ packedList }

// DocIDsBuilder accumulates docid entries in scan order.
type DocIDsBuilder struct{ builder }

// NewDocIDsBuilder returns an empty builder.
func NewDocIDsBuilder() *DocIDsBuilder { return &DocIDsBuilder{} }

// Add appends one (Left, DocID) entry in B+-tree Scan order.
func (b *DocIDsBuilder) Add(left uint64, docID uint32) {
	b.cells = append(b.cells, cell{left: left, last: docID})
}

// View returns the list of the entries added so far, encoded into the
// builder's buffer; it is valid until the builder's next Add, Reset, View
// or Build.
func (b *DocIDsBuilder) View() DocIDs { return DocIDs{b.view()} }

// Build freezes the builder into a list of its own, clipped to size.
func (b *DocIDsBuilder) Build() *DocIDs { return &DocIDs{b.build()} }

// Len returns the number of entries.
func (d DocIDs) Len() int { return int(d.n) }

// Entry returns the list as a tier entry.
func (d DocIDs) Entry() Entry { return Entry{kind: KindDocIDs, list: d.data} }

// Scan visits entries with Left in the given bounds, in list order, as
// Postings.Scan does.
func (d DocIDs) Scan(lo, hi uint64, loIncl, hiIncl bool, fn func(left uint64, docID uint32) bool) {
	w0, width := uint(d.w[0]), uint(d.width) // the middle field is empty
	m0, m2 := bitpack.Mask(w0), bitpack.Mask(uint(d.w[2]))
	for i := d.seek(lo, loIncl); i < int(d.n); i++ {
		var left uint64
		var docID uint32
		if width <= bitpack.MaxWindow {
			x := bitpack.Window(d.data, d.offset(i))
			left, docID = d.base+x&m0, d.min+uint32(x>>w0&m2)
		} else {
			left, _, docID = d.at(i)
		}
		if left > hi || (left == hi && !hiIncl) || !fn(left, docID) {
			return
		}
	}
}
