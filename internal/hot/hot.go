// Package hot is the in-memory hot tier: verbatim images of the packed
// leaves of the Trie-Symbol (postings) and Docid B+-trees. A query resolves
// each range it will scan to the run of leaf images that covers it, once,
// and then runs the B+-tree's own packed-leaf search and cell loop over
// those bytes (btree.ScanPostingsImage), so a hot query touches no pager
// page and decodes only the cells it visits (Algorithm 2 reads the document
// store's resident shape dictionary, with or without a tier). The tier is
// strictly a cache: every image is copied from the authoritative tree,
// evicted LRU under a byte budget, and invalidated by writers, so results
// stay byte-identical to the paged path.
//
// Readers get Runs whose images alias the tier's arena. Arena bytes below
// len are never rewritten, so a Run stays valid for as long as its holder
// keeps it, whatever the tier does meanwhile.
//
// Postings, a bit-packed posting-list codec, and Summary, a bit-packed
// whole-record encoding, are kept beside the tier for the benchmark's
// decode probes; no query runs them.
package hot

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sort"

	"repro/internal/bitpack"
)

// Postings is a read-only bit-packed posting list: entries (Left, Right,
// Level) in the order they were added, the source B+-tree's Scan order
// (ascending Left, duplicates in insertion order). The zero value is the
// empty list. A list is frame-of-reference (FOR) coded: a header, then one
// fixed-width cell per entry holding three unsigned deltas, each least
// significant bit first —
//
//	header: uvarint(n) uvarint(base) uvarint(min) w0(1) w1(1) w2(1)
//	cells:  n × (w0+w1+w2) bits: Left − base, Right − Left, Level − min
//
// base is the first entry's Left (lists are sorted by Left) and min the
// smallest Level; each width is what the list's largest delta in that field
// needs. Every cell has the same width, so cell i starts at bit
// i × width and a seek binary-searches cell indexes, decoding only the Left
// field of each probe. The empty list is encoded as no bytes, and an
// encoding shorter than 8 bytes is padded to 8, the least bitpack reads. On
// the benchmark's MIX index (96,004 postings in 9,230 lists) a cell averages
// 3.35 B and a header 7.7 B, 4.09 B a posting in all.
type Postings struct {
	data  []byte // the whole encoding: header, then cells
	base  uint64
	n     uint32
	min   uint32
	hdr   uint8 // the header's length
	width uint8 // bits per cell
	w     [3]uint8
}

// parseList reads the header of an encoding made by encodeList.
func parseList(data []byte) *Postings {
	l := &Postings{data: data}
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
func (l *Postings) offset(i int) uint { return uint(l.hdr)*8 + uint(i)*uint(l.width) }

// at decodes cell i field by field: Left, the middle field and the last
// field, bases added. Cells of at most bitpack.MaxWindow bits are read whole
// instead, by the scans.
func (l *Postings) at(i int) (left, mid uint64, last uint32) {
	off := l.offset(i)
	w0, w1, w2 := uint(l.w[0]), uint(l.w[1]), uint(l.w[2])
	return l.base + bitpack.Get(l.data, off, w0), bitpack.Get(l.data, off+w0, w1), l.min + uint32(bitpack.Get(l.data, off+w0+w1, w2))
}

// seek returns the index of the first cell whose Left is >= lo (> lo when
// loIncl is false); cells are sorted by Left, so none is below base. A
// probe decodes the Left field alone and compares it as Left − base: one
// 8-byte load, a shift and a mask when the field fits bitpack.MaxWindow.
func (l *Postings) seek(lo uint64, loIncl bool) int {
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

// encodeList returns the encoding of cells.
func encodeList(cells []cell) []byte {
	if len(cells) == 0 {
		return nil
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
	dst := binary.AppendUvarint(nil, uint64(len(cells)))
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

// PostingsBuilder accumulates entries in scan order.
type PostingsBuilder struct{ cells []cell }

// NewPostingsBuilder returns an empty builder.
func NewPostingsBuilder() *PostingsBuilder { return &PostingsBuilder{} }

// Add appends one posting. Calls must arrive in B+-tree Scan order.
func (b *PostingsBuilder) Add(left, right uint64, level uint32) {
	b.cells = append(b.cells, cell{left, right - left, level})
}

// Build encodes the entries added so far into a list of their own.
func (b *PostingsBuilder) Build() *Postings { return parseList(encodeList(b.cells)) }

// Scan visits entries with Left in the given bounds, in list order,
// mirroring btree.Tree.Scan semantics. fn returning false stops the scan. A
// cell of at most bitpack.MaxWindow bits is decoded from one 8-byte load.
func (p *Postings) Scan(lo, hi uint64, loIncl, hiIncl bool, fn func(left, right uint64, level uint32) bool) {
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
