// Package hot is the in-memory hot tier: flat posting lists mirroring the
// Trie-Symbol and Docid B+-trees, and bit-packed per-document structure
// summaries (parent pointers plus labels) mirroring docstore records. Both
// shrink the common read path — the Algorithm 1 descent and the Algorithm 2
// fetch — to in-place reads of resident memory: a range scan binary-searches
// raw keys and a refinement step reads one packed field, so hot queries
// touch no pager pages and decode nothing for those stages. The tier is
// strictly a cache: every structure is built from (and verified against)
// the authoritative B+-tree/docstore image, evicted LRU under a byte
// budget, and invalidated by writers, so results stay byte-identical to
// the paged path.
package hot

import (
	"encoding/binary"
	"slices"
	"unsafe"
)

// Entry widths of the two flat lists. Every entry leads with its raw 64-bit
// Left key, little-endian, so a scan reaches its lower bound by binary
// search over the entries themselves — no block index, nothing to decode on
// the way. (Delta+varint blocks were 14.7 B per posting on the benchmark
// corpus; raw is 20 B, and the lists are clipped to size at Build.)
const (
	postingSize = 8 + 8 + 4 // Left, Right, Level
	docIDSize   = 8 + 4     // Left, DocID
)

// seek returns the index of the first stride-wide entry of data whose Left
// key is >= lo (> lo when loIncl is false); entries are sorted by Left.
func seek(data []byte, stride int, lo uint64, loIncl bool) int {
	i, j := 0, len(data)/stride
	for i < j {
		h := int(uint(i+j) >> 1)
		if k := binary.LittleEndian.Uint64(data[h*stride:]); k < lo || (k == lo && !loIncl) {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// Postings is an immutable Trie-Symbol posting list: entries (Left, Right,
// Level) in exactly the order the source B+-tree's Scan visits them
// (ascending Left, duplicates in insertion order).
type Postings struct{ data []byte }

// PostingsBuilder accumulates entries in scan order.
type PostingsBuilder struct{ data []byte }

// NewPostingsBuilder returns an empty builder.
func NewPostingsBuilder() *PostingsBuilder { return &PostingsBuilder{} }

// Add appends one posting. Calls must arrive in B+-tree Scan order.
func (b *PostingsBuilder) Add(left, right uint64, level uint32) {
	b.data = binary.LittleEndian.AppendUint64(b.data, left)
	b.data = binary.LittleEndian.AppendUint64(b.data, right)
	b.data = binary.LittleEndian.AppendUint32(b.data, level)
}

// Len returns the number of entries added so far.
func (b *PostingsBuilder) Len() int { return len(b.data) / postingSize }

// Build freezes the builder into an immutable list, clipped to size.
func (b *PostingsBuilder) Build() *Postings { return &Postings{data: slices.Clone(b.data)} }

// Len returns the number of entries.
func (p *Postings) Len() int { return len(p.data) / postingSize }

// SizeBytes is the list's memory footprint: header plus backing array.
func (p *Postings) SizeBytes() int { return int(unsafe.Sizeof(*p)) + cap(p.data) }

// Scan visits entries with Left in the given bounds, in list order,
// mirroring btree.Tree.Scan semantics. fn returning false stops the scan.
func (p *Postings) Scan(lo, hi uint64, loIncl, hiIncl bool, fn func(left, right uint64, level uint32) bool) {
	for off := seek(p.data, postingSize, lo, loIncl) * postingSize; off < len(p.data); off += postingSize {
		e := p.data[off : off+postingSize]
		left := binary.LittleEndian.Uint64(e)
		if left > hi || (left == hi && !hiIncl) {
			return
		}
		if !fn(left, binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint32(e[16:])) {
			return
		}
	}
}

// DocIDs is an immutable Docid-index list: (Left, DocID) pairs in B+-tree
// Scan order.
type DocIDs struct{ data []byte }

// DocIDsBuilder accumulates docid entries in scan order.
type DocIDsBuilder struct{ data []byte }

// NewDocIDsBuilder returns an empty builder.
func NewDocIDsBuilder() *DocIDsBuilder { return &DocIDsBuilder{} }

// Add appends one (Left, DocID) entry in B+-tree Scan order.
func (b *DocIDsBuilder) Add(left uint64, docID uint32) {
	b.data = binary.LittleEndian.AppendUint64(b.data, left)
	b.data = binary.LittleEndian.AppendUint32(b.data, docID)
}

// Len returns the number of entries added so far.
func (b *DocIDsBuilder) Len() int { return len(b.data) / docIDSize }

// Build freezes the builder into an immutable list, clipped to size.
func (b *DocIDsBuilder) Build() *DocIDs { return &DocIDs{data: slices.Clone(b.data)} }

// Len returns the number of entries.
func (d *DocIDs) Len() int { return len(d.data) / docIDSize }

// SizeBytes is the list's memory footprint: header plus backing array.
func (d *DocIDs) SizeBytes() int { return int(unsafe.Sizeof(*d)) + cap(d.data) }

// Scan visits entries with Left in the given bounds, in list order.
func (d *DocIDs) Scan(lo, hi uint64, loIncl, hiIncl bool, fn func(left uint64, docID uint32) bool) {
	for off := seek(d.data, docIDSize, lo, loIncl) * docIDSize; off < len(d.data); off += docIDSize {
		e := d.data[off : off+docIDSize]
		left := binary.LittleEndian.Uint64(e)
		if left > hi || (left == hi && !hiIncl) {
			return
		}
		if !fn(left, binary.LittleEndian.Uint32(e[8:])) {
			return
		}
	}
}
