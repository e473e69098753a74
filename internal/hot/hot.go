// Package hot is the in-memory hot tier: flat posting lists mirroring the
// Trie-Symbol and Docid B+-trees. They shrink the Algorithm 1 descent to
// in-place reads of resident memory: a range scan binary-searches raw keys,
// so hot queries touch no pager pages and decode nothing for that stage
// (Algorithm 2 reads the document store's resident shape dictionary, with or
// without a tier). The tier is strictly a cache: every list is built from
// the authoritative B+-tree image, evicted LRU under a byte budget, and
// invalidated by writers, so results stay byte-identical to the paged path.
// Summary, a bit-packed whole-record encoding, is kept beside it.
//
// Readers get value views (Postings, DocIDs) whose slices alias the tier's
// arena. Arena bytes below len are never rewritten, so a view stays valid for
// as long as its holder keeps it, whatever the tier does meanwhile.
package hot

import (
	"encoding/binary"
	"slices"
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

// Postings is a read-only view of a Trie-Symbol posting list: entries (Left,
// Right, Level) in exactly the order the source B+-tree's Scan visits them
// (ascending Left, duplicates in insertion order). The zero value is the
// empty list.
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

// Reset empties the builder, keeping its buffer for the next list.
func (b *PostingsBuilder) Reset() { b.data = b.data[:0] }

// View returns the entries added so far, without copying them; it is valid
// until the builder's next Add or Reset.
func (b *PostingsBuilder) View() Postings { return Postings{data: b.data} }

// Build freezes the builder into a list of its own, clipped to size.
func (b *PostingsBuilder) Build() *Postings { return &Postings{data: slices.Clone(b.data)} }

// Len returns the number of entries.
func (p Postings) Len() int { return len(p.data) / postingSize }

// Entry returns the list as a tier entry.
func (p Postings) Entry() Entry { return Entry{kind: KindPostings, list: p.data} }

// Scan visits entries with Left in the given bounds, in list order,
// mirroring btree.Tree.Scan semantics. fn returning false stops the scan.
func (p Postings) Scan(lo, hi uint64, loIncl, hiIncl bool, fn func(left, right uint64, level uint32) bool) {
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

// DocIDs is a read-only view of the Docid-index list: (Left, DocID) pairs in
// B+-tree Scan order.
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

// View returns the entries added so far, without copying them; it is valid
// until the builder's next Add.
func (b *DocIDsBuilder) View() DocIDs { return DocIDs{data: b.data} }

// Build freezes the builder into a list of its own, clipped to size.
func (b *DocIDsBuilder) Build() *DocIDs { return &DocIDs{data: slices.Clone(b.data)} }

// Len returns the number of entries.
func (d DocIDs) Len() int { return len(d.data) / docIDSize }

// Entry returns the list as a tier entry.
func (d DocIDs) Entry() Entry { return Entry{kind: KindDocIDs, list: d.data} }

// Scan visits entries with Left in the given bounds, in list order.
func (d DocIDs) Scan(lo, hi uint64, loIncl, hiIncl bool, fn func(left uint64, docID uint32) bool) {
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
