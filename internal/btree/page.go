package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/pager"
)

// On-page format (v3). Internal nodes and slotted leaves are slotted pages:
// the slot directory grows up from the header, the cell heap grows down from
// the end of the page, and the bytes between them are free and zero.
//
//	header:  kind(1) numKeys(2) extra(4) cellStart(2)
//	slots:   numKeys × uint16 cell offsets (from page start), in key order
//	free:    zeroes
//	cells:   leaf:  keyLen(2) valLen(2) key val
//	         inner: keyLen(2) child(4) key
//
// A fixed-width leaf (kind fixedLeafNode) is the second leaf codec, which
// the postings trees of dynamic indexes written before packed dynamic leaves
// have: the two cellStart bytes hold keyLen and valLen, and numKeys cells of
// exactly keyLen+valLen bytes follow the header in key order, with no slot
// directory and no per-cell lengths. Forest creates no new tree of them; an
// existing one keeps splitting into fixed-width leaves.
// A packed leaf (packed.go) is the third, for every tree of fixed numeric
// fields: a header of field widths and per-leaf minimums, then cells of one
// bit width per leaf, each entry's fields as deltas from those minimums. One
// codec serves two entry layouts, a kind byte each: postings (kind
// packedLeafNode) and Docid entries (kind packedDocIDLeafNode). The kind
// byte says which codec and layout a page uses, so a tree's pages describe
// themselves and the forest directory does not record it: a postings tree
// written with fixed-width leaves, or a Docid tree with slotted ones, keeps
// reading and taking inserts as one.
//
// extra is the next-leaf page id on leaves and the leftmost child on
// internal nodes; cellStart is the offset of the lowest cell. The read path
// uses the accessors below directly on pinned page bytes, copying nothing,
// and so do leaf Insert and Delete. On a slotted leaf a new cell is appended
// below cellStart and its slot shifted in, and a deleted cell's gap is closed
// by moving the cells below it up — memmove only, whatever the physical cell
// order. On a fixed leaf cell i sits at headerSize+i×width, so an edit is one
// memmove of the cells after it. Only a split (and the separator insert above
// it) materialises a nodePage. A packed leaf's cell i sits at bit i×width of
// its cell area; reads decode it there, an insert its widths hold moves the
// cells after it up by one cell's bits, and any other edit re-encodes the
// leaf through a pooled packer, splitting it by bits when its cells no
// longer fit (packed.go).

// pageKind returns the node kind byte.
func pageKind(data []byte) byte { return data[0] }

// isLeaf reports whether kind is a leaf of one of the three leaf codecs.
func isLeaf(kind byte) bool {
	return kind == leafNode || kind == fixedLeafNode || isPacked(kind)
}

// isPacked reports whether kind is a packed leaf, of either layout.
func isPacked(kind byte) bool { return kind == packedLeafNode || kind == packedDocIDLeafNode }

// pageNumKeys returns the number of cells.
func pageNumKeys(data []byte) int { return int(binary.LittleEndian.Uint16(data[1:3])) }

// pageExtra returns the extra field (next leaf / leftmost child).
func pageExtra(data []byte) uint32 { return binary.LittleEndian.Uint32(data[3:7]) }

// pageCellStart returns the offset of the lowest cell (the page length on an
// empty node).
func pageCellStart(data []byte) int { return int(binary.LittleEndian.Uint16(data[7:9])) }

// fixedWidths returns a fixed-width leaf's key and value widths.
func fixedWidths(data []byte) (kw, vw int) { return int(data[7]), int(data[8]) }

// pageFree returns the bytes left for new cells: between the slot directory
// and the cells, or after the last cell of a fixed-width or packed leaf.
func pageFree(data []byte) int {
	switch pageKind(data) {
	case fixedLeafNode:
		kw, vw := fixedWidths(data)
		return len(data) - headerSize - pageNumKeys(data)*(kw+vw)
	case packedLeafNode, packedDocIDLeafNode:
		var l packedLeaf
		l.parse(data)
		return len(data) - l.ly.used(pageNumKeys(data), l.width)
	}
	return pageCellStart(data) - headerSize - slotSize*pageNumKeys(data)
}

// leafCellSize returns the page bytes one (key, val) cell of the given
// lengths takes on a leaf of this kind.
func leafCellSize(kind byte, klen, vlen int) int {
	if kind == fixedLeafNode {
		return klen + vlen
	}
	return slotSize + leafCellHdr + klen + vlen
}

// leafFits checks that (key, val) has the cell shape of a slotted or
// fixed-width leaf: any lengths on a slotted leaf, exactly its widths on a
// fixed one (a packed leaf parses its entries, packedLayout.parse).
func leafFits(data, key, val []byte) error {
	if pageKind(data) == leafNode {
		return nil
	}
	if kw, vw := fixedWidths(data); len(key) != kw || len(val) != vw {
		return fmt.Errorf("btree: entry of %d+%d bytes in a leaf of %s cells", len(key), len(val), leafFormat(data))
	}
	return nil
}

// leafFormat names a leaf's cell format, as Check compares it across a
// tree's leaves (a packed leaf's widths are its own, so they are left out).
func leafFormat(data []byte) string {
	switch kind := pageKind(data); {
	case kind == fixedLeafNode:
		kw, vw := fixedWidths(data)
		return fmt.Sprintf("fixed %d+%d", kw, vw)
	case isPacked(kind):
		return packedLayoutOf(kind).name
	}
	return "slotted"
}

func slotOffset(data []byte, i int) int {
	return int(binary.LittleEndian.Uint16(data[headerSize+2*i : headerSize+2*i+2]))
}

// leafEntryAt returns the i-th entry of a leaf of any codec: aliasing the
// page on a slotted or fixed-width leaf, decoded into buf on a packed one,
// whose parsed header l is (a loop over a leaf's entries parses it once).
func leafEntryAt(data []byte, l *packedLeaf, i int, buf *[packedEntryLen]byte) (key, val []byte) {
	if isPacked(pageKind(data)) {
		return l.ly.put(l.entry(i), buf)
	}
	return leafCellAt(data, i)
}

// leafKeyAt is leafEntryAt for the key alone: on a packed leaf only the
// cell's key fields are decoded.
func leafKeyAt(data []byte, l *packedLeaf, i int, buf *[packedKeyLen]byte) []byte {
	if isPacked(pageKind(data)) {
		var k packedEntry
		for j := range l.ly.keyFields {
			k[j] = l.field(i, uint(j))
		}
		return l.ly.putKey(k, buf)
	}
	k, _ := leafCellAt(data, i)
	return k
}

// leafCellAt returns the i-th cell's key and value of a slotted or
// fixed-width leaf, aliasing the page.
func leafCellAt(data []byte, i int) (key, val []byte) {
	if pageKind(data) == fixedLeafNode {
		kw, vw := fixedWidths(data)
		off := headerSize + i*(kw+vw)
		return data[off : off+kw], data[off+kw : off+kw+vw]
	}
	off := slotOffset(data, i)
	kl := int(binary.LittleEndian.Uint16(data[off : off+2]))
	vl := int(binary.LittleEndian.Uint16(data[off+2 : off+4]))
	off += leafCellHdr
	return data[off : off+kl], data[off+kl : off+kl+vl]
}

// leafInsertAt writes (key, val) in place as the pos-th cell of a leaf that
// has leafCellSize bytes free for it (and, on a fixed-width leaf, a key and
// value of exactly its widths).
func leafInsertAt(data []byte, pos int, key, val []byte) {
	num := pageNumKeys(data)
	binary.LittleEndian.PutUint16(data[1:3], uint16(num+1))
	if pageKind(data) == fixedLeafNode {
		kw, vw := fixedWidths(data)
		off, end := headerSize+pos*(kw+vw), headerSize+num*(kw+vw)
		copy(data[off+kw+vw:], data[off:end])
		copy(data[off:off+kw], key)
		copy(data[off+kw:off+kw+vw], val)
		return
	}
	off := pageCellStart(data) - leafCellHdr - len(key) - len(val)
	binary.LittleEndian.PutUint16(data[off:], uint16(len(key)))
	binary.LittleEndian.PutUint16(data[off+2:], uint16(len(val)))
	copy(data[off+leafCellHdr:], key)
	copy(data[off+leafCellHdr+len(key):], val)
	slots := data[headerSize : headerSize+slotSize*(num+1)]
	copy(slots[slotSize*(pos+1):], slots[slotSize*pos:])
	binary.LittleEndian.PutUint16(slots[slotSize*pos:], uint16(off))
	binary.LittleEndian.PutUint16(data[7:9], uint16(off))
}

// leafDeleteAt removes the pos-th cell of a leaf in place, closing its gap
// and zeroing what it frees.
func leafDeleteAt(data []byte, pos int) {
	num := pageNumKeys(data)
	binary.LittleEndian.PutUint16(data[1:3], uint16(num-1))
	if pageKind(data) == fixedLeafNode {
		kw, vw := fixedWidths(data)
		w := kw + vw
		off, end := headerSize+pos*w, headerSize+num*w
		copy(data[off:], data[off+w:end])
		clear(data[end-w : end])
		return
	}
	off := slotOffset(data, pos)
	k, v := leafCellAt(data, pos)
	size := leafCellHdr + len(k) + len(v)
	start := pageCellStart(data)
	copy(data[start+size:off+size], data[start:off])
	clear(data[start : start+size])
	slots := data[headerSize : headerSize+slotSize*num]
	copy(slots[slotSize*pos:], slots[slotSize*(pos+1):])
	clear(slots[slotSize*(num-1):])
	for i := 0; i < num-1; i++ {
		if o := slotOffset(data, i); o < off {
			binary.LittleEndian.PutUint16(slots[slotSize*i:], uint16(o+size))
		}
	}
	binary.LittleEndian.PutUint16(data[7:9], uint16(start+size))
}

// innerCellAt returns the i-th internal cell's key and child page id,
// aliasing the page.
func innerCellAt(data []byte, i int) (key []byte, child pager.PageID) {
	off := slotOffset(data, i)
	kl := int(binary.LittleEndian.Uint16(data[off : off+2]))
	child = pager.PageID(binary.LittleEndian.Uint32(data[off+2 : off+6]))
	off += innerCellHdr
	return data[off : off+kl], child
}

// pageChildAt returns the page id of the i-th child (0 = leftmost) of an
// internal page.
func pageChildAt(data []byte, i int) pager.PageID {
	if i == 0 {
		return pager.PageID(pageExtra(data))
	}
	_, child := innerCellAt(data, i-1)
	return child
}

// leafUpperBound returns the first index whose key is > key.
func leafUpperBound(data []byte, key []byte) int { return leafSearch(data, nil, key, 1) }

// leafSearch returns the first index whose key k has bytes.Compare(k, key)
// >= above: the lower bound for above 0, the upper bound for above 1. l is
// a packed leaf's parsed header, or nil to have leafSearch parse it.
func leafSearch(data []byte, l *packedLeaf, key []byte, above int) int {
	lo, hi := 0, pageNumKeys(data)
	if isPacked(pageKind(data)) {
		if l == nil {
			l = new(packedLeaf)
			l.parse(data)
		}
		return l.search(key, above, hi)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		k, _ := leafCellAt(data, mid)
		if bytes.Compare(k, key) < above {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// innerChildIndex returns the child to descend into for key, biased right
// (duplicates go after equal keys).
func innerChildIndex(data []byte, key []byte) int {
	lo, hi := 0, pageNumKeys(data)
	for lo < hi {
		mid := (lo + hi) / 2
		k, _ := innerCellAt(data, mid)
		if bytes.Compare(k, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// innerChildIndexLower is innerChildIndex biased left (first child that can
// contain key), used when descending for scans.
func innerChildIndexLower(data []byte, key []byte) int {
	lo, hi := 0, pageNumKeys(data)
	for lo < hi {
		mid := (lo + hi) / 2
		k, _ := innerCellAt(data, mid)
		if bytes.Compare(k, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
