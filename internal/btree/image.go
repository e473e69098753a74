package btree

import (
	"errors"
	"fmt"

	"repro/internal/bitpack"
	"repro/internal/pager"
)

// A leaf image is the bytes of one packed leaf held outside the buffer pool:
// the hot tier keeps them (internal/hot), LeavesNoFill handing them out with
// the key range each covers, and a query's level cursor copies the leaf it
// stands on into a LeafCopy (SeekLeaf, NextLeaf). An Image scans them with
// the search and cell loop a ScanPostings or ScanDocIDs runs over a pool
// frame (seek, visitFrom), and its Seek gallops a cursor forward.

// LeafKey is a packed leaf's key as numbers: a posting key's symbol and
// Left, or a Docid key's terminal LeftPos with Sym 0. Keys order as
// (Sym, Left), the order of their bytes.
type LeafKey struct {
	Sym  uint32
	Left uint64
}

// Less reports whether a orders before b.
func (a LeafKey) Less(b LeafKey) bool { return a.Sym < b.Sym || a.Sym == b.Sym && a.Left < b.Left }

// entryOf returns k as the layout's key fields.
func (ly *packedLayout) entryOf(k LeafKey) packedEntry {
	if ly.kind == packedLeafNode {
		return packedEntry{uint64(k.Sym), k.Left}
	}
	return packedEntry{k.Left}
}

// leafKey returns e's key fields as a LeafKey.
func (ly *packedLayout) leafKey(e packedEntry) LeafKey {
	if ly.kind == packedLeafNode {
		return LeafKey{uint32(e[0]), e[1]}
	}
	return LeafKey{Left: e[0]}
}

// checkLeaf reports an error for data unless it is a packed leaf of layout
// ly.
func checkLeaf(data []byte, ly *packedLayout) error {
	if packedLayoutOf(pageKind(data)) != ly {
		return fmt.Errorf("btree: a walk of %s leaves reached a leaf of %s cells", ly.entries, leafFormat(data))
	}
	return nil
}

// firstKey returns the key of the first entry of data, a leaf past the
// tree's first that must be a packed leaf of layout ly.
func firstKey(data []byte, ly *packedLayout) (LeafKey, error) {
	if err := checkLeaf(data, ly); err != nil {
		return LeafKey{}, err
	}
	if pageNumKeys(data) == 0 {
		return LeafKey{}, errors.New("btree: a leaf past the tree's first holds no entry")
	}
	var l packedLeaf
	l.parse(data)
	return ly.leafKey(l.entry(0)), nil
}

// LeavesNoFill hands fn the tree's leaves in key order, from the one a Scan
// from the key from starts at to the last, each read around the pool
// (pager.BufferPool.GetNoFill), until fn returns false. Each must be a packed leaf of the Docid layout
// with docIDs set, else of the postings layout. fn gets the leaf's bytes,
// valid for the callback only, and the key range the leaf covers: lo, its
// first key, or the zero key for the tree's first leaf, and hi, the next
// leaf's first key, which bounds its keys from above (duplicates of hi may
// end the leaf); last marks the tree's last leaf, which has no hi. A leaf of
// another codec or layout, or one past the first that holds no entry, ends
// the walk with an error before fn sees the leaf before it.
//
// The bounds are the routing bounds Insert descends by as long as the tree
// takes no Delete: a leaf's first key is then the separator before it.
func (t *Tree) LeavesNoFill(from LeafKey, docIDs bool, fn func(data []byte, lo, hi LeafKey, last bool) bool) error {
	ly := postingsLayout
	if docIDs {
		ly = docIDLayout
	}
	var kb [packedKeyLen]byte
	p, first, err := t.descend(ly.putKey(ly.entryOf(from), &kb), true, true)
	if err != nil {
		return err
	}
	var lo LeafKey
	if first {
		err = checkLeaf(p.Data, ly)
	} else {
		lo, err = firstKey(p.Data, ly)
	}
	for err == nil {
		next := pageExtra(p.Data)
		if next == 0 {
			fn(p.Data, lo, LeafKey{}, true)
			break
		}
		var np pager.Page
		if np, err = t.forest.bp.GetNoFill(pager.PageID(next)); err != nil {
			break
		}
		var hi LeafKey
		if hi, err = firstKey(np.Data, ly); err != nil {
			np.Unpin(false)
			break
		}
		more := fn(p.Data, lo, hi, false)
		p.Unpin(false)
		p, lo = np, hi
		if !more {
			break
		}
	}
	p.Unpin(false)
	return err
}

// Image is a parsed leaf image: the bytes of a packed leaf held outside the
// pool, its header decoded once. Nothing writes to it after ParseImage, so
// any number of scans may share it.
type Image struct {
	leaf packedLeaf
	n    int // cells
}

// ParseImage parses image, a packed leaf.
func ParseImage(image []byte) (im Image) {
	im.leaf.parse(image)
	im.n = pageNumKeys(image)
	return im
}

// Span returns the cells [from, to) of the image that hold the keys in
// [lo, hi], searching only the ends that need it: cutLo when lo may lie past
// the image's first cell, cutHi when hi may lie before its last. A scan of a
// range within [lo, hi] needs no other cell, and one over a symbol's span
// searches that symbol's cells only.
func (im *Image) Span(lo, hi LeafKey, cutLo, cutHi bool) (from, to int) {
	l, to := &im.leaf, im.n
	if cutHi {
		k := l.ly.entryOf(hi)
		to = l.searchKey(&k, 1, 0, to)
	}
	if cutLo {
		k := l.ly.entryOf(lo)
		from = l.searchKey(&k, 0, 0, to)
	}
	return from, to
}

// Len returns the image's cell count.
func (im *Image) Len() int { return im.n }

// Seek returns the first of cells [lo, to) whose key lies past k — at or
// past k with incl — for a cursor at cell at. Over narrow cells ordered by
// one key field — a Docid leaf's, or a span of one symbol's postings, on
// Left — it gallops forward from at when the cell before at lies before k
// (gallopField), so a window that starts where the last one stopped, or a
// few cells on, costs a load or a few, and searches [lo, at) when the
// window went back; other cells it searches whole.
func (im *Image) Seek(lo, at, to int, k LeafKey, incl bool) int {
	l, e := &im.leaf, im.leaf.ly.entryOf(k)
	switch {
	case l.oneSymbol(lo, to, e[0]):
		return l.gallopField(1, e[1], incl, lo, at, to)
	case !l.twoKeys && l.width <= bitpack.MaxWindow && lo < to:
		return l.gallopField(0, e[0], incl, lo, at, to)
	}
	return l.seek(&e, incl, lo, to)
}

// ScanPostingsFrom hands fn the postings of cells [from, to) while their
// keys stay at or below hi (below hi without hiIncl), with no lower bound:
// Seek has placed from. It returns the first cell fn was not handed and
// whether the range may go on past cell to. It panics on an image of
// another layout.
func (im *Image) ScanPostingsFrom(from, to int, hi LeafKey, hiIncl bool, fn func(sym uint32, left, right uint64, level uint32) bool) (stop int, more bool) {
	return im.visit(postingsLayout, from, to, hi, hiIncl, visitor{posting: fn})
}

// ScanDocIDsFrom is ScanPostingsFrom for a Docid leaf, tombstones
// included.
func (im *Image) ScanDocIDsFrom(from, to int, hi LeafKey, hiIncl bool, fn func(term uint64, docID uint32, tombVersion uint64) bool) (stop int, more bool) {
	return im.visit(docIDLayout, from, to, hi, hiIncl, visitor{docID: fn})
}

func (im *Image) visit(ly *packedLayout, from, to int, hi LeafKey, hiIncl bool, fn visitor) (int, bool) {
	if im.leaf.ly != ly {
		panic("btree: a scan of " + ly.entries + " entries over another layout's leaf image")
	}
	h := ly.entryOf(hi)
	return im.leaf.visitFrom(from, to, &h, hiIncl, fn)
}

// LeafCopy is a packed leaf copied out of its pool frame, parsed, with the
// bounds a cursor moves by: a range-query cursor holds one between range
// queries where it would otherwise hold a pin, so a query pins no page
// between two of its scans however many levels it keeps a leaf at. Its
// buffer is reused by every copy after the first.
type LeafCopy struct {
	im   Image
	buf  []byte
	lo   LeafKey
	next uint32 // the next leaf's page; 0 for the tree's last leaf
}

// Image returns the copied leaf's parsed image.
func (c *LeafCopy) Image() *Image { return &c.im }

// Lo returns the leaf's lower bound, as LeavesNoFill gives it: its first
// key, or the zero key for the tree's first leaf. No leaf before it holds a
// key past its lower bound.
func (c *LeafCopy) Lo() LeafKey { return c.lo }

// Last reports whether the leaf is the tree's last.
func (c *LeafCopy) Last() bool { return c.next == 0 }

// take copies the pinned leaf p into c and unpins it.
func (c *LeafCopy) take(p pager.Page, lo LeafKey) {
	c.buf = append(c.buf[:0], p.Data...)
	c.im, c.lo, c.next = ParseImage(c.buf), lo, pageExtra(p.Data)
	p.Unpin(false)
}

// SeekLeaf copies into c the leaf a scan of keys past k (at or past k with
// incl) starts at, the one Scan's descent finds. The tree must hold packed
// leaves of the Docid layout with docIDs set, else of the postings layout;
// a leaf of another codec or layout, or one past the first that holds no
// entry, is an error. No pin outlives the call.
func (t *Tree) SeekLeaf(c *LeafCopy, k LeafKey, incl, docIDs bool) error {
	ly := postingsLayout
	if docIDs {
		ly = docIDLayout
	}
	var kb [packedKeyLen]byte
	p, first, err := t.descend(ly.putKey(ly.entryOf(k), &kb), incl, false)
	if err != nil {
		return err
	}
	var lo LeafKey
	if first {
		err = checkLeaf(p.Data, ly)
	} else {
		lo, err = firstKey(p.Data, ly)
	}
	if err != nil {
		p.Unpin(false)
		return err
	}
	c.take(p, lo)
	return nil
}

// NextLeaf reads the first key of the leaf after c's, hi, which bounds c's
// keys from above, and copies that leaf into c when hi is at most limit —
// when it may hold a key at or below limit. It reports hi and whether c
// moved. c must hold a leaf SeekLeaf or NextLeaf copied, not the tree's
// last. No pin outlives the call.
func (t *Tree) NextLeaf(c *LeafCopy, limit LeafKey) (hi LeafKey, moved bool, err error) {
	p, err := t.forest.bp.Get(pager.PageID(c.next))
	if err != nil {
		return hi, false, err
	}
	if hi, err = firstKey(p.Data, c.im.leaf.ly); err != nil || limit.Less(hi) {
		p.Unpin(false)
		return hi, false, err
	}
	c.take(p, hi)
	return hi, true, nil
}
