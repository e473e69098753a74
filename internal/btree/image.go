package btree

import (
	"errors"
	"fmt"

	"repro/internal/pager"
)

// A leaf image is the bytes of one packed leaf held outside the buffer pool,
// as the hot tier keeps them (internal/hot): LeavesNoFill hands them out with
// the key range each covers, and an Image scans them with the cell loop a
// ScanPostings or ScanDocIDs runs over a pool frame (scanFields).

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

// ScanPostings is ScanPostings over cells [from, to) of the image, with the
// bounds given as key fields. more reports that the range may go on past
// cell to. It panics on an image of another layout.
func (im *Image) ScanPostings(from, to int, lo, hi LeafKey, loIncl, hiIncl bool, fn func(sym uint32, left, right uint64, level uint32) bool) (more bool) {
	return im.scan(postingsLayout, from, to, lo, hi, loIncl, hiIncl, visitor{posting: fn})
}

// ScanDocIDs is ScanPostings for a Docid leaf: ScanDocIDs over cells
// [from, to) of the image.
func (im *Image) ScanDocIDs(from, to int, lo, hi LeafKey, loIncl, hiIncl bool, fn func(term uint64, docID uint32, tombVersion uint64) bool) (more bool) {
	return im.scan(docIDLayout, from, to, lo, hi, loIncl, hiIncl, visitor{docID: fn})
}

func (im *Image) scan(ly *packedLayout, from, to int, lo, hi LeafKey, loIncl, hiIncl bool, fn visitor) bool {
	if im.leaf.ly != ly {
		panic("btree: a scan of " + ly.entries + " entries over another layout's leaf image")
	}
	l, h := ly.entryOf(lo), ly.entryOf(hi)
	return im.leaf.scanFields(from, to, &l, &h, loIncl, hiIncl, fn)
}
