package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/pager"
)

// A Fill is how full BulkLoad seals leaves. The zero Fill is a static
// tree's: each leaf is sealed when its next entry would not fit (a packed
// one's, when it would widen the cells past the page), since nothing would
// use the room.
type Fill struct {
	// Insertable says inserts follow the load: its leaves are sealed
	// loadSlack short of full (a packed leaf at nine tenths of its cell
	// bits), so the scattered inserts that follow land in place, where a
	// full leaf splits into two part-empty ones on the first.
	Insertable bool
	// Version is the version counter of the index an insertable tree
	// belongs to. A loaded Docid leaf holds no tombstone yet, and its first
	// widens every cell by the tombstone's version; so each packed Docid
	// cell is counted wide enough for versions up to twice Version — the
	// tombstones the index carries over, written right after the load, and
	// as many deletes again — and those land in place too.
	Version uint64
}

// BulkLoad fills an empty tree bottom-up from a stream of entries in
// non-decreasing key order (duplicates keep stream order, matching Insert's
// stable-duplicate semantics). next returns one entry per call and io.EOF
// when the stream is exhausted. Leaves are filled left to right, then each
// internal level is built over the one below it, so loading n entries costs
// O(n) page writes with no splits — the streaming-ingest merge phase uses it
// to turn sorted posting runs into trees without per-entry descents.
//
// The tree must be empty: bulk loading reuses the existing root page as the
// first leaf and would orphan any prior contents. Every leaf takes the root
// leaf's cell format, and fill says how full.
//
// The resulting tree satisfies every invariant Check enforces; it differs
// from an Insert-built tree only in fill factor.
func (t *Tree) BulkLoad(fill Fill, next func() (key, val []byte, err error)) error {
	if t.count != 0 {
		return fmt.Errorf("btree: BulkLoad into non-empty tree %q (%d entries)", t.name, t.count)
	}
	var (
		prev  []byte
		total uint64
	)
	// entries is next with io.EOF turned into ok == false and every entry
	// checked for size and order.
	entries := func() (key, val []byte, ok bool, err error) {
		key, val, err = next()
		if err == io.EOF {
			return nil, nil, false, nil
		}
		if err != nil {
			return nil, nil, false, err
		}
		if len(key)+len(val) > MaxEntrySize {
			return nil, nil, false, fmt.Errorf("btree: entry of %d bytes exceeds MaxEntrySize %d", len(key)+len(val), MaxEntrySize)
		}
		if total > 0 && bytes.Compare(prev, key) > 0 {
			return nil, nil, false, fmt.Errorf("btree: BulkLoad keys out of order (%x after %x)", key, prev)
		}
		prev = append(prev[:0], key...)
		total++
		return key, val, true, nil
	}
	// The leaf being filled stays pinned and takes its cells in place.
	p, err := t.forest.bp.Get(t.root)
	if err != nil {
		return err
	}
	var leaves []childRef
	if ly := packedLayoutOf(pageKind(p.Data)); ly != nil {
		leaves, err = t.loadPackedLeaves(p, ly.loadPacking(fill), entries)
	} else {
		slack := 0
		if fill.Insertable {
			slack = loadSlack
		}
		leaves, err = t.loadLeaves(p, slack, entries)
	}
	if err != nil {
		return err
	}
	if total == 0 {
		return nil // the empty root leaf is already a valid empty tree
	}
	if t.root, err = t.buildLevels(leaves); err != nil {
		return err
	}
	t.count = total
	t.forest.markDirty(t)
	return nil
}

// buildLevels builds internal levels bottom-up over level, each node filled
// to the page, until one node spans the whole level, and returns that node's
// page: BulkLoad's internal levels, and the new root over a root that split.
func (t *Tree) buildLevels(level []childRef) (pager.PageID, error) {
	for len(level) > 1 {
		var (
			parents []childRef
			node    *nodePage
			first   []byte
			size    int
			flush   = func() error {
				id, err := t.allocNode(node)
				if err != nil {
					return err
				}
				parents = append(parents, childRef{first: first, page: id})
				return nil
			}
		)
		for _, child := range level {
			cost := slotSize + innerCellHdr + len(child.first)
			if node != nil && size+cost > pager.PageDataSize {
				if err := flush(); err != nil {
					return pager.InvalidPage, err
				}
				node = nil
			}
			if node == nil {
				// The leftmost child of a node is addressed by extra and
				// contributes no separator cell.
				node = &nodePage{kind: internalNode, extra: uint32(child.page)}
				first = child.first
				size = headerSize
				continue
			}
			node.inner = append(node.inner, innerCell{key: child.first, child: child.page})
			size += cost
		}
		if err := flush(); err != nil {
			return pager.InvalidPage, err
		}
		level = parents
	}
	return level[0].page, nil
}

// childRef is one node of the level BulkLoad is building over: its page and
// the first key of its subtree, the parent level's separator.
type childRef struct {
	first []byte
	page  pager.PageID
}

// loadSlack is the room BulkLoad leaves free on every leaf of a tree that
// takes inserts: a tenth of the page, the 90 % fill PostgreSQL's B-tree leaf
// fillfactor uses. It is a constant, not an option: such a tree is bulk
// loaded when a dynamic index is built or compacted, and what follows is
// always the same scattered insert stream, so there is no second workload
// to tune it for.
const loadSlack = pager.PageDataSize / 10

// loadLeaves is BulkLoad's leaf pass for a slotted or fixed-width tree: it
// fills the pinned root page p and its successors in place, each leaf of p's
// cell format, leaving slack bytes free on each. It releases the last leaf's
// pin.
func (t *Tree) loadLeaves(p pager.Page, slack int, entries func() (key, val []byte, ok bool, err error)) ([]childRef, error) {
	defer func() { p.Unpin(true) }()
	var leaves []childRef
	for {
		key, val, ok, err := entries()
		if err != nil || !ok {
			return leaves, err
		}
		if err := leafFits(p.Data, key, val); err != nil {
			return nil, err
		}
		if leafCellSize(pageKind(p.Data), len(key), len(val)) > pageFree(p.Data)-slack {
			// Seal the filled leaf by pointing it at a fresh successor of its
			// format (encode reads the widths only on a fixed-width leaf).
			np, err := t.forest.bp.NewPage()
			if err != nil {
				return nil, err
			}
			(&nodePage{kind: pageKind(p.Data), widths: [2]byte{p.Data[7], p.Data[8]}}).encode(np.Data)
			binary.LittleEndian.PutUint32(p.Data[3:7], uint32(np.ID))
			p.Unpin(true)
			p = np
		}
		if pageNumKeys(p.Data) == 0 {
			leaves = append(leaves, childRef{first: append([]byte(nil), key...), page: p.ID})
		}
		leafInsertAt(p.Data, pageNumKeys(p.Data), key, val)
	}
}
