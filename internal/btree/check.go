package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/pager"
)

// Check walks every tree in the forest and validates its structural
// invariants: page shapes (slot offsets and cell lengths in bounds, or a
// packed leaf's cells inside its page), key ordering within
// pages and across separators, equal depth of all leaves, one cell format
// across a tree's leaves, absence of page-reference cycles, and per-tree entry counts
// matching the directory. It returns every problem found (bounded, so a
// badly damaged file does not produce millions of lines); an empty slice
// means the forest is sound. Check never panics on damaged pages — that is
// its whole point — and it reads through the buffer pool, so page checksums
// are verified on the way.
func (f *Forest) Check() []error {
	f.mu.Lock()
	names := make([]string, 0, len(f.trees))
	for n := range f.trees {
		names = append(names, n)
	}
	trees := make(map[string]*Tree, len(f.trees))
	for n, t := range f.trees {
		trees[n] = t
	}
	f.mu.Unlock()

	c := &checker{bp: f.bp}
	for _, name := range names {
		t := trees[name]
		c.tree = name
		c.visited = make(map[pager.PageID]bool)
		c.leafDepth = -1
		c.leafFormat = ""
		entries := c.walk(t.root, 0, nil, nil)
		if c.full() {
			break
		}
		if entries != t.count {
			c.report(t.root, "directory says %d entries, tree holds %d", t.count, entries)
		}
	}
	return c.errs
}

const maxCheckErrors = 64

type checker struct {
	bp        *pager.BufferPool
	tree      string
	visited   map[pager.PageID]bool
	leafDepth int
	// leafFormat is the cell format of the tree's first leaf; every other
	// leaf must share it.
	leafFormat string
	errs       []error
}

func (c *checker) full() bool { return len(c.errs) >= maxCheckErrors }

func (c *checker) report(id pager.PageID, format string, args ...any) {
	if c.full() {
		return
	}
	msg := fmt.Sprintf(format, args...)
	c.errs = append(c.errs, fmt.Errorf("btree: tree %q page %d: %s", c.tree, id, msg))
}

// walk validates the subtree rooted at id, whose keys must all lie in
// [low, high] (nil = unbounded), and returns its entry count. It records
// problems instead of failing fast, but never descends through a page it
// could not validate.
func (c *checker) walk(id pager.PageID, depth int, low, high []byte) uint64 {
	if c.full() {
		return 0
	}
	if c.visited[id] {
		c.report(id, "page referenced twice (cycle or shared node)")
		return 0
	}
	c.visited[id] = true
	p, err := c.bp.Get(id)
	if err != nil {
		if c.full() {
			return 0
		}
		c.errs = append(c.errs, fmt.Errorf("btree: tree %q page %d: %w", c.tree, id, err))
		return 0
	}
	defer p.Unpin(false)
	data := p.Data
	if err := validateNodeShape(data); err != nil {
		c.report(id, "%v", err)
		return 0
	}
	num := pageNumKeys(data)
	if isLeaf(pageKind(data)) {
		if c.leafDepth == -1 {
			c.leafDepth = depth
		} else if depth != c.leafDepth {
			c.report(id, "leaf at depth %d, expected %d", depth, c.leafDepth)
		}
		if f := leafFormat(data); c.leafFormat == "" {
			c.leafFormat = f
		} else if f != c.leafFormat {
			c.report(id, "leaf cells are %s, its siblings' %s", f, c.leafFormat)
		}
		var (
			buf [packedKeyLen]byte
			l   packedLeaf
		)
		if isPacked(pageKind(data)) {
			l.parse(data)
		}
		for i := 0; i < num; i++ {
			k := leafKeyAt(data, &l, i, &buf)
			if low != nil && bytes.Compare(k, low) < 0 {
				c.report(id, "key %x below its subtree bound %x", k, low)
			}
			if high != nil && bytes.Compare(k, high) > 0 {
				c.report(id, "key %x above its subtree bound %x", k, high)
			}
		}
		return uint64(num)
	}
	// Internal node: children bracketed by the separators. Duplicates make
	// bounds inclusive on both sides (equal keys may sit either side of
	// their separator after a split).
	var entries uint64
	childLow := low
	for i := 0; i <= num; i++ {
		childHigh := high
		if i < num {
			k, _ := innerCellAt(data, i)
			childHigh = k
		}
		child := pageChildAt(data, i)
		if uint32(child) >= c.bp.File().NumPages() {
			c.report(id, "child %d is page %d, beyond the file's %d pages", i, child, c.bp.File().NumPages())
		} else {
			entries += c.walk(child, depth+1, childLow, childHigh)
		}
		if c.full() {
			return entries
		}
		childLow = childHigh
	}
	return entries
}

// validateNodeShape bounds-checks a node page so the raw accessors cannot
// read (or panic) outside it: kind byte, slot directory, per-cell offsets
// and lengths (or a packed leaf's field widths and cell area), and in-page
// key ordering — decoded keys, on a packed leaf.
func validateNodeShape(data []byte) error {
	kind := pageKind(data)
	num := pageNumKeys(data)
	switch kind {
	case packedLeafNode, packedDocIDLeafNode:
		if err := validatePacked(data, num); err != nil {
			return err
		}
	case leafNode, internalNode:
		if err := validateSlots(data, kind, num); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown node kind %d", kind)
	}
	// Two buffers, so a packed leaf's previous decoded key survives the next.
	var (
		bufs [2][packedKeyLen]byte
		prev []byte
		l    packedLeaf
	)
	if isPacked(kind) {
		l.parse(data)
	}
	for i := 0; i < num; i++ {
		var key []byte
		if kind == internalNode {
			key, _ = innerCellAt(data, i)
		} else {
			key = leafKeyAt(data, &l, i, &bufs[i%2])
		}
		if prev != nil && bytes.Compare(prev, key) > 0 {
			return fmt.Errorf("cell %d key out of order", i)
		}
		prev = key
	}
	return nil
}

// validateSlots bounds-checks a slotted page's directory and every cell it
// points at.
func validateSlots(data []byte, kind byte, num int) error {
	slotsEnd := headerSize + slotSize*num
	if slotsEnd > len(data) {
		return fmt.Errorf("%d cells overflow the slot directory", num)
	}
	hdr := leafCellHdr
	if kind == internalNode {
		hdr = innerCellHdr
	}
	for i := 0; i < num; i++ {
		off := slotOffset(data, i)
		if off < slotsEnd {
			return fmt.Errorf("cell %d offset %d inside the slot directory", i, off)
		}
		if off+hdr > len(data) {
			return fmt.Errorf("cell %d header out of page (offset %d)", i, off)
		}
		end := off + hdr + int(binary.LittleEndian.Uint16(data[off:off+2]))
		if kind == leafNode {
			end += int(binary.LittleEndian.Uint16(data[off+2 : off+4]))
		}
		if end > len(data) {
			return fmt.Errorf("cell %d body out of page (ends at %d)", i, end)
		}
	}
	return nil
}
