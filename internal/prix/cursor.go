package prix

import (
	"repro/internal/btree"
	"repro/internal/hot"
)

// levelCursor is one query level's place in its posting source: the leaf it
// stands on in its key range — a symbol's range of the postings tree, or, for
// the terminal scans, the whole Docid tree — and the cell its last range
// query stopped at. Algorithm 1 issues one range query per surviving hit of
// the level above, and within one level those windows rise in depth-first
// order: they are the trie ranges of the hits above, which are nested or
// disjoint, visited in Left order. So the cursor gallops forward within the
// leaf it stands on and follows the next pointer off its end, and goes back
// to the tree (a re-seek, counted in QueryStats.Reseeks) only for a window
// that starts before its leaf — nested in an earlier one, as under a symbol
// repeated along a trie path (a→b→a) — or past the leaf after it.
//
// The cursor always scans a parsed btree.Image; its source only decides
// where the next image comes from. A resident range (the hot tier's run,
// resolved on the cursor's first range query, so a level the walk never
// reaches costs nothing) lends the tier's images. A paged range copies each
// leaf the cursor enters out of its pool frame into the cursor's buffer
// (btree.LeafCopy), so no pin is held between two range queries, however
// many levels hold a leaf. Both move by the same bounds, the ones
// btree.Tree.LeavesNoFill gives a leaf, so a resident and a paged cursor
// take the same steps and count the same re-seeks.
//
// A cursor lives in the scratch of the goroutine walking the level, one per
// level; a spawned subtree starts its own.
type levelCursor struct {
	tree   *btree.Tree
	kind   hot.Kind
	lo, hi btree.LeafKey // the key range the cursor scans within

	resolved, resident bool
	run                hot.Run        // the range's resident images
	k                  int            // the run image the cursor stands on
	copy               btree.LeafCopy // the paged leaf it stands on

	placed bool
	leaf   *btree.Image
	// from and to bound the range's cells in leaf; pos is where the last
	// range query stopped, the hint the next one gallops from.
	from, to, pos int
	// leafLo and leafHi bound the leaf's keys: no leaf before it holds a
	// key past leafLo, and its own keys stay at or below leafHi, the next
	// leaf's first key, once hiKnown (a paged cursor learns it from the next
	// leaf). last marks the tree's last leaf.
	leafLo, leafHi btree.LeafKey
	hiKnown, last  bool
}

// bind points the cursor at tree's key range [lo, hi], unresolved and
// unplaced, keeping its buffers; a nil tree releases what the cursor held of
// the last query's index.
func (c *levelCursor) bind(tree *btree.Tree, kind hot.Kind, lo, hi btree.LeafKey) {
	clear(c.run)
	c.tree, c.kind, c.lo, c.hi, c.run = tree, kind, lo, hi, c.run[:0]
	c.resolved, c.resident, c.placed, c.leaf = false, false, false, nil
}

// resolve looks the cursor's range up in the hot tier, once per cursor.
func (c *levelCursor) resolve(ix *Index) {
	c.resolved = true
	c.run, c.resident = ix.hotRun(c.tree, c.kind, c.lo, c.hi, c.run[:0])
}

// seek places the cursor from the top — the run's start or the tree's root —
// on the leaf a scan of keys past k (at or past k with incl) starts at.
func (c *levelCursor) seek(k btree.LeafKey, incl bool) error {
	if c.resident {
		c.k = c.run.Seek(k, incl)
		c.enterRun()
	} else {
		c.placed = false
		if err := c.tree.SeekLeaf(&c.copy, k, incl, c.kind == hot.KindDocIDs); err != nil {
			return err
		}
		c.enterCopy()
	}
	c.placed = true
	c.pos = c.leaf.Seek(c.from, c.from, c.to, k, incl)
	return nil
}

// enterRun stands the cursor on run image k.
func (c *levelCursor) enterRun() {
	im := &c.run[c.k]
	c.leaf, c.from, c.to, c.pos = im.Leaf, int(im.From), int(im.To), int(im.From)
	c.leafLo, c.leafHi, c.hiKnown, c.last = im.Lo, im.Hi, true, im.Last
}

// enterCopy stands the cursor on the leaf its copy holds.
func (c *levelCursor) enterCopy() {
	c.leaf = c.copy.Image()
	c.from, c.to = c.leaf.Span(c.lo, c.hi, true, true)
	c.pos = c.from
	c.leafLo, c.hiKnown, c.last = c.copy.Lo(), false, c.copy.Last()
}

// advance moves the cursor onto the next leaf when that leaf may hold a key
// of the range at or below limit: the range goes on past this leaf's cells
// and the next leaf's first key is at most limit. It reports whether it
// moved.
func (c *levelCursor) advance(limit btree.LeafKey) (bool, error) {
	if c.last || c.to < c.leaf.Len() || c.hiKnown && limit.Less(c.leafHi) {
		return false, nil
	}
	if c.resident {
		// The run holds every leaf whose first key lies in the range, and
		// this one's next starts at leafHi ≤ limit ≤ hi.
		if c.k+1 == len(c.run) {
			return false, nil
		}
		c.k++
		c.enterRun()
		return true, nil
	}
	hi, moved, err := c.tree.NextLeaf(&c.copy, limit)
	if err != nil || !moved {
		c.leafHi, c.hiKnown = hi, err == nil
		return false, err
	}
	c.enterCopy()
	return true, nil
}

// start places the cursor at the first cell of the window of keys past k
// (at or past k with incl) and at or below limit, from where it stands when
// it can: galloping on within its leaf, or stepping onto the next one when
// the window starts past every cell of this one. A window that starts before
// the leaf, or past the leaf after it, re-seeks from the top and counts in
// stats; the cursor's first window places it without counting.
func (c *levelCursor) start(k, limit btree.LeafKey, incl bool, stats *QueryStats) error {
	if !c.placed {
		return c.seek(k, incl)
	}
	if k.Less(c.leafLo) || incl && k == c.leafLo && c.leafLo != (btree.LeafKey{}) {
		stats.Reseeks++ // an earlier leaf may hold keys of the window
		return c.seek(k, incl)
	}
	if c.pos = c.leaf.Seek(c.from, c.pos, c.to, k, incl); c.pos < c.leaf.Len() {
		return nil
	}
	if moved, err := c.advance(limit); err != nil || !moved {
		return err // the window holds nothing past this leaf
	}
	if c.pos = c.leaf.Seek(c.from, c.from, c.to, k, incl); c.pos < c.leaf.Len() || c.last {
		return nil
	}
	stats.Reseeks++ // the window starts past the next leaf too
	return c.seek(k, incl)
}

// scanPostings is Algorithm 1's range query over a level's postings: it
// hands fn each posting with a key past k and at or below limit, in key
// order.
func (c *levelCursor) scanPostings(k, limit btree.LeafKey, stats *QueryStats, fn func(sym uint32, left, right uint64, level uint32) bool) error {
	if err := c.start(k, limit, false, stats); err != nil {
		return err
	}
	for {
		stop, more := c.leaf.ScanPostingsFrom(c.pos, c.to, limit, true, fn)
		c.pos = stop
		if !more {
			return nil
		}
		if moved, err := c.advance(limit); err != nil || !moved {
			return err
		}
	}
}

// scanDocIDs is scanPostings over the Docid tree: it hands fn every entry,
// tombstones included, with a key in [k, limit], until fn returns false.
func (c *levelCursor) scanDocIDs(k, limit btree.LeafKey, stats *QueryStats, fn func(term uint64, docID uint32, tombVersion uint64) bool) error {
	if err := c.start(k, limit, true, stats); err != nil {
		return err
	}
	for {
		stop, more := c.leaf.ScanDocIDsFrom(c.pos, c.to, limit, true, fn)
		c.pos = stop
		if !more {
			return nil
		}
		if moved, err := c.advance(limit); err != nil || !moved {
			return err
		}
	}
}
