// Package btree implements the disk-based B+-trees the PRIX system stores
// all its indexes in (§5.2 of the paper: Trie-Symbol indexes, Docid index;
// the ViST baseline's D-Ancestorship index uses the same trees).
//
// Multiple named trees share one page file through a Forest, mirroring how
// the paper keeps one B+-tree per element tag. Keys and values are
// arbitrary byte strings ordered by bytes.Compare; duplicate keys are
// allowed and kept in insertion order. Nodes live in the payload of
// pager pages (pager.PageDataSize bytes; the pager owns a per-page
// integrity header on top) and travel through the buffer pool, so every
// traversal is accounted in the pool's physical-read counter. Reads
// binary-search pages in place — through a slot directory, or by bit offset
// on the packed leaves of a PackedTree or a PackedDocIDTree — and leaf
// inserts and deletes edit both leaf codecs in place; only splits
// materialise slotted pages into memory, and a packed leaf splits by bits
// into as many leaves as its cells need.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/pager"
)

const (
	leafNode     = byte(1) // slotted leaf
	internalNode = byte(2)

	headerSize   = 9 // kind(1) + numKeys(2) + extra(4) + cellStart(2)
	slotSize     = 2 // per-cell offset
	leafCellHdr  = 4 // keyLen(2) + valLen(2)
	innerCellHdr = 6 // keyLen(2) + child(4)
)

// MaxEntrySize bounds len(key)+len(value) so that any page can hold at
// least four cells, keeping splits well defined.
const MaxEntrySize = (pager.PageDataSize-headerSize)/4 - leafCellHdr - slotSize

// Tree is one B+-tree inside a Forest.
type Tree struct {
	forest *Forest
	name   string
	root   pager.PageID
	count  uint64 // number of entries
}

// Name returns the tree's name within its forest.
func (t *Tree) Name() string { return t.name }

// Len returns the number of entries in the tree. It is kept in the forest's
// directory, so it commits with the entries it counts.
func (t *Tree) Len() uint64 { return t.count }

// decoded page representations (splits and bulk-built internal nodes) ----------

type leafCell struct {
	key, val []byte
}

type innerCell struct {
	key   []byte
	child pager.PageID
}

type nodePage struct {
	kind  byte
	extra uint32 // leaf: next-leaf page id; internal: leftmost child
	leaf  []leafCell
	inner []innerCell
}

// decodePage materialises a node. Its cells alias one private copy of the
// page, so the caller may re-encode over the page it decoded from.
func decodePage(data []byte) (*nodePage, error) {
	data = append([]byte(nil), data...)
	n := &nodePage{kind: pageKind(data), extra: pageExtra(data)}
	num := pageNumKeys(data)
	switch n.kind {
	case leafNode:
		n.leaf = make([]leafCell, num, num+1)
		for i := range n.leaf {
			n.leaf[i].key, n.leaf[i].val = leafCellAt(data, i)
		}
	case internalNode:
		n.inner = make([]innerCell, num, num+1)
		for i := range n.inner {
			n.inner[i].key, n.inner[i].child = innerCellAt(data, i)
		}
	default:
		return nil, fmt.Errorf("btree: unknown node kind %d", n.kind)
	}
	return n, nil
}

func (n *nodePage) size() int {
	sz := headerSize
	for _, c := range n.leaf {
		sz += leafCellSize(len(c.key), len(c.val))
	}
	for _, c := range n.inner {
		sz += slotSize + innerCellHdr + len(c.key)
	}
	return sz
}

// encode writes the node over data with cell i below cell i-1, the layout
// ascending in-place inserts produce too. A packed leaf is only ever encoded
// empty, as a new packed tree's root; a packer writes the others.
func (n *nodePage) encode(data []byte) {
	if ly := packedLayoutOf(n.kind); ly != nil {
		(&packer{pg: packing{ly: ly}}).encode(data, n.extra)
		return
	}
	clear(data)
	data[0] = n.kind
	binary.LittleEndian.PutUint32(data[3:7], n.extra)
	off := len(data)
	for i, c := range n.inner {
		off -= innerCellHdr + len(c.key)
		binary.LittleEndian.PutUint16(data[headerSize+slotSize*i:], uint16(off))
		binary.LittleEndian.PutUint16(data[off:off+2], uint16(len(c.key)))
		binary.LittleEndian.PutUint32(data[off+2:off+6], uint32(c.child))
		copy(data[off+innerCellHdr:], c.key)
	}
	binary.LittleEndian.PutUint16(data[1:3], uint16(len(n.inner)))
	binary.LittleEndian.PutUint16(data[7:9], uint16(off))
	for i, c := range n.leaf {
		leafInsertAt(data, i, c.key, c.val)
	}
}

// read/write helpers -----------------------------------------------------------

func (t *Tree) readNode(id pager.PageID) (*nodePage, error) {
	p, err := t.forest.bp.Get(id)
	if err != nil {
		return nil, err
	}
	n, err := decodePage(p.Data)
	p.Unpin(false)
	return n, err
}

func (t *Tree) writeNode(id pager.PageID, n *nodePage) error {
	p, err := t.forest.bp.Get(id)
	if err != nil {
		return err
	}
	n.encode(p.Data)
	p.Unpin(true)
	return nil
}

func (t *Tree) allocNode(n *nodePage) (pager.PageID, error) {
	p, err := t.forest.bp.NewPage()
	if err != nil {
		return pager.InvalidPage, err
	}
	n.encode(p.Data)
	id := p.ID
	p.Unpin(true)
	return id, nil
}

// Insert adds one (key, value) entry. Duplicate keys are allowed; equal keys
// keep their insertion order under Scan.
func (t *Tree) Insert(key, val []byte) error {
	if len(key)+len(val) > MaxEntrySize {
		return fmt.Errorf("btree: entry of %d bytes exceeds MaxEntrySize %d", len(key)+len(val), MaxEntrySize)
	}
	splits, err := t.insertRec(t.root, key, val)
	if err != nil {
		return err
	}
	if len(splits) > 0 {
		// Root split: grow the tree by the levels its new siblings need.
		root, err := t.buildLevels(append([]childRef{{page: t.root}}, splits...))
		if err != nil {
			return err
		}
		t.root = root
	}
	t.count++
	t.forest.markDirty(t)
	return nil
}

// insertRec inserts under page id. When the page splits it returns the new
// siblings to its right, each with its first key, the separator its parent
// takes: one for a slotted or internal page that split in two,
// as many as a packed leaf's cells need (splitPacked). The descent reads raw
// pages; only mutated nodes are decoded.
func (t *Tree) insertRec(id pager.PageID, key, val []byte) ([]childRef, error) {
	p, err := t.forest.bp.Get(id)
	if err != nil {
		return nil, err
	}
	if pageKind(p.Data) == internalNode {
		ci := innerChildIndex(p.Data, key)
		child := pageChildAt(p.Data, ci)
		p.Unpin(false)
		splits, err := t.insertRec(child, key, val)
		if err != nil || len(splits) == 0 {
			return nil, err
		}
		// A child split: decode, insert the separators, maybe split too.
		n, err := t.readNode(id)
		if err != nil {
			return nil, err
		}
		cells := make([]innerCell, len(splits))
		for i, s := range splits {
			cells[i] = innerCell{key: s.first, child: s.page}
		}
		n.inner = slices.Insert(n.inner, ci, cells...)
		if n.size() <= pager.PageDataSize {
			return nil, t.writeNode(id, n)
		}
		// Halve the node until every part fits a page: once for the one
		// separator a two-way split sends up.
		parts, ups := []*nodePage{n}, []innerCell(nil)
		for i := 0; i < len(parts); {
			m := parts[i]
			if m.size() <= pager.PageDataSize {
				i++
				continue
			}
			mid := splitIndex(len(m.inner), func(i int) int { return slotSize + innerCellHdr + len(m.inner[i].key) })
			up := m.inner[mid]
			right := &nodePage{kind: internalNode, extra: uint32(up.child), inner: m.inner[mid+1:]}
			m.inner = m.inner[:mid]
			parts = slices.Insert(parts, i+1, right)
			ups = slices.Insert(ups, i, up)
		}
		out := make([]childRef, len(ups))
		for i, up := range ups {
			rid, err := t.allocNode(parts[i+1])
			if err != nil {
				return nil, err
			}
			out[i] = childRef{first: up.key, page: rid}
		}
		return out, t.writeNode(id, n)
	}
	// Leaf: insert after all equal keys (stable duplicates), in place while
	// the cell fits.
	if isPacked(pageKind(p.Data)) {
		return t.insertPacked(p, key, val)
	}
	pos := leafUpperBound(p.Data, key)
	if leafCellSize(len(key), len(val)) <= pageFree(p.Data) {
		leafInsertAt(p.Data, pos, key, val)
		p.Unpin(true)
		return nil, nil
	}
	n, err := decodePage(p.Data)
	p.Unpin(false)
	if err != nil {
		return nil, err
	}
	n.leaf = append(n.leaf, leafCell{})
	copy(n.leaf[pos+1:], n.leaf[pos:])
	n.leaf[pos] = leafCell{key: key, val: val}
	// Split: move the upper half to a fresh right sibling. An append to the
	// last leaf moves only the new entry, so ascending loads (docid-ordered
	// sidecar chunks, Left-ordered postings) leave full leaves behind
	// instead of half-empty ones.
	mid := splitIndex(len(n.leaf), func(i int) int { return leafCellSize(len(n.leaf[i].key), len(n.leaf[i].val)) })
	if pos == len(n.leaf)-1 && n.extra == 0 {
		mid = pos
	}
	right := &nodePage{kind: leafNode, extra: n.extra, leaf: n.leaf[mid:]}
	n.leaf = n.leaf[:mid]
	rid, err := t.allocNode(right)
	if err != nil {
		return nil, err
	}
	n.extra = uint32(rid)
	if err := t.writeNode(id, n); err != nil {
		return nil, err
	}
	t.forest.leafSplits.Add(1)
	return []childRef{{first: right.leaf[0].key, page: rid}}, nil
}

// splitIndex cuts n cells of the given sizes where the left part reaches half
// of the bytes, leaving at least one cell on each side. Cutting by count
// instead could put more than a page of large cells on one side.
func splitIndex(n int, size func(i int) int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += size(i)
	}
	mid, left := 0, 0
	for mid < n-1 && left < total/2 {
		left += size(mid)
		mid++
	}
	return mid
}

// Get returns all values stored under exactly key, in insertion order.
func (t *Tree) Get(key []byte) ([][]byte, error) {
	var out [][]byte
	err := t.Scan(key, key, true, true, func(k, v []byte) bool {
		out = append(out, append([]byte(nil), v...))
		return true
	})
	return out, err
}

// Scan visits entries with lo <= k <= hi in key order (duplicates in
// insertion order), honouring the inclusivity flags. A nil lo means
// unbounded below; a nil hi means unbounded above. fn returns false to
// stop. The key and value slices alias buffer-pool memory (on packed
// leaves, a decode buffer the next entry overwrites) and are only valid for
// the duration of the callback; copy them to retain them.
func (t *Tree) Scan(lo, hi []byte, loIncl, hiIncl bool, fn func(key, val []byte) bool) error {
	return t.scan(lo, hi, loIncl, hiIncl, false, visitor{entry: fn})
}

// ScanPostings is Scan over a PackedTree of postings — 12-byte keys of a
// big-endian symbol ‖ Left, 12-byte values of a big-endian Right ‖ a
// little-endian level — handing fn each entry's fields as numbers: the
// cells decode straight into them, with no 24 bytes encoded for fn to
// decode again. A leaf of another codec or layout ends the scan with an
// error.
func (t *Tree) ScanPostings(lo, hi []byte, loIncl, hiIncl bool, fn func(sym uint32, left, right uint64, level uint32) bool) error {
	return t.scan(lo, hi, loIncl, hiIncl, false, visitor{posting: fn})
}

// ScanDocIDs is ScanPostings' twin over a PackedDocIDTree — 8-byte
// big-endian terminal LeftPos keys, DocIDValue values — handing
// fn each entry's terminal, docID and, for a tombstone, the version the
// document was deleted at (0 for a live entry).
func (t *Tree) ScanDocIDs(lo, hi []byte, loIncl, hiIncl bool, fn func(term uint64, docID uint32, tombVersion uint64) bool) error {
	return t.scan(lo, hi, loIncl, hiIncl, false, visitor{docID: fn})
}

// visitor is what a scan hands each entry to: entry as key and value bytes,
// or, for ScanPostings and ScanDocIDs, posting or docID as the entry's
// fields.
type visitor struct {
	entry   func(key, val []byte) bool
	posting func(sym uint32, left, right uint64, level uint32) bool
	docID   func(term uint64, docID uint32, tombVersion uint64) bool
}

// layout is the packed layout whose fields the visitor takes, nil for
// entry.
func (fn visitor) layout() *packedLayout {
	switch {
	case fn.posting != nil:
		return postingsLayout
	case fn.docID != nil:
		return docIDLayout
	}
	return nil
}

func (t *Tree) scan(lo, hi []byte, loIncl, hiIncl, noFill bool, fn visitor) error {
	p, _, err := t.descend(lo, loIncl, noFill)
	if err != nil {
		return err
	}
	return t.scanLeaves(p, lo, hi, loIncl, hiIncl, noFill, fn)
}

// get pins page id, around the pool (GetNoFill) when noFill is set.
func (t *Tree) get(id pager.PageID, noFill bool) (pager.Page, error) {
	if noFill {
		return t.forest.bp.GetNoFill(id)
	}
	return t.forest.bp.Get(id)
}

// descend returns the pinned leaf a scan from lo starts at, the first leaf
// for a nil lo, and whether it is the tree's first leaf.
func (t *Tree) descend(lo []byte, loIncl, noFill bool) (p pager.Page, first bool, err error) {
	id, first := t.root, true
	for {
		if p, err = t.get(id, noFill); err != nil {
			return p, false, err
		}
		if isLeaf(pageKind(p.Data)) {
			return p, first, nil
		}
		ci := 0
		switch {
		case lo == nil:
		case loIncl:
			ci = innerChildIndexLower(p.Data, lo)
		default:
			ci = innerChildIndex(p.Data, lo)
		}
		first = first && ci == 0
		id = pageChildAt(p.Data, ci)
		p.Unpin(false)
	}
}

// Prefetch warms the buffer pool with the pages a Scan over the same range
// is about to traverse, reading up to par pages concurrently. A Scan walks
// the leaf chain through next-pointers, so its cold reads form a serial
// dependency chain; Prefetch instead enumerates the in-range children
// level by level from the internal nodes, so the leaves load in parallel
// (the pool's request coalescing dedups against the scan itself and
// against concurrent prefetches). Purely best-effort: read errors are left
// for the Scan to surface, and an eviction between warm and use only costs
// a re-read. With hiIncl=false the boundary child may be warmed
// needlessly; that is at most one extra page. The return value is the
// number of non-resident pages warmed concurrently (span attribution for
// the query tracer); 0 means the readahead had nothing to do.
func (t *Tree) Prefetch(lo, hi []byte, loIncl bool, par int) int {
	var warmed atomic.Int64
	if par < 2 {
		return 0
	}
	bp := t.forest.bp
	// Readahead into a pool much smaller than the range would evict pages
	// ahead of the scan consuming them — thrashing that multiplies
	// physical reads instead of hiding them. Warm at most a quarter of the
	// pool and leave the rest to the scan's own chain.
	budget := bp.Capacity() / 4
	level := []pager.PageID{t.root}
	for len(level) > 0 && budget > 0 {
		if len(level) > budget {
			level = level[:budget]
		}
		budget -= len(level)
		// Warm the level's non-resident pages concurrently first — they
		// are exactly the reads a cold Scan would chain serially. In the
		// warm steady state nothing is missing and no goroutine is
		// spawned, keeping Prefetch near-free on the hot path.
		var missing []pager.PageID
		for _, id := range level {
			if !bp.Contains(id) {
				missing = append(missing, id)
			}
		}
		if len(missing) > 1 {
			sem := make(chan struct{}, par)
			var wg sync.WaitGroup
			for _, id := range missing {
				sem <- struct{}{}
				wg.Add(1)
				go func(id pager.PageID) {
					defer wg.Done()
					defer func() { <-sem }()
					if p, err := bp.Get(id); err == nil {
						warmed.Add(1)
						p.Unpin(false)
					}
				}(id)
			}
			wg.Wait()
		}
		var next []pager.PageID
		for li, id := range level {
			p, err := bp.Get(id)
			if err != nil {
				continue
			}
			data := p.Data
			if pageKind(data) != internalNode {
				p.Unpin(false)
				if li == 0 {
					// The tree is balanced, so the whole level is leaves:
					// they are warm now, and there is nothing below.
					return int(warmed.Load())
				}
				continue
			}
			{
				ciLo := 0
				switch {
				case lo == nil:
				case loIncl:
					ciLo = innerChildIndexLower(data, lo)
				default:
					ciLo = innerChildIndex(data, lo)
				}
				// Biased right so duplicate keys equal to hi stay in
				// range; bounds beyond this node's key span degenerate to
				// [0, numKeys] naturally.
				ciHi := pageNumKeys(data)
				if hi != nil {
					ciHi = innerChildIndex(data, hi)
				}
				for ci := ciLo; ci <= ciHi; ci++ {
					next = append(next, pageChildAt(data, ci))
				}
			}
			p.Unpin(false)
		}
		level = next
	}
	return int(warmed.Load())
}

// scanLeaves iterates leaf pages starting at the pinned page p (ownership
// of the pin transfers to scanLeaves), one leafScan visit a leaf.
func (t *Tree) scanLeaves(p pager.Page, lo, hi []byte, loIncl, hiIncl, noFill bool, fn visitor) error {
	var s leafScan
	defer s.release()
	for {
		more, err := s.visit(p.Data, lo, hi, loIncl, hiIncl, fn)
		// Page 0 is the forest meta page, never a leaf, so a zero next
		// means "no next leaf".
		next := pageExtra(p.Data)
		p.Unpin(false)
		if err != nil || !more || next == 0 {
			return err
		}
		if p, err = t.get(pager.PageID(next), noFill); err != nil {
			return err
		}
		lo = nil // subsequent leaves start from their beginning
	}
}

// leafScan is what a range scan decodes the leaves it visits with. The
// bounds and the visitor stay out of it: fn sees entries decoded into dec,
// so whatever dec's holder points at escapes, and a visitor kept beside it
// would be allocated on every scan.
type leafScan struct {
	// dec is the buffer packed entries decode into for fn.entry, or to be
	// compared with bounds of another length than the layout's keys.
	dec  *[packedEntryLen]byte
	leaf packedLeaf
}

// release returns the decode buffer to its pool.
func (s *leafScan) release() {
	if s.dec != nil {
		decodeBufs.Put(s.dec)
		s.dec = nil
	}
}

// visit hands fn the entries of the leaf data from the first at or past lo
// (nil: from its first) while they stay within hi. A visitor of fields over
// a packed leaf, with bounds that are keys of its layout, runs the leaf's
// scanFields, as a scan of a leaf image held outside the pool (Image) does;
// otherwise
// packed leaves are decoded entry by entry — for fn.entry into the one
// pooled buffer, which it sees for the callback only. more reports that the
// range goes on into the next leaf: no entry passed hi and fn asked for
// more. A visitor of fields gets an error for a leaf that is not a packed
// leaf of its layout.
func (s *leafScan) visit(data, lo, hi []byte, loIncl, hiIncl bool, fn visitor) (more bool, err error) {
	var packed *packedLeaf
	if ly := fn.layout(); ly != nil {
		if packedLayoutOf(pageKind(data)) != ly {
			return false, fmt.Errorf("btree: a scan of %s entries reached a leaf of %s cells", ly.entries, leafFormat(data))
		}
		if (lo == nil || len(lo) == ly.keyLen) && (hi == nil || len(hi) == ly.keyLen) {
			s.leaf.parse(data)
			var lk, hk packedEntry
			var lp, hp *packedEntry
			if lo != nil {
				lk, lp = ly.parseKey(lo), &lk
			}
			if hi != nil {
				hk, hp = ly.parseKey(hi), &hk
			}
			return s.leaf.scanFields(0, pageNumKeys(data), lp, hp, loIncl, hiIncl, fn), nil
		}
	}
	if isPacked(pageKind(data)) {
		s.leaf.parse(data)
		packed = &s.leaf
		if s.dec == nil {
			s.dec = decodeBufs.Get().(*[packedEntryLen]byte)
		}
	}
	start := 0
	if lo != nil {
		above := 1
		if loIncl {
			above = 0
		}
		start = leafSearch(data, packed, lo, above)
	}
	for i, num := start, pageNumKeys(data); i < num; i++ {
		var (
			k, v []byte
			e    packedEntry
		)
		if packed != nil {
			e = packed.entry(i)
			k, v = packed.ly.put(e, s.dec)
		} else {
			k, v = leafCellAt(data, i)
		}
		if hi != nil {
			if c := bytes.Compare(k, hi); c > 0 || c == 0 && !hiIncl {
				return false, nil
			}
		}
		switch {
		case fn.entry != nil:
			more = fn.entry(k, v)
		case fn.posting != nil:
			more = fn.posting(uint32(e[0]), e[1], e[1]+e[2], uint32(e[3]))
		default:
			more = fn.docID(e[0], uint32(e[1]), e[2])
		}
		if !more {
			return false, nil
		}
	}
	return true, nil
}

// Delete removes the first entry equal to (key, val); with val == nil it
// removes the first entry with the given key. It returns whether an entry
// was removed. Deletion is lazy: pages are never merged, matching the
// load-then-query workloads in the paper.
func (t *Tree) Delete(key, val []byte) (bool, error) {
	id := t.root
	for {
		p, err := t.forest.bp.Get(id)
		if err != nil {
			return false, err
		}
		if pageKind(p.Data) == internalNode {
			next := pageChildAt(p.Data, innerChildIndexLower(p.Data, key))
			p.Unpin(false)
			id = next
			continue
		}
		var (
			buf [packedEntryLen]byte
			l   packedLeaf
		)
		for {
			data := p.Data
			if isPacked(pageKind(data)) {
				l.parse(data)
			}
			for i, num := leafSearch(data, &l, key, 0), pageNumKeys(data); i < num; i++ {
				k, v := leafEntryAt(data, &l, i, &buf)
				if !bytes.Equal(k, key) {
					p.Unpin(false)
					return false, nil
				}
				if val == nil || bytes.Equal(v, val) {
					if isPacked(pageKind(data)) {
						deletePacked(data, i)
					} else {
						leafDeleteAt(data, i)
					}
					p.Unpin(true)
					t.count--
					t.forest.markDirty(t)
					return true, nil
				}
			}
			next := pageExtra(data)
			p.Unpin(false)
			if next == 0 {
				return false, nil
			}
			if p, err = t.forest.bp.Get(pager.PageID(next)); err != nil {
				return false, err
			}
		}
	}
}

// Shape is a tree's footprint: Pages counts the pages of each level, root
// first and leaves last (so its length is the height), LeafFill is the used
// share of the leaves' payload bytes, and LeafFormat names the leaves' cell
// format: "slotted", or "packed 7+17+13+6-bit" for the widest field of each
// of a layout's fields in any leaf — symbol, Left, scope and level for
// postings, LeftPos, docID and tombstone version ("packed 12+10+0-bit") for
// Docid entries.
type Shape struct {
	Entries    uint64
	Pages      []int
	LeafFill   float64
	LeafFormat string
}

// Shape walks the tree level by level. It trusts the pages it reads, so run
// it on a tree that Check has passed.
func (t *Tree) Shape() (Shape, error) {
	s := Shape{Entries: t.count}
	var (
		widest [4]byte
		ly     *packedLayout
	)
	for level := []pager.PageID{t.root}; ; {
		var next []pager.PageID
		used := 0
		for _, id := range level {
			p, err := t.forest.bp.Get(id)
			if err != nil {
				return s, err
			}
			if pageKind(p.Data) == internalNode {
				for i := 0; i <= pageNumKeys(p.Data); i++ {
					next = append(next, pageChildAt(p.Data, i))
				}
			} else {
				if s.LeafFormat == "" {
					s.LeafFormat = leafFormat(p.Data)
					ly = packedLayoutOf(pageKind(p.Data))
				}
				if isPacked(pageKind(p.Data)) {
					for j := range widest {
						widest[j] = max(widest[j], p.Data[7+j])
					}
				}
			}
			used += len(p.Data) - pageFree(p.Data)
			p.Unpin(false)
		}
		s.Pages = append(s.Pages, len(level))
		if len(next) == 0 {
			s.LeafFill = float64(used) / float64(len(level)*pager.PageDataSize)
			if ly != nil {
				w := make([]string, ly.fields)
				for j := range w {
					w[j] = strconv.Itoa(int(widest[j]))
				}
				s.LeafFormat = "packed " + strings.Join(w, "+") + "-bit"
			}
			return s, nil
		}
		level = next
	}
}
