// Package twigstack implements the comparison baselines of the PRIX paper's
// evaluation: the stack-based holistic twig join algorithms PathStack and
// TwigStack of Bruno, Koudas and Srivastava (SIGMOD 2002), and TwigStackXB,
// the variant that reads its input streams through XB-trees so that regions
// of the input provably containing no matches can be skipped.
//
// Element instances are stored as sorted streams of positional
// representations (Left, Right, Level). A collection of documents is mapped
// into a single global region space by offsetting every document's region
// numbers with docID << 32, which preserves the containment property and
// keeps documents disjoint — the standard trick for running structural
// joins over collections.
package twigstack

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/docstore"
	"repro/internal/pager"
	"repro/internal/vtrie"
	"repro/internal/xmltree"
)

// Entry is one element instance in global positional representation.
type Entry struct {
	L, R  uint64
	Level int32
}

// contains reports whether e is a proper ancestor of d.
func (e Entry) contains(d Entry) bool { return e.L < d.L && d.R < e.R }

// DocID recovers the document a global position belongs to.
func DocID(pos uint64) uint32 { return uint32(pos >> 32) }

// globalPos builds a global position from a document id and region number.
func globalPos(doc uint32, region int) uint64 { return uint64(doc)<<32 | uint64(uint32(region)) }

const entrySize = 20 // L(8) + R(8) + Level(4)

// entriesPerPage is how many entries fit a page payload after the 4-byte
// count.
const entriesPerPage = (pager.PageDataSize - 4) / entrySize

// Store holds the per-label streams and their XB-trees in one page file.
type Store struct {
	bp   *pager.BufferPool
	dict *docstore.Dict
	segs map[vtrie.Symbol]*segment
	// meta kept for stats
	numDocs int
}

// segment describes one label's stream and its XB-tree.
type segment struct {
	count     int // number of entries
	leafPages []pager.PageID
	xbRoot    pager.PageID // InvalidPage when the XB-tree is just the leaves
	xbLevels  int
}

// Build constructs the streams (and XB-trees) for a document collection.
// Labels are namespaced exactly like the PRIX index: element tags as-is,
// values behind a NUL prefix, so the same twig queries run on both engines.
func Build(docs []*xmltree.Document, bp *pager.BufferPool, dict *docstore.Dict) (*Store, error) {
	if bp.NumPages() != 0 {
		return nil, fmt.Errorf("twigstack: Build over a non-empty file; use Open")
	}
	s := &Store{bp: bp, dict: dict, segs: map[vtrie.Symbol]*segment{}, numDocs: len(docs)}
	// Reserve page 0 for the persistence header written by Flush.
	hdr, err := bp.NewPage()
	if err != nil {
		return nil, err
	}
	copy(hdr.Data, streamMagic)
	hdr.Unpin(true)
	// Gather entries per label. Documents are processed in id order and
	// nodes in Left order, so per-label slices come out sorted by L.
	byLabel := map[vtrie.Symbol][]Entry{}
	for id, doc := range docs {
		if err := doc.Validate(); err != nil {
			return nil, fmt.Errorf("twigstack: document %d: %w", id, err)
		}
		nodes := append([]*xmltree.Node(nil), doc.Nodes...)
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].Left < nodes[j].Left })
		for _, n := range nodes {
			sym := internSym(dict, n.Label, n.IsValue)
			byLabel[sym] = append(byLabel[sym], Entry{
				L:     globalPos(uint32(id), n.Left),
				R:     globalPos(uint32(id), n.Right),
				Level: int32(n.Level),
			})
		}
	}
	syms := make([]vtrie.Symbol, 0, len(byLabel))
	for sym := range byLabel {
		syms = append(syms, sym)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
	for _, sym := range syms {
		seg, err := s.writeSegment(byLabel[sym])
		if err != nil {
			return nil, err
		}
		s.segs[sym] = seg
	}
	return s, nil
}

func internSym(dict *docstore.Dict, label string, isValue bool) vtrie.Symbol {
	if isValue {
		return dict.Intern("\x00" + label)
	}
	return dict.Intern(label)
}

// lookupSym resolves a label without interning.
func lookupSym(dict *docstore.Dict, label string, isValue bool) (vtrie.Symbol, bool) {
	if isValue {
		return dict.Lookup("\x00" + label)
	}
	return dict.Lookup(label)
}

// Page layouts. Leaf page: count uint32, then entries (L, R, Level).
// Internal XB page: count uint32, then per child (minL 8, maxR 8, child 4).
const xbEntrySize = 20
const xbPerPage = (pager.PageDataSize - 4) / xbEntrySize

func (s *Store) writeSegment(entries []Entry) (*segment, error) {
	seg := &segment{count: len(entries), xbRoot: pager.InvalidPage}
	// Leaf level.
	for off := 0; off < len(entries); off += entriesPerPage {
		end := off + entriesPerPage
		if end > len(entries) {
			end = len(entries)
		}
		p, err := s.bp.NewPage()
		if err != nil {
			return nil, err
		}
		chunk := entries[off:end]
		binary.LittleEndian.PutUint32(p.Data[0:4], uint32(len(chunk)))
		for i, e := range chunk {
			o := 4 + i*entrySize
			binary.LittleEndian.PutUint64(p.Data[o:o+8], e.L)
			binary.LittleEndian.PutUint64(p.Data[o+8:o+16], e.R)
			binary.LittleEndian.PutUint32(p.Data[o+16:o+20], uint32(e.Level))
		}
		seg.leafPages = append(seg.leafPages, p.ID)
		p.Unpin(true)
	}
	// Internal XB levels: (minL, maxR, child) per child page.
	type span struct {
		minL, maxR uint64
		page       pager.PageID
	}
	level := make([]span, 0, len(seg.leafPages))
	for i, pid := range seg.leafPages {
		lo := i * entriesPerPage
		hi := lo + entriesPerPage
		if hi > len(entries) {
			hi = len(entries)
		}
		maxR := uint64(0)
		for _, e := range entries[lo:hi] {
			if e.R > maxR {
				maxR = e.R
			}
		}
		level = append(level, span{minL: entries[lo].L, maxR: maxR, page: pid})
	}
	seg.xbLevels = 1
	for len(level) > 1 {
		var next []span
		for off := 0; off < len(level); off += xbPerPage {
			end := off + xbPerPage
			if end > len(level) {
				end = len(level)
			}
			p, err := s.bp.NewPage()
			if err != nil {
				return nil, err
			}
			chunk := level[off:end]
			binary.LittleEndian.PutUint32(p.Data[0:4], uint32(len(chunk)))
			maxR := uint64(0)
			for i, sp := range chunk {
				o := 4 + i*xbEntrySize
				binary.LittleEndian.PutUint64(p.Data[o:o+8], sp.minL)
				binary.LittleEndian.PutUint64(p.Data[o+8:o+16], sp.maxR)
				binary.LittleEndian.PutUint32(p.Data[o+16:o+20], uint32(sp.page))
				if sp.maxR > maxR {
					maxR = sp.maxR
				}
			}
			next = append(next, span{minL: chunk[0].minL, maxR: maxR, page: p.ID})
			p.Unpin(true)
		}
		level = next
		seg.xbLevels++
	}
	if len(level) == 1 && len(seg.leafPages) > 1 {
		seg.xbRoot = level[0].page
	} else if len(seg.leafPages) == 1 {
		seg.xbRoot = pager.InvalidPage // single leaf: no internal levels
	}
	return seg, nil
}

// BufferPool exposes the pool for I/O accounting.
func (s *Store) BufferPool() *pager.BufferPool { return s.bp }

// Dict exposes the label dictionary.
func (s *Store) Dict() *docstore.Dict { return s.dict }

// StreamLen returns the number of instances of a label.
func (s *Store) StreamLen(label string, isValue bool) int {
	sym, ok := lookupSym(s.dict, label, isValue)
	if !ok {
		return 0
	}
	seg := s.segs[sym]
	if seg == nil {
		return 0
	}
	return seg.count
}

// readLeaf loads leaf page idx of a segment.
func (s *Store) readLeaf(seg *segment, idx int) ([]Entry, error) {
	p, err := s.bp.Get(seg.leafPages[idx])
	if err != nil {
		return nil, err
	}
	count := int(binary.LittleEndian.Uint32(p.Data[0:4]))
	out := make([]Entry, count)
	for i := 0; i < count; i++ {
		o := 4 + i*entrySize
		out[i] = Entry{
			L:     binary.LittleEndian.Uint64(p.Data[o : o+8]),
			R:     binary.LittleEndian.Uint64(p.Data[o+8 : o+16]),
			Level: int32(binary.LittleEndian.Uint32(p.Data[o+16 : o+20])),
		}
	}
	p.Unpin(false)
	return out, nil
}
