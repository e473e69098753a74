package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/pager"
)

// forestMagic identifies page 0 of a forest file.
var forestMagic = []byte("PRIXFST1")

// Forest is a collection of named B+-trees sharing one page file. The PRIX
// system keeps one tree per element tag (the Trie-Symbol indexes) plus the
// Docid index in a single forest, as ViST keeps its D-Ancestorship index.
//
// Page 0 (and chained continuation pages) hold the directory mapping tree
// names to root pages; Flush persists it.
type Forest struct {
	mu    sync.Mutex
	bp    *pager.BufferPool
	trees map[string]*Tree
	dirty bool
	// metaPages is the chain of directory pages, first is page 0.
	metaPages []pager.PageID
	// leafSplits counts the leaves Insert has split since Open.
	leafSplits atomic.Uint64
}

// Open opens (or initialises) a forest over the buffer pool's file.
func Open(bp *pager.BufferPool) (*Forest, error) {
	f := &Forest{bp: bp, trees: make(map[string]*Tree)}
	if bp.File().NumPages() == 0 {
		p, err := bp.NewPage()
		if err != nil {
			return nil, err
		}
		if p.ID != 0 {
			return nil, fmt.Errorf("btree: meta page allocated as %d, want 0", p.ID)
		}
		copy(p.Data, forestMagic)
		p.Unpin(true)
		f.metaPages = []pager.PageID{0}
		f.dirty = true
		return f, nil
	}
	if err := f.loadDirectory(); err != nil {
		return nil, err
	}
	return f, nil
}

// LeafSplits returns how many leaves Insert has split, in every tree of the
// forest, since the forest was opened (a packed leaf split into several
// counts once): the churn a compaction's bulk load (which splits nothing)
// would reset.
func (f *Forest) LeafSplits() uint64 { return f.leafSplits.Load() }

// BufferPool returns the pool the forest performs all I/O through.
func (f *Forest) BufferPool() *pager.BufferPool { return f.bp }

// Tree returns the named tree, creating an empty one with slotted leaves if
// it does not exist.
func (f *Forest) Tree(name string) (*Tree, error) {
	return f.tree(name, &nodePage{kind: leafNode})
}

// PackedTree returns the named tree, creating an empty one with packed leaves
// of the postings layout (packed.go) if it does not exist. It holds the
// postings' 12+12-byte entries. An existing tree is returned in whatever leaf
// format it was created with.
func (f *Forest) PackedTree(name string) (*Tree, error) {
	return f.tree(name, &nodePage{kind: packedLeafNode})
}

// PackedDocIDTree is PackedTree for a Docid tree: packed leaves of the Docid
// layout, entries of an 8-byte terminal LeftPos key and a DocIDValue.
func (f *Forest) PackedDocIDTree(name string) (*Tree, error) {
	return f.tree(name, &nodePage{kind: packedDocIDLeafNode})
}

// tree returns the named tree, creating it with root, an empty leaf of the
// tree's codec, if it does not exist.
func (f *Forest) tree(name string, root *nodePage) (*Tree, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if t, ok := f.trees[name]; ok {
		return t, nil
	}
	t := &Tree{forest: f, name: name}
	id, err := t.allocNode(root)
	if err != nil {
		return nil, err
	}
	t.root = id
	f.trees[name] = t
	f.dirty = true
	return t, nil
}

// Lookup returns the named tree or nil if it does not exist.
func (f *Forest) Lookup(name string) *Tree {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.trees[name]
}

// Names returns the sorted names of all trees in the forest.
func (f *Forest) Names() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.trees))
	for n := range f.trees {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Reset drops every tree from the forest, leaving an empty directory over
// the same file. The directory page chain is kept and rewritten by the next
// Flush; the old trees' node pages stay allocated but become unreachable,
// so a rebuild can zero the ones whose stored images are damaged. This is
// the destructive half of forest repair: callers repopulate the forest from
// the surviving document records before flushing.
func (f *Forest) Reset() {
	f.mu.Lock()
	f.trees = make(map[string]*Tree)
	f.dirty = true
	f.mu.Unlock()
}

func (f *Forest) markDirty(*Tree) {
	f.mu.Lock()
	f.dirty = true
	f.mu.Unlock()
}

// Flush persists the directory and all cached pages to the file.
func (f *Forest) Flush() error {
	f.mu.Lock()
	if f.dirty {
		if err := f.storeDirectoryLocked(); err != nil {
			f.mu.Unlock()
			return err
		}
		f.dirty = false
	}
	f.mu.Unlock()
	return f.bp.FlushAll()
}

// directory serialisation ------------------------------------------------------

// Directory payload: numTrees uint32, then per tree:
// nameLen uint16, name, root uint32, count uint64.
// The payload is spread over a chain of meta pages, each laid out as
// [magic? only page 0][next uint32][used uint16][payload...].

const (
	metaHdrPage0 = 8 + 4 + 2 // magic + next + used
	metaHdrCont  = 4 + 2     // next + used
)

func (f *Forest) storeDirectoryLocked() error {
	var buf bytes.Buffer
	var scratch [12]byte
	names := make([]string, 0, len(f.trees))
	for n := range f.trees {
		names = append(names, n)
	}
	sort.Strings(names)
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(names)))
	buf.Write(scratch[:4])
	for _, n := range names {
		t := f.trees[n]
		binary.LittleEndian.PutUint16(scratch[:2], uint16(len(n)))
		buf.Write(scratch[:2])
		buf.WriteString(n)
		binary.LittleEndian.PutUint32(scratch[:4], uint32(t.root))
		buf.Write(scratch[:4])
		binary.LittleEndian.PutUint64(scratch[:8], t.count)
		buf.Write(scratch[:8])
	}
	payload := buf.Bytes()
	// Split the payload into per-page chunks up front.
	var chunks [][]byte
	rest := payload
	for i := 0; ; i++ {
		hdr := metaHdrCont
		if i == 0 {
			hdr = metaHdrPage0
		}
		room := pager.PageDataSize - hdr
		chunk := rest
		if len(chunk) > room {
			chunk = chunk[:room]
		}
		rest = rest[len(chunk):]
		chunks = append(chunks, chunk)
		if len(rest) == 0 {
			break
		}
	}
	// Ensure the chain has enough pages (extra old pages stay allocated but
	// become unreachable because the last written page gets next=Invalid).
	for len(f.metaPages) < len(chunks) {
		p, err := f.bp.NewPage()
		if err != nil {
			return err
		}
		f.metaPages = append(f.metaPages, p.ID)
		p.Unpin(true)
	}
	for i, chunk := range chunks {
		p, err := f.bp.Get(f.metaPages[i])
		if err != nil {
			return err
		}
		off := 0
		if i == 0 {
			copy(p.Data, forestMagic)
			off = 8
		}
		next := uint32(pager.InvalidPage)
		if i+1 < len(chunks) {
			next = uint32(f.metaPages[i+1])
		}
		binary.LittleEndian.PutUint32(p.Data[off:off+4], next)
		binary.LittleEndian.PutUint16(p.Data[off+4:off+6], uint16(len(chunk)))
		copy(p.Data[off+6:], chunk)
		p.Unpin(true)
	}
	f.metaPages = f.metaPages[:len(chunks)]
	return nil
}

func (f *Forest) loadDirectory() error {
	var payload []byte
	id := pager.PageID(0)
	first := true
	seen := make(map[pager.PageID]bool)
	for id != pager.InvalidPage {
		if seen[id] {
			return fmt.Errorf("btree: forest meta chain cycles through page %d", id)
		}
		seen[id] = true
		p, err := f.bp.Get(id)
		if err != nil {
			return err
		}
		off := 0
		if first {
			if !bytes.Equal(p.Data[:8], forestMagic) {
				p.Unpin(false)
				return fmt.Errorf("btree: page 0 is not a forest meta page")
			}
			off = 8
		}
		next := pager.PageID(binary.LittleEndian.Uint32(p.Data[off : off+4]))
		used := int(binary.LittleEndian.Uint16(p.Data[off+4 : off+6]))
		if used > len(p.Data)-off-6 {
			p.Unpin(false)
			return fmt.Errorf("btree: forest meta page %d claims %d payload bytes", id, used)
		}
		payload = append(payload, p.Data[off+6:off+6+used]...)
		p.Unpin(false)
		f.metaPages = append(f.metaPages, id)
		id = next
		first = false
	}
	if len(payload) < 4 {
		return fmt.Errorf("btree: truncated forest directory")
	}
	num := int(binary.LittleEndian.Uint32(payload[:4]))
	off := 4
	for i := 0; i < num; i++ {
		if off+2 > len(payload) {
			return fmt.Errorf("btree: truncated directory entry %d", i)
		}
		nl := int(binary.LittleEndian.Uint16(payload[off : off+2]))
		off += 2
		if off+nl+12 > len(payload) {
			return fmt.Errorf("btree: truncated directory entry %d", i)
		}
		name := string(payload[off : off+nl])
		off += nl
		root := pager.PageID(binary.LittleEndian.Uint32(payload[off : off+4]))
		off += 4
		count := binary.LittleEndian.Uint64(payload[off : off+8])
		off += 8
		f.trees[name] = &Tree{forest: f, name: name, root: root, count: count}
	}
	return nil
}

// key encoding helpers ----------------------------------------------------------

// KeyUint64 encodes v big-endian so byte order equals numeric order. It is
// the key format of the Trie-Symbol and Docid indexes (LeftPos keys).
func KeyUint64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// Uint64Key decodes a KeyUint64 key.
func Uint64Key(b []byte) uint64 { return binary.BigEndian.Uint64(b) }
