package prix

import (
	"bufio"
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"sort"

	"repro/internal/btree"
	"repro/internal/pager"
	"repro/internal/vtrie"
)

// Spiller is where FinalizeBulk parks sorted posting chunks between the
// trie-emit pass and the merge pass. Streaming ingest and compaction back it
// with DirSpiller files; the default keeps chunks in memory (small builds,
// tests).
type Spiller interface {
	// Create opens a named chunk for writing. The chunk is written once,
	// sequentially, then closed.
	Create(name string) (io.WriteCloser, error)
	// Open reopens a finished chunk for sequential reading.
	Open(name string) (io.ReadCloser, error)
	// Remove deletes a chunk FinalizeBulk is done with.
	Remove(name string) error
}

// BulkOptions configures FinalizeBulk's external sort.
type BulkOptions struct {
	// Spill stores the sorted chunks; nil keeps them in memory.
	Spill Spiller
	// MemBudget bounds the bytes of postings and docid entries buffered
	// in memory before a chunk is spilled; 0 means 32 MiB.
	MemBudget int64
}

func (bo *BulkOptions) budget() int64 {
	if bo.MemBudget <= 0 {
		return 32 << 20
	}
	return bo.MemBudget
}

// FinalizeBulk labels the trie, spills the postings as sorted runs under the
// memory budget, and k-way merges them into bottom-up-built B+-trees with
// packed leaves (no per-posting Insert descents). Given the same AddSeq
// stream the produced files are byte-identical whatever the budget or
// spiller, which is what lets a crash-interrupted streaming ingest re-run
// this phase from scratch and converge on the same index.
func (b *Builder) FinalizeBulk(bo BulkOptions) (*Index, error) {
	return b.finalize(bo, btree.Fill{})
}

// FinalizeDynamic is FinalizeBulk for an index that takes writes at once —
// NewDynamicIndex's and every compaction's: the loaded leaves keep room for
// the chains and tombstones that follow (btree.Fill), the Docid leaves for
// tombstones of versions up to twice version, the counter of the version
// history the caller adopts onto the index (Index.AdoptVersions; 0 for
// none).
func (b *Builder) FinalizeDynamic(bo BulkOptions, version uint64) (*DynamicIndex, error) {
	ix, err := b.finalize(bo, btree.Fill{Insertable: true, Version: version})
	if err != nil {
		return nil, err
	}
	return &DynamicIndex{ix: ix, nextID: b.nextID}, nil
}

func (b *Builder) finalize(bo BulkOptions, fill btree.Fill) (*Index, error) {
	if b.done {
		return nil, fmt.Errorf("prix: Finalize called twice")
	}
	if b.buildEr != nil {
		return nil, fmt.Errorf("prix: Finalize after failed Add: %w", b.buildEr)
	}
	b.done = true
	if err := b.ix.finishBulk(b.trie, &b.stats, bo, fill); err != nil {
		// The bulk path is driven by restartable callers (streaming ingest's
		// merge phase and compaction, which redo it from scratch after a
		// crash), so the half-written index is released rather than left
		// open.
		b.ix.Close()
		return nil, err
	}
	return b.ix, nil
}

// Abort releases a builder that will not be finalized — the error paths of
// streaming ingest, where the merge phase is redone from scratch. The
// partially written files stay on disk for the caller to clear.
func (b *Builder) Abort() error {
	if b.done {
		return nil
	}
	b.done = true
	return b.ix.Close()
}

// Fixed on-disk record sizes of the spill chunks.
const (
	postRecSize  = 24 // symbol(4) left(8) right(8) level(4)
	docidRecSize = 12 // left(8) docid(4)
)

type bulkPosting struct {
	sym         vtrie.Symbol
	left, right uint64
	level       uint32
}

type bulkDocid struct {
	left  uint64
	docid uint32
}

// bulkSorter is the one emit path of every build and rebuild: it buffers
// postings and docid entries, spills them as sorted chunks whenever the
// budget fills, and load merges the chunks into the (empty) postings and
// Docid trees with one BulkLoad each.
type bulkSorter struct {
	ix          *Index
	spill       Spiller
	budget      int64
	posts       []bulkPosting
	docids      []bulkDocid
	postChunks  []string
	docidChunks []string
	buffered    int64
	fill        btree.Fill
}

// newBulkSorter returns a sorter whose load fills the index's empty trees.
// fill is how full the loaded leaves are: a dynamic index's keep room for
// the inserts and tombstones that follow (btree.Fill). posts and docids are
// how many entries the caller will add at most: the buffers are sized once,
// to that or to what the budget holds between spills, whichever is less.
func (ix *Index) newBulkSorter(bo BulkOptions, fill btree.Fill, posts, docids int) *bulkSorter {
	spill := bo.Spill
	if spill == nil {
		spill = newMemSpiller()
	}
	budget := bo.budget()
	return &bulkSorter{
		ix:     ix,
		spill:  spill,
		budget: budget,
		fill:   fill,
		posts:  make([]bulkPosting, 0, min(int64(posts), budget/postRecSize+1)),
		docids: make([]bulkDocid, 0, min(int64(docids), budget/docidRecSize+1)),
	}
}

func (bs *bulkSorter) addPosting(p vtrie.Posting) error {
	bs.ix.posted.add(p.Symbol)
	bs.posts = append(bs.posts, bulkPosting{sym: p.Symbol, left: p.Left, right: p.Right, level: p.Level})
	return bs.grow(postRecSize)
}

func (bs *bulkSorter) addDocid(left uint64, docid uint32) error {
	bs.docids = append(bs.docids, bulkDocid{left: left, docid: docid})
	return bs.grow(docidRecSize)
}

func (bs *bulkSorter) grow(n int64) error {
	if bs.buffered += n; bs.buffered >= bs.budget {
		return bs.flush()
	}
	return nil
}

// flush sorts and spills what is buffered.
func (bs *bulkSorter) flush() error {
	if len(bs.posts) > 0 {
		sort.Slice(bs.posts, func(i, j int) bool {
			if bs.posts[i].sym != bs.posts[j].sym {
				return bs.posts[i].sym < bs.posts[j].sym
			}
			return bs.posts[i].left < bs.posts[j].left
		})
		name := fmt.Sprintf("post-%04d.run", len(bs.postChunks))
		if err := writePostChunk(bs.spill, name, bs.posts); err != nil {
			return err
		}
		bs.postChunks = append(bs.postChunks, name)
		bs.posts = bs.posts[:0]
	}
	if len(bs.docids) > 0 {
		sort.Slice(bs.docids, func(i, j int) bool {
			if bs.docids[i].left != bs.docids[j].left {
				return bs.docids[i].left < bs.docids[j].left
			}
			return bs.docids[i].docid < bs.docids[j].docid
		})
		name := fmt.Sprintf("docid-%04d.run", len(bs.docidChunks))
		if err := writeDocidChunk(bs.spill, name, bs.docids); err != nil {
			return err
		}
		bs.docidChunks = append(bs.docidChunks, name)
		bs.docids = bs.docids[:0]
	}
	bs.buffered = 0
	return nil
}

// load spills the tail and bulk-loads both trees from the merged chunks. The
// merged posting stream is already in (symbol, LeftPos) key order.
func (bs *bulkSorter) load() error {
	if err := bs.flush(); err != nil {
		return err
	}
	// BulkLoad copies every key and value into its leaf, so one value buffer
	// serves the whole merge.
	var val [postingValLen]byte
	err := mergeLoad(bs.ix.postings, bs.fill, bs.spill, bs.postChunks, postRecSize, func(rec []byte) ([]byte, []byte) {
		putPosting(&val, binary.BigEndian.Uint64(rec[12:20]), binary.BigEndian.Uint32(rec[20:24]))
		return rec[:12], val[:]
	})
	if err != nil {
		return err
	}
	err = mergeLoad(bs.ix.docid, bs.fill, bs.spill, bs.docidChunks, docidRecSize, func(rec []byte) ([]byte, []byte) {
		binary.LittleEndian.PutUint32(val[:4], binary.BigEndian.Uint32(rec[8:12]))
		return rec[:8], val[:4]
	})
	if err != nil {
		return err
	}
	for _, name := range append(bs.postChunks, bs.docidChunks...) {
		if err := bs.spill.Remove(name); err != nil {
			return err
		}
	}
	return nil
}

// finishBulk labels the trie, writes all postings through the sorter and
// persists the store.
func (ix *Index) finishBulk(builder *vtrie.Builder, bs *buildStats, bo BulkOptions, fill btree.Fill) error {
	if err := ix.emitTrie(builder, bo, fill); err != nil {
		return err
	}
	ix.stageCatalogs()
	ix.store.SetStat("elements", bs.elements)
	ix.store.SetStat("values", bs.values)
	ix.store.SetStat("maxdepth", bs.maxDepth)
	ix.store.SetStat("seqlen", bs.seqLen)
	if err := ix.commit(); err != nil {
		return err
	}
	ix.PreloadHot()
	return nil
}

// emitTrie labels the trie exactly and bulk-loads its postings, plus the
// docid entries of each sequence's terminal node, into the empty trees at
// fill, and stages its node and sequence counts. Shared by the initial build
// and the forest rebuild.
func (ix *Index) emitTrie(builder *vtrie.Builder, bo BulkOptions, fill btree.Fill) error {
	builder.Label()
	if err := builder.Validate(); err != nil {
		return fmt.Errorf("prix: trie labeling: %w", err)
	}
	sorter := ix.newBulkSorter(bo, fill, builder.Nodes(), builder.Sequences())
	err := builder.Emit(func(p vtrie.Posting, docs []uint32) error {
		if err := sorter.addPosting(p); err != nil {
			return err
		}
		for _, d := range docs {
			if err := sorter.addDocid(p.Left, d); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := sorter.load(); err != nil {
		return err
	}
	ix.store.SetStat(trieNodesStat, int64(builder.Nodes()))
	ix.store.SetStat(sequencesStat, int64(builder.Sequences()))
	return nil
}

func writePostChunk(spill Spiller, name string, posts []bulkPosting) error {
	w, err := spill.Create(name)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	var rec [postRecSize]byte
	for _, p := range posts {
		binary.BigEndian.PutUint32(rec[0:4], uint32(p.sym))
		binary.BigEndian.PutUint64(rec[4:12], p.left)
		binary.BigEndian.PutUint64(rec[12:20], p.right)
		binary.BigEndian.PutUint32(rec[20:24], p.level)
		if _, err := bw.Write(rec[:]); err != nil {
			w.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

func writeDocidChunk(spill Spiller, name string, docids []bulkDocid) error {
	w, err := spill.Create(name)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	var rec [docidRecSize]byte
	for _, d := range docids {
		binary.BigEndian.PutUint64(rec[0:8], d.left)
		binary.BigEndian.PutUint32(rec[8:12], d.docid)
		if _, err := bw.Write(rec[:]); err != nil {
			w.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// chunkReader streams fixed-size records out of one spill chunk.
type chunkReader struct {
	rc   io.ReadCloser
	br   *bufio.Reader
	size int
	head []byte
	done bool
}

func openChunk(spill Spiller, name string, recSize int) (*chunkReader, error) {
	rc, err := spill.Open(name)
	if err != nil {
		return nil, err
	}
	cr := &chunkReader{rc: rc, br: bufio.NewReaderSize(rc, 1<<16), size: recSize, head: make([]byte, recSize)}
	if err := cr.advance(); err != nil {
		rc.Close()
		return nil, err
	}
	return cr, nil
}

func (cr *chunkReader) advance() error {
	_, err := io.ReadFull(cr.br, cr.head)
	if err == io.EOF {
		cr.done = true
		return nil
	}
	if err == io.ErrUnexpectedEOF {
		return fmt.Errorf("prix: truncated spill chunk")
	}
	return err
}

func (cr *chunkReader) close() error { return cr.rc.Close() }

// postHeap orders chunk readers by their head (symbol, left) key — the
// first 12 bytes of the record, so bytes.Compare is the comparator.
type postHeap []*chunkReader

func (h postHeap) Len() int            { return len(h) }
func (h postHeap) Less(i, j int) bool  { return bytes.Compare(h[i].head[:12], h[j].head[:12]) < 0 }
func (h postHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *postHeap) Push(x interface{}) { *h = append(*h, x.(*chunkReader)) }
func (h *postHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// mergeLoad k-way merges sorted chunks of fixed-size records — ordered by
// their first 12 bytes, a posting's (symbol, left) or a docid entry's whole
// (left, docid) — into one BulkLoad of an empty tree; entry splits a record
// into its tree key and value.
func mergeLoad(t *btree.Tree, fill btree.Fill, spill Spiller, chunks []string, recSize int, entry func(rec []byte) (key, val []byte)) (err error) {
	var h postHeap
	defer func() {
		for _, cr := range h {
			if cerr := cr.close(); err == nil {
				err = cerr
			}
		}
	}()
	for _, name := range chunks {
		cr, err := openChunk(spill, name, recSize)
		if err != nil {
			return err
		}
		h = append(h, cr)
	}
	heap.Init(&h)
	cur := make([]byte, recSize)
	return t.BulkLoad(fill, func() ([]byte, []byte, error) {
		for len(h) > 0 {
			cr := h[0]
			if cr.done {
				heap.Pop(&h)
				if err := cr.close(); err != nil {
					return nil, nil, err
				}
				continue
			}
			copy(cur, cr.head)
			if err := cr.advance(); err != nil {
				return nil, nil, err
			}
			heap.Fix(&h, 0)
			key, val := entry(cur)
			return key, val, nil
		}
		return nil, nil, io.EOF
	})
}

// memSpiller keeps chunks in process memory — the default when no spill
// directory is configured.
type memSpiller struct {
	chunks map[string]*bytes.Buffer
}

func newMemSpiller() *memSpiller { return &memSpiller{chunks: map[string]*bytes.Buffer{}} }

type memChunkWriter struct {
	*bytes.Buffer
}

func (memChunkWriter) Close() error { return nil }

func (m *memSpiller) Create(name string) (io.WriteCloser, error) {
	buf := &bytes.Buffer{}
	m.chunks[name] = buf
	return memChunkWriter{buf}, nil
}

func (m *memSpiller) Open(name string) (io.ReadCloser, error) {
	buf, ok := m.chunks[name]
	if !ok {
		return nil, fmt.Errorf("prix: unknown spill chunk %q", name)
	}
	return io.NopCloser(bytes.NewReader(buf.Bytes())), nil
}

func (m *memSpiller) Remove(name string) error {
	delete(m.chunks, name)
	return nil
}

// DirSpiller keeps the chunks as files in dir on fs. A chunk is not synced
// on close: FinalizeBulk reads it back and removes it within the same
// process, and every caller removes and recreates dir before a build
// starts, so no chunk outlives the process that wrote it and a sync would
// protect nothing.
func DirSpiller(fs pager.FS, dir string) Spiller { return dirSpiller{fs: fs, dir: dir} }

type dirSpiller struct {
	fs  pager.FS
	dir string
}

func (s dirSpiller) Create(name string) (io.WriteCloser, error) {
	return s.fs.Create(filepath.Join(s.dir, name))
}

func (s dirSpiller) Open(name string) (io.ReadCloser, error) {
	return s.fs.Open(filepath.Join(s.dir, name))
}

func (s dirSpiller) Remove(name string) error {
	return s.fs.Remove(filepath.Join(s.dir, name))
}
