// Package prix implements the PRIX system of Rao & Moon (ICDE 2004):
// indexing XML documents as Prüfer sequences and answering twig queries by
// subsequence matching over a virtual trie followed by refinement phases.
//
// An Index is either an RPIndex (Regular-Prüfer sequences, §3.2) or an
// EPIndex (Extended-Prüfer sequences, §5.6, recommended for queries with
// values). Indexes persist as two page files — a B+-tree forest holding the
// postings tree (every Trie-Symbol index under one composite key), the Docid
// index and the shape tree, and a document store holding the shape
// dictionary and per-document records (shape id + LPS) — or live in memory
// for tests.
package prix

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/btree"
	"repro/internal/docstore"
	"repro/internal/hot"
	"repro/internal/mvcc"
	"repro/internal/obs"
	"repro/internal/pager"
	"repro/internal/vtrie"
	"repro/internal/xmltree"
)

// Options configures an index build.
type Options struct {
	// Extended selects Extended-Prüfer sequences (EPIndex). The paper's
	// optimizer uses an EPIndex for queries with values and an RPIndex
	// otherwise; both can coexist over the same documents.
	Extended bool
	// BufferPoolPages is the per-file buffer pool capacity; 0 means the
	// paper's 2000 pages.
	BufferPoolPages int
	// Dir is where the two page files are created. Empty means in-memory.
	Dir string
	// OpenFile optionally intercepts every page-file open (the two page
	// files and their shared journal). Crash-sweep tests inject
	// pagertest.FaultOpen here so a power clock can cut power inside a
	// mutation, a compaction or the merge phase of a streaming build; nil
	// means plain OS files.
	OpenFile func(path string) (pager.File, error)
	// HotBudget, when positive, enables the in-memory hot tier
	// (internal/hot) with that many bytes: verbatim images of the postings
	// and Docid trees' leaves serve the Algorithm 1 descent without
	// touching the buffer pools, demoted LRU under the budget (refinement
	// reads the resident shape dictionary either way). The tier's unit is
	// one leaf, an 8 KiB page, so a budget below that admits nothing.
	// Results are byte-identical to the paged path. 0 disables it.
	HotBudget int64
}

func (o *Options) openFile(path string) (pager.File, error) {
	if o.OpenFile != nil {
		return o.OpenFile(path)
	}
	return pager.OpenOSFilePadded(path)
}

func (o *Options) pool() int {
	if o.BufferPoolPages <= 0 {
		return pager.DefaultPoolPages
	}
	return o.BufferPoolPages
}

// ForestFileName and DocsFileName are the page files an on-disk index
// keeps in its directory, exported for tooling that operates on a closed
// index's files: the sharded-layout builder clones them into replica
// directories, and fault-injection tests corrupt them in place.
// JournalFileName is their shared rollback journal, exported so streaming
// ingest and compaction can clear it with them. The journal is not part of
// the durable state: a clean Close leaves it empty, and an open creates it
// if it is missing.
const (
	ForestFileName  = forestFile
	DocsFileName    = docsFile
	JournalFileName = journalFile
)

// file names within Options.Dir.
const (
	forestFile = "seq.idx"
	docsFile   = "docs.db"
	// The rollback journal giving both page files one atomic commit; a
	// crash mid-commit is rolled back the next time the index is opened.
	journalFile = "prix.jnl"
)

// LegacyJournalFileNames are the per-file journals of the layout before the
// shared one. An open refuses the directory when one holds an open
// transaction and otherwise removes them — unless an Options.OpenFile hook
// stands between the index and the directory (prixcheck's in-memory copies,
// crash sweeps), which leaves the directory's files to the hook's owner.
var LegacyJournalFileNames = [...]string{"seq.jnl", "docs.jnl"}

// openPools opens (or creates) the two page files of dir and their shared
// journal, rolls back any commit a crash interrupted, and returns the
// forest's and the store's pools. Torn trailing pages (a crash mid-append)
// are padded to a page boundary and then either rolled back or caught by
// their checksum.
func openPools(opts *Options, dir string) (forestBP, docsBP *pager.BufferPool, err error) {
	if err := removeLegacyJournals(dir, opts.OpenFile == nil); err != nil {
		return nil, nil, err
	}
	var files []pager.File
	defer func() {
		if err != nil {
			for _, f := range files {
				f.Close()
			}
		}
	}()
	for _, name := range []string{forestFile, docsFile, journalFile} {
		f, err := opts.openFile(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	return journaledPools(files[2], files[0], files[1], opts.pool())
}

// journaledPools rolls back what the journal jf holds for the forest and
// store files and attaches a pool to each.
func journaledPools(jf, forestF, docsF pager.File, capacity int) (forestBP, docsBP *pager.BufferPool, err error) {
	j, err := pager.NewJournal(jf, forestF, docsF)
	if err != nil {
		return nil, nil, err
	}
	if forestBP, err = pager.NewJournaledPool(forestF, j, capacity); err != nil {
		return nil, nil, err
	}
	docsBP, err = pager.NewJournaledPool(docsF, j, capacity)
	return forestBP, docsBP, err
}

// removeLegacyJournals refuses dir if a per-file journal an older build left
// there still holds an open transaction — this build cannot roll it back —
// and otherwise, when remove is set, deletes them.
func removeLegacyJournals(dir string, remove bool) error {
	for _, name := range LegacyJournalFileNames {
		path := filepath.Join(dir, name)
		f, err := os.Open(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return fmt.Errorf("prix: %w", err)
		}
		page := make([]byte, pager.PageSize)
		n, _ := io.ReadFull(f, page)
		f.Close()
		if pager.LegacyJournalActive(page[:n]) {
			return fmt.Errorf("prix: %s holds an open transaction of an older build; open the index with that build to roll it back", path)
		}
		if !remove {
			continue
		}
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("prix: %w", err)
		}
	}
	return nil
}

// memPools is openPools over in-memory files: in-memory indexes run the
// same commit protocol so the whole stack exercises one code path.
func memPools(capacity int) (forestBP, docsBP *pager.BufferPool, err error) {
	return journaledPools(pager.NewMemFile(), pager.NewMemFile(), pager.NewMemFile(), capacity)
}

// Index is a built PRIX index ready for queries.
type Index struct {
	opts   Options
	forest *btree.Forest
	store  *docstore.Store
	// postings holds every Trie-Symbol index (§5.2) in one tree keyed
	// symbol ‖ LeftPos, so a symbol's list is a key-prefix range and small
	// lists share leaves; docid is the Docid index.
	postings *btree.Tree
	docid    *btree.Tree
	maxGap   map[vtrie.Symbol]int64
	// posted marks the symbols that have ever headed a posting, kept beside
	// the MaxGap catalog: a query level over an unmarked symbol is empty
	// without a range query to prove it.
	posted symSet
	// repairMu serializes structural repair (record rewrites, forest
	// rebuilds, orphan sweeps — the writers) against everything that reads
	// index structures: queries, verification and snapshots take it in read
	// mode, so they never observe a repair in progress. DynamicIndex writes
	// also take it in write mode (always after di.mu, never before), so a
	// scrubber operating on the shared *Index needs no knowledge of the
	// dynamic wrapper.
	repairMu sync.RWMutex
	// hot is the in-memory hot tier (nil when Options.HotBudget is
	// 0). See hot.go for the caching and invalidation contract.
	hot *hot.Tier
	// shapesInTree is how many shapes, from id 0 on, the forest's shape tree
	// holds (writeShapes copies the rest); shapesUnknown until a writer first
	// needs it after Open. Guarded like the forest.
	shapesInTree uint32
	// io is ioCounts as a func value, the I/O source of every match span.
	io obs.IOFunc
	// versions is the MVCC version map (nil until the first mutation or an
	// explicit AdoptVersions): per-document visibility intervals. Mutated
	// only under repairMu (write); queries read it under repairMu (read). See
	// version.go.
	versions *mvcc.Map
	// versionsBuf and versionIDs are persistVersionsLocked's kept encode
	// buffer and id-sort scratch: every commit re-encodes the map, and into
	// these it does so without allocating. Under repairMu (write).
	versionsBuf []byte
	versionIDs  []uint32
	// postedBuf is the posted set's kept encode buffer, restaged by every
	// Flush, bulk load and compaction build (stageCatalogs) and by a
	// symbol's first posting (markPosted).
	postedBuf []byte
	// postingBuf is insertPosting's key and value: Insert copies both into
	// the tree before it returns, so a chain of postings encodes through one
	// buffer instead of allocating two per posting. Under repairMu (write).
	postingBuf [postingKeyLen + postingValLen]byte
	// halfWritten is set when a RepairForest fails after it reset the
	// forest, and cleared when one succeeds: while it is set, commit refuses
	// with it and Close abandons both pools, so the half-written forest never
	// becomes durable and the next open rolls it back. Under repairMu
	// (write).
	halfWritten error
}

// ErrForestHalfWritten is what every commit of an Index returns, Close's
// included, after a forest rebuild failed part-way: the forest holds part
// of the rebuilt trie, which must not become durable. A RepairForest that
// succeeds lifts the refusal; closing without one leaves the rebuild to the
// journal, and the next open rolls it back.
var ErrForestHalfWritten = errors.New("prix: forest rebuild failed; the forest is half-written and the index refuses to commit")

// valuePrefix namespaces value strings away from element tags in the
// shared symbol dictionary (a tag can never start with NUL).
const valuePrefix = "\x00"

// SymbolFor interns a label in the dictionary with value namespacing.
func SymbolFor(dict *docstore.Dict, label string, isValue bool) vtrie.Symbol {
	if !isValue {
		return dict.Intern(label)
	}
	var buf [64]byte
	return dict.InternBytes(valueKey(buf[:0], label))
}

// LookupSymbol resolves a label without interning.
func LookupSymbol(dict *docstore.Dict, label string, isValue bool) (vtrie.Symbol, bool) {
	if !isValue {
		return dict.Lookup(label)
	}
	var buf [64]byte
	return dict.LookupBytes(valueKey(buf[:0], label))
}

// valueKey assembles a value's dictionary key, valuePrefix‖label, in the
// caller's (stack) buffer: a concatenated string would be one heap object per
// value position of every sequence interned.
func valueKey(buf []byte, label string) []byte {
	return append(append(buf, valuePrefix...), label...)
}

// Forest tree names. The shape tree's is shapeTreeName (repair.go).
const (
	postingsTreeName = "post"
	docidTreeName    = "docid"
)

// postingsLayout is stamped into the store's stats (layoutStatName) by every
// build. 4 is the single postings tree with the shape dictionary and the
// forest's shape tree, its `post` and `docid` trees in packed leaves only.
// Layout 3 (the same trees, whose leaves could also be fixed-width or
// slotted), layout 2 (a per-document structure sidecar) and the directories
// before it (one tree per symbol, no stamp) are refused with ErrOldLayout.
const (
	postingsLayout = 4
	layoutStatName = "layout"
)

// Store names of the MaxGap catalog and the posted-symbol set.
const (
	maxGapCatalogKey = "maxgap"
	postedBlobName   = "posted"
)

// openTrees binds the postings and Docid trees, creating them in a fresh (or
// just reset) forest. Every posting is a 12-byte key and a 12-byte value,
// every Docid entry an 8-byte terminal LeftPos and a btree.DocIDValue, and
// both trees have packed leaves: every build bulk-loads dense exact labels,
// into full leaves or, for an index built to take writes, into leaves with
// room for them (newBulkSorter), and the chains writes insert land in any.
func (ix *Index) openTrees() (err error) {
	if ix.postings, err = ix.forest.PackedTree(postingsTreeName); err != nil {
		return err
	}
	ix.docid, err = ix.forest.PackedDocIDTree(docidTreeName)
	return err
}

// loadCatalogs is stageCatalogs read back on Open, plus the tree bindings. A
// directory without the layout stamp or the postings tree is refused.
func (ix *Index) loadCatalogs() error {
	if ext, _ := ix.store.Stat("extended"); (ext == 1) != ix.opts.Extended {
		ix.opts.Extended = ext == 1
	}
	ix.postings = ix.forest.Lookup(postingsTreeName)
	if layout, _ := ix.store.Stat(layoutStatName); layout != postingsLayout {
		return fmt.Errorf("%w (layout %d, this build reads %d)", ErrOldLayout, layout, postingsLayout)
	}
	if ix.postings == nil {
		return fmt.Errorf("%w (no postings tree)", ErrOldLayout)
	}
	for _, name := range labelerStatNames {
		if _, ok := ix.store.Stat(name); ok {
			return fmt.Errorf("%w (a %q stat: spread labels of the dynamic labeler this build replaced)", ErrOldLayout, name)
		}
	}
	ix.shapesInTree = shapesUnknown
	if ix.docid = ix.forest.Lookup(docidTreeName); ix.docid == nil {
		return fmt.Errorf("no docid index")
	}
	ix.maxGap = map[vtrie.Symbol]int64{}
	for k, v := range ix.store.Catalog(maxGapCatalogKey) {
		ix.maxGap[k] = v
	}
	ix.posted = decodeSymSet(ix.store.Blob(postedBlobName))
	return nil
}

// labelerStatNames are the stats an older build's dynamic index recorded to
// replay its labeler at every open (§5.2.1's prefix depth, range spread and
// prepared-document count). Its postings carry spread labels and its version
// map their replay order, neither of which this build reads: a directory
// with any of these stats is refused.
var labelerStatNames = [...]string{"alpha", "spread", "prepared"}

// stageCatalogs hands the store what every persisted index carries beside its
// records: the MaxGap catalog, the posted-symbol set, the sequence flavor and
// the layout stamp. The caller's store Flush persists them.
func (ix *Index) stageCatalogs() {
	ix.store.SetCatalog(maxGapCatalogKey, ix.maxGap)
	ix.stagePosted()
	extended := int64(0)
	if ix.opts.Extended {
		extended = 1
	}
	ix.store.SetStat("extended", extended)
	ix.store.SetStat(layoutStatName, postingsLayout)
}

// symSet is a bitset over dictionary symbols.
type symSet []uint64

func (s symSet) has(sym vtrie.Symbol) bool {
	w := int(sym >> 6)
	return w < len(s) && s[w]&(1<<(sym&63)) != 0
}

func (s *symSet) add(sym vtrie.Symbol) {
	for int(sym>>6) >= len(*s) {
		*s = append(*s, 0)
	}
	(*s)[sym>>6] |= 1 << (sym & 63)
}

// appendEncode appends the set's little-endian words to dst.
func (s symSet) appendEncode(dst []byte) []byte {
	for _, w := range s {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// stagePosted encodes the posted set into the index's kept buffer, which
// SetBlob copies out of (or, unchanged, ignores).
func (ix *Index) stagePosted() {
	ix.postedBuf = ix.posted.appendEncode(ix.postedBuf[:0])
	ix.store.SetBlob(postedBlobName, ix.postedBuf)
}

func decodeSymSet(b []byte) symSet {
	s := make(symSet, len(b)/8)
	for i := range s {
		s[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return s
}

// Build constructs an index over the documents. Document IDs are assigned
// sequentially from 0 in slice order, ignoring the IDs already present.
// For streaming construction use NewBuilder.
func Build(docs []*xmltree.Document, opts Options) (*Index, error) {
	b, err := NewBuilder(opts)
	if err != nil {
		return nil, err
	}
	for _, doc := range docs {
		if err := b.Add(doc); err != nil {
			return nil, err
		}
	}
	return b.Finalize()
}

type buildStats struct {
	elements int64
	values   int64
	maxDepth int64
	seqLen   int64
}

// Open loads a previously built on-disk index. Any commit a crash
// interrupted is rolled back from the journal first, and every page read
// from disk is checksum-verified.
func Open(dir string, opts Options) (*Index, error) {
	opts.Dir = dir
	forestBP, docsBP, err := openPools(&opts, dir)
	if err != nil {
		return nil, err
	}
	forest, err := btree.Open(forestBP)
	if err != nil {
		forestBP.Close()
		docsBP.Close()
		return nil, err
	}
	store, err := docstore.Open(docsBP)
	if err != nil {
		forestBP.Close()
		docsBP.Close()
		if errors.Is(err, docstore.ErrOldLayout) {
			return nil, fmt.Errorf("prix: %s: %w (%v)", dir, ErrOldLayout, err)
		}
		return nil, err
	}
	ix := &Index{opts: opts, forest: forest, store: store}
	ix.io = ix.ioCounts
	if err := ix.loadCatalogs(); err != nil {
		ix.Close()
		return nil, fmt.Errorf("prix: %s: %w", dir, err)
	}
	if err := ix.loadVersions(); err != nil {
		ix.Close()
		return nil, fmt.Errorf("prix: %s: %w", dir, err)
	}
	ix.initHot()
	ix.PreloadHot()
	return ix, nil
}

// Close flushes every dirty page (committing the open transaction, if any)
// and closes both page files and their journal. It stages no directory
// metadata: the Index's own writers (repair) commit as they go, and
// DynamicIndex.Close commits what its Flush commits first. After a failed
// forest rebuild it commits nothing (see ErrForestHalfWritten). The index
// must not be used afterwards.
func (ix *Index) Close() error {
	if ix.halfWritten != nil {
		ix.forest.BufferPool().Abandon(ix.halfWritten)
		ix.store.BufferPool().Abandon(ix.halfWritten)
		return ix.halfWritten
	}
	err := ix.forest.BufferPool().Close()
	if e := ix.store.BufferPool().Close(); err == nil {
		err = e
	}
	return err
}

// Extended reports whether this is an EPIndex.
func (ix *Index) Extended() bool { return ix.opts.Extended }

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return ix.store.NumDocs() }

// Store exposes the document store (read-only use).
func (ix *Index) Store() *docstore.Store { return ix.store }

// Forest exposes the B+-tree forest (read-only use; the scrubber walks its
// pages and invariants).
func (ix *Index) Forest() *btree.Forest { return ix.forest }

// commit stages the store's meta and the forest's directory and commits
// both files' dirty pages as one transaction through their shared journal:
// every mutation, flush and repair is atomic across the two files. After a
// failed forest rebuild it refuses (ErrForestHalfWritten).
func (ix *Index) commit() error {
	if ix.halfWritten != nil {
		return ix.halfWritten
	}
	if err := ix.store.Stage(); err != nil {
		return err
	}
	if err := ix.forest.Stage(); err != nil {
		return err
	}
	return ix.forest.BufferPool().FlushAll()
}

// Stat proxies a named build statistic.
func (ix *Index) Stat(name string) (int64, bool) { return ix.store.Stat(name) }

// ResetIOStats zeroes both buffer pools' counters and drops cached pages,
// and re-reads the store's resident LPS from the record pages as Open does,
// so the next queries see the disk as a fresh Open would. It is a
// test/benchmark convenience for callers that own the index exclusively: the
// query path never calls it — Match accounts PagesRead as a before/after
// delta of the monotonic counters (see DropCaches), so concurrent queries
// cannot clobber each other's accounting.
func (ix *Index) ResetIOStats() error {
	if err := ix.forest.BufferPool().DropAll(); err != nil {
		return err
	}
	if err := ix.store.BufferPool().DropAll(); err != nil {
		return err
	}
	ix.store.ReloadLPS()
	ix.forest.BufferPool().ResetStats()
	ix.store.BufferPool().ResetStats()
	return nil
}

// DropCaches evicts every clean, unpinned page from both buffer pools
// without touching the I/O counters, giving the next query a (near-)cold
// start. Pages a concurrent query has pinned this instant survive, so it
// is always safe to call with other queries in flight.
func (ix *Index) DropCaches() {
	ix.forest.BufferPool().DropClean()
	ix.store.BufferPool().DropClean()
}

// SetReadDelay injects a per-physical-read latency on both buffer pools,
// simulating the paper's 2004-era disk for I/O-bound benchmarks (see
// pager.BufferPool.SetReadDelay). Zero disables it.
func (ix *Index) SetReadDelay(d time.Duration) {
	ix.forest.BufferPool().SetReadDelay(d)
	ix.store.BufferPool().SetReadDelay(d)
}

// PagesRead returns the physical pages read so far, summed over the forest
// and document-store pools. The counters are monotonic (outside an explicit
// ResetIOStats), so per-query accounting is a before/after delta.
func (ix *Index) PagesRead() uint64 {
	return ix.forest.BufferPool().Stats().PhysicalReads +
		ix.store.BufferPool().Stats().PhysicalReads
}

// A posting's key and value widths in the postings tree.
const (
	postingKeyLen = 12
	postingValLen = 12
)

// postingKey is the postings tree's key: big-endian symbol ‖ LeftPos, so byte
// order is (symbol, LeftPos) order and one symbol's list is one key range.
func postingKey(sym vtrie.Symbol, left uint64) (k [postingKeyLen]byte) {
	binary.BigEndian.PutUint32(k[:4], uint32(sym))
	binary.BigEndian.PutUint64(k[4:], left)
	return k
}

// Store names of the trie nodes (and so labels) and sequences the last build
// or rebuild labeled exactly; chainedDocs counts the terminals above the
// first.
const (
	trieNodesStat = "trienodes"
	sequencesStat = "sequences"
)

// nextLabel is the first label no posting holds. Every build labels exactly,
// 1..Nodes() in preorder, and every write after it hangs a chain of dense
// labels above those (vtrie.Chain), so the labels in use are 1..n for n
// postings: the postings tree's entry count, which commits with them.
func (ix *Index) nextLabel() uint64 { return ix.postings.Len() + 1 }

// insertChain writes syms as a private chain under the trie root and returns
// its terminal's label.
func (ix *Index) insertChain(syms []vtrie.Symbol) (uint64, error) {
	next := ix.nextLabel()
	for k := range syms {
		if err := ix.insertPosting(vtrie.Chain(syms, next, k)); err != nil {
			return 0, err
		}
	}
	return next + uint64(len(syms)) - 1, nil
}

// chainedDocs counts the live docid entries above the last build's labels:
// the documents inserts and updates labeled as chains since then, the
// prefix sharing the next compaction restores. Under repairMu.
func (ix *Index) chainedDocs() (int, error) {
	built, _ := ix.store.Stat(trieNodesStat)
	n := 0
	err := ix.docid.ScanDocIDs(btree.KeyUint64(uint64(built)+1), nil, true, true, func(_ uint64, _ uint32, tomb uint64) bool {
		if tomb == 0 {
			n++
		}
		return true
	})
	return n, err
}

// insertPosting writes one chain posting of an insert or an update; builds
// and rebuilds bulk-load instead.
func (ix *Index) insertPosting(p vtrie.Posting) error {
	key, val := ix.postingBuf[:postingKeyLen], (*[postingValLen]byte)(ix.postingBuf[postingKeyLen:])
	binary.BigEndian.PutUint32(key[:4], uint32(p.Symbol))
	binary.BigEndian.PutUint64(key[4:], p.Left)
	putPosting(val, p.Right, p.Level)
	if err := ix.postings.Insert(key, val[:]); err != nil {
		return err
	}
	ix.markPosted(p.Symbol)
	ix.hotInvalidatePosting(p.Symbol, p.Left)
	return nil
}

// markPosted records that sym heads a posting. A symbol's first posting also
// stages the set for the next commit, so the mutation's own commit carries
// it: a reopened index must never short-circuit a symbol the tree holds.
func (ix *Index) markPosted(sym vtrie.Symbol) {
	if !ix.posted.has(sym) {
		ix.posted.add(sym)
		ix.stagePosted()
	}
}

// putPosting encodes a posting's value, big-endian Right ‖ little-endian
// level, into a buffer the caller reuses.
func putPosting(b *[postingValLen]byte, right uint64, level uint32) {
	binary.BigEndian.PutUint64(b[:8], right)
	binary.LittleEndian.PutUint32(b[8:], level)
}
