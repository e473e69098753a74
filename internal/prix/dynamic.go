package prix

import (
	"sync"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/docstore"
	"repro/internal/mvcc"
	"repro/internal/twig"
	"repro/internal/vtrie"
	"repro/internal/xmltree"
)

// DynamicIndex is an Index that keeps accepting writes after construction.
// Its documents are labeled in two steps. A bulk build — NewDynamicIndex's,
// a compaction's, a forest rebuild's — labels every document exactly, as
// Build does, with room left in the leaves. Each later Insert, and each
// Update that changes a document's sequence, hangs the whole sequence under
// the trie root as a private chain numbered from the first free label on
// (vtrie.Chain): only its own postings and docid entry are written, nothing
// of the trie is kept in memory or replayed at open, and no write can run
// out of range. A chain shares no prefix with other documents; the next
// compaction labels them all exactly again.
//
// Any index directory opens as one (OpenDynamic): a Build or a prixload
// output takes writes too.
type DynamicIndex struct {
	// mu serializes Insert (write) against queries (read): Insert mutates
	// B+-trees and the document store in place, so a racing reader could
	// otherwise observe a half-written posting.
	mu     sync.RWMutex
	ix     *Index
	nextID uint32
	// gen counts Insert, Update, Delete and Patch calls (Source.Generation).
	gen atomic.Uint64
}

// DynamicOptions is what tuned §5.2.1's on-the-fly labeler (its prefix depth
// and per-symbol range spread). Chain labeling has nothing to tune, so its
// fields are ignored; it stays for callers that still pass one.
type DynamicOptions struct {
	Alpha  int
	Spread uint64
}

// NewDynamicIndex builds an insertable index: the initial documents are
// labeled exactly and bulk-loaded, with room left in the leaves for the
// writes that follow (Builder.FinalizeDynamic), and committed. More can
// follow via Insert at any time. dopts is ignored.
func NewDynamicIndex(initial []*xmltree.Document, opts Options, dopts DynamicOptions) (*DynamicIndex, error) {
	b, err := NewBuilder(opts)
	if err != nil {
		return nil, err
	}
	for _, doc := range initial {
		if err := b.Add(doc); err != nil {
			b.Abort()
			return nil, err
		}
	}
	return b.FinalizeDynamic(BulkOptions{}, 0)
}

// OpenDynamic reopens an on-disk index — any one this build reads — ready to
// take writes. There is nothing to rebuild: the next chain's first label is
// one past the postings the directory holds (Index.nextLabel).
func OpenDynamic(dir string, opts Options) (*DynamicIndex, error) {
	ix, err := Open(dir, opts)
	if err != nil {
		return nil, err
	}
	return &DynamicIndex{ix: ix, nextID: uint32(ix.store.NumDocs())}, nil
}

// Insert adds one document to the index; it becomes queryable immediately,
// and the generation moves before Insert returns.
func (di *DynamicIndex) Insert(doc *xmltree.Document) error {
	defer di.gen.Add(1)
	return di.insertLocked(doc)
}

func (di *DynamicIndex) insertLocked(doc *xmltree.Document) error {
	di.mu.Lock()
	defer di.mu.Unlock()
	// Lock order is always di.mu before ix.repairMu; taking the repair lock
	// here lets a scrubber that only knows the inner *Index serialize
	// against dynamic writes too.
	di.ix.repairMu.Lock()
	defer di.ix.repairMu.Unlock()
	id := di.nextID
	rec, syms, err := di.ix.prepareDocument(id, doc)
	if err != nil {
		return err
	}
	terminal := uint64(0)
	if len(syms) > 0 {
		if terminal, err = di.ix.insertChain(syms); err != nil {
			return err
		}
		if err := di.ix.docid.Insert(btree.KeyUint64(terminal), btree.DocIDValue(id, 0)); err != nil {
			return err
		}
		di.ix.hotInvalidateDocid()
	}
	if err := di.ix.putRecord(rec); err != nil {
		return err
	}
	di.recordInsertVersion(id, terminal)
	di.nextID++
	return nil
}

// recordInsertVersion stamps a freshly inserted document into the version
// map when versioning is enabled (the map only exists once the first
// mutation ran), with the terminal its chain ends at (0 for a
// structure-only document, which has no postings and no docid entry). The
// updated map rides the next commit, exactly like the record it describes.
func (di *DynamicIndex) recordInsertVersion(id uint32, terminal uint64) {
	m := di.ix.versions
	if m == nil {
		return
	}
	m.Counter++
	m.Docs[id] = []mvcc.Interval{{From: m.Counter, Terminal: terminal}}
	di.ix.persistVersionsLocked()
}

// Index returns the underlying index. Direct use is unsynchronized: callers
// that query while Inserts may be running must go through DynamicIndex.Match
// instead, which serializes against Insert.
func (di *DynamicIndex) Index() *Index { return di.ix }

// Match runs a query against the current snapshot of the index, serialized
// against Insert. WarmCache is forced: concurrent readers share the buffer
// pools, so a cold-start cache drop would evict pages other queries are
// mid-way through (per-query PagesRead is a best-effort delta either way).
// MatchOptions.Parallelism flows through unchanged — every walker a parallel
// query spawns runs under this read lock and joins before Match returns, so
// it serializes against Insert as a unit exactly like a serial query.
func (di *DynamicIndex) Match(q *twig.Query, opts MatchOptions) ([]Match, *QueryStats, error) {
	di.mu.RLock()
	defer di.mu.RUnlock()
	opts.WarmCache = true
	return di.ix.Match(q, opts)
}

// PagesRead proxies the index's physical-read counter (lock-free).
func (di *DynamicIndex) PagesRead() uint64 { return di.ix.PagesRead() }

// NumDocs returns the number of indexed documents.
func (di *DynamicIndex) NumDocs() int {
	di.mu.RLock()
	defer di.mu.RUnlock()
	return di.ix.NumDocs()
}

// Generation counts the Insert, Update, Delete and Patch calls so far. Each
// bumps it after its writes are visible and before it returns — a failed
// call too, since it may have left some of its writes in place.
func (di *DynamicIndex) Generation() uint64 { return di.gen.Load() }

// Underflows is 0: a chain is numbered from the first free label, so no
// write runs out of range (§5.2.1's scope underflow, which the labeler chains
// replaced could hit). It stays for callers that report it.
func (di *DynamicIndex) Underflows() int { return 0 }

// ChainedDocs reports how many documents inserts and updates labeled as
// chains since the index was last built: the prefix sharing the next
// compaction restores.
func (di *DynamicIndex) ChainedDocs() (int, error) {
	di.mu.RLock()
	defer di.mu.RUnlock()
	di.ix.repairMu.RLock()
	defer di.ix.repairMu.RUnlock()
	return di.ix.chainedDocs()
}

// Close commits what Flush commits and closes the underlying index's
// storage: a dynamic index closed without a Flush reopens.
func (di *DynamicIndex) Close() error {
	di.mu.Lock()
	defer di.mu.Unlock()
	err := di.flushLocked()
	if cerr := di.ix.Close(); err == nil {
		err = cerr
	}
	return err
}

// Flush persists all structures, including the MaxGap catalog and the
// posted-symbol set accumulated so far.
func (di *DynamicIndex) Flush() error {
	di.mu.Lock()
	defer di.mu.Unlock()
	return di.flushLocked()
}

func (di *DynamicIndex) flushLocked() error {
	di.ix.repairMu.Lock()
	defer di.ix.repairMu.Unlock()
	di.ix.stageCatalogs()
	return di.ix.commit()
}

// prepareDocument computes the docstore record and interned sequence of a
// document written to a built index, updating the in-memory MaxGap catalog.
func (ix *Index) prepareDocument(id uint32, doc *xmltree.Document) (*docstore.Record, []vtrie.Symbol, error) {
	ds, err := Transform(id, doc, ix.opts.Extended)
	if err != nil {
		return nil, nil, err
	}
	rec := new(docstore.Record)
	return rec, ix.internDocSeq(id, ds, rec), nil
}
