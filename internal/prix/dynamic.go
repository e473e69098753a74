package prix

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/docstore"
	"repro/internal/mvcc"
	"repro/internal/twig"
	"repro/internal/vtrie"
	"repro/internal/xmltree"
)

// DynamicIndex is an Index that keeps accepting documents after
// construction, using the paper's dynamic labeling scheme (§5.2.1): trie
// node ranges are carved out of their parents' scopes as sequences arrive,
// so only the postings of newly created trie nodes need to be written —
// no global relabeling. The price is the possibility of scope underflow on
// pathological insertion orders, surfaced as ErrScopeUnderflow; the remedy
// is a rebuild with exact labeling (Build) or a deeper prepared prefix.
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

// DynamicOptions tunes the labeler.
type DynamicOptions struct {
	// Alpha is the depth of the pre-allocated prefix trie built from the
	// initial documents (§5.2.1). Deeper prefixes reduce underflows.
	Alpha int
	// Spread is the number of range slots reserved per expected future
	// symbol (default 1 << 20).
	Spread uint64
}

// NewDynamicIndex builds an insertable index. The initial documents seed
// the α-prefix pre-allocation pass and are inserted immediately; more can
// follow via Insert at any time.
func NewDynamicIndex(initial []*xmltree.Document, opts Options, dopts DynamicOptions) (*DynamicIndex, error) {
	ix, err := newEmptyIndex(opts)
	if err != nil {
		return nil, err
	}
	ix.makeDynamic(dopts, len(initial))
	di := &DynamicIndex{ix: ix}
	// Preparatory pass over the initial documents' sequences (the id
	// passed here is irrelevant: no state is stored during Prepare).
	for _, doc := range initial {
		_, syms, err := ix.prepareDocument(0, doc)
		if err != nil {
			return nil, err
		}
		if err := ix.labeler.Prepare(syms); err != nil {
			return nil, err
		}
	}
	ix.labeler.Finalize()
	// The prepared prefix trie's postings must be written once; Add only
	// reports nodes it creates below (or beside) the prefix.
	if err := ix.labeler.EmitPrefix(ix.insertPosting); err != nil {
		return nil, err
	}
	for _, doc := range initial {
		if err := di.Insert(doc); err != nil {
			return nil, err
		}
	}
	// Commit what was built, as bulkLoadDynamic does.
	if err := di.Flush(); err != nil {
		return nil, err
	}
	return di, nil
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
	if len(syms) == 0 {
		if err := di.ix.putRecord(rec); err != nil {
			return err
		}
		di.recordInsertVersion(id, 0, false)
		di.nextID++
		return nil
	}
	created, terminal, err := di.ix.labeler.AddReport(syms)
	if err != nil {
		return fmt.Errorf("prix: dynamic insert of document %d: %w", id, err)
	}
	for _, p := range created {
		if err := di.ix.insertPosting(p); err != nil {
			return err
		}
	}
	if err := di.ix.docid.Insert(btree.KeyUint64(terminal.Left), btree.DocIDValue(id, 0)); err != nil {
		return err
	}
	di.ix.hotInvalidateDocid()
	if err := di.ix.putRecord(rec); err != nil {
		return err
	}
	di.recordInsertVersion(id, terminal.Left, true)
	di.nextID++
	return nil
}

// recordInsertVersion stamps a freshly inserted document into the version
// map when versioning is enabled (the map only exists once the first
// mutation ran). Labeled inserts record the AddReport order so a reopen can
// replay the exact labeler history; structure-only documents (empty LPS)
// have no postings, no docid entry and no replay event, so they carry
// neither terminal nor label. The updated map rides the next commit,
// exactly like the record it describes.
func (di *DynamicIndex) recordInsertVersion(id uint32, terminal uint64, labeled bool) {
	m := di.ix.versions
	if m == nil {
		return
	}
	m.Counter++
	iv := mvcc.Interval{From: m.Counter}
	if labeled {
		iv.Terminal = terminal
		iv.Label = m.NextLabel
		m.NextLabel++
	}
	m.Docs[id] = []mvcc.Interval{iv}
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

// Underflows reports how many insertions failed with scope underflow.
func (di *DynamicIndex) Underflows() int {
	di.ix.repairMu.RLock()
	defer di.ix.repairMu.RUnlock()
	return di.ix.labeler.Underflows()
}

// LabelerStats reports the resident labeler trie: how many nodes it stands
// for (one per posting it handed out, materialized or in a tail) and the
// heap it occupies.
func (di *DynamicIndex) LabelerStats() (nodes, bytes int) {
	di.ix.repairMu.RLock()
	defer di.ix.repairMu.RUnlock()
	return di.ix.labeler.Nodes(), di.ix.labeler.Bytes()
}

// Alpha returns the labeler's prepared-prefix depth.
func (di *DynamicIndex) Alpha() int { return di.ix.alpha }

// Spread returns the labeler's per-symbol range reservation.
func (di *DynamicIndex) Spread() uint64 { return di.ix.spread }

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
	di.ix.store.SetStat("sequences", int64(di.ix.labeler.Sequences()))
	return di.ix.commit()
}

// makeDynamic gives a fresh index a dynamic labeler tuned by dopts whose
// preparatory pass covers the first prepared documents.
func (ix *Index) makeDynamic(dopts DynamicOptions, prepared int) {
	if dopts.Spread == 0 {
		dopts.Spread = 1 << 20
	}
	ix.alpha, ix.spread, ix.prepared = dopts.Alpha, dopts.Spread, prepared
	ix.labeler = vtrie.NewDynamicLabeler(ix.alpha, ix.spread)
}

// prepareDocument computes the docstore record and interned sequence of a
// document, updating the in-memory MaxGap catalog and build statistics. It
// is shared by the static builder and the dynamic index.
func (ix *Index) prepareDocument(id uint32, doc *xmltree.Document) (*docstore.Record, []vtrie.Symbol, error) {
	ds, err := Transform(id, doc, ix.opts.Extended)
	if err != nil {
		return nil, nil, err
	}
	rec := new(docstore.Record)
	return rec, ix.internDocSeq(id, ds, rec), nil
}
