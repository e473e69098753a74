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
	mu      sync.RWMutex
	ix      *Index
	labeler *vtrie.DynamicLabeler
	nextID  uint32
	// alpha and spread remember the labeler tuning so RepairForest can
	// build a replacement labeler with the same parameters.
	alpha  int
	spread uint64
	// prepared is how many leading documents (docids 0..prepared-1) fed the
	// labeler's preparatory pass. Flush persists it (with alpha and spread)
	// so OpenDynamic can replay the exact labeler state from the stored
	// records alone.
	prepared int
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
	if dopts.Spread == 0 {
		dopts.Spread = 1 << 20
	}
	di := &DynamicIndex{
		ix:       ix,
		labeler:  vtrie.NewDynamicLabeler(dopts.Alpha, dopts.Spread),
		alpha:    dopts.Alpha,
		spread:   dopts.Spread,
		prepared: len(initial),
	}
	// Preparatory pass over the initial documents' sequences (the id
	// passed here is irrelevant: no state is stored during Prepare).
	for _, doc := range initial {
		_, syms, err := ix.prepareDocument(0, doc)
		if err != nil {
			return nil, err
		}
		if err := di.labeler.Prepare(syms); err != nil {
			return nil, err
		}
	}
	di.labeler.Finalize()
	// The prepared prefix trie's postings must be written once; Add only
	// reports nodes it creates below (or beside) the prefix.
	if err := di.labeler.EmitPrefix(ix.insertPosting); err != nil {
		return nil, err
	}
	for _, doc := range initial {
		if err := di.Insert(doc); err != nil {
			return nil, err
		}
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
	created, terminal, err := di.labeler.AddReport(syms, id)
	if err != nil {
		return fmt.Errorf("prix: dynamic insert of document %d: %w", id, err)
	}
	for _, p := range created {
		if err := di.ix.insertPosting(p); err != nil {
			return err
		}
	}
	if err := di.ix.docid.Insert(btree.KeyUint64(terminal.Left), encodeDocID(id)); err != nil {
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
// neither terminal nor label. The updated map rides the next store flush,
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
// MatchOptions.Parallelism flows through unchanged — the parallel pipeline
// runs entirely under the read lock, so it serializes against Insert as a
// unit exactly like a serial query.
func (di *DynamicIndex) Match(q *twig.Query, opts MatchOptions) ([]Match, *QueryStats, error) {
	di.mu.RLock()
	defer di.mu.RUnlock()
	opts.WarmCache = true
	return di.ix.Match(q, opts)
}

// Count is Match returning only the number of occurrences.
func (di *DynamicIndex) Count(q *twig.Query, opts MatchOptions) (int, *QueryStats, error) {
	ms, stats, err := di.Match(q, opts)
	if err != nil {
		return 0, nil, err
	}
	return len(ms), stats, nil
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
func (di *DynamicIndex) Underflows() int { return di.labeler.Underflows() }

// LabelerStats reports the resident labeler trie: how many nodes it holds
// (one per posting it handed out) and the heap they occupy.
func (di *DynamicIndex) LabelerStats() (nodes, bytes int) {
	di.mu.RLock()
	defer di.mu.RUnlock()
	return di.labeler.Nodes(), di.labeler.Bytes()
}

// Alpha returns the labeler's prepared-prefix depth.
func (di *DynamicIndex) Alpha() int { return di.alpha }

// Spread returns the labeler's per-symbol range reservation.
func (di *DynamicIndex) Spread() uint64 { return di.spread }

// RepairForest rebuilds the forest from the surviving document records with
// a fresh dynamic labeler (same α-prefix and spread as the original),
// replacing Index.RepairForest for dynamic indexes: the labeler's in-memory
// trie must be rebuilt alongside the postings or later Inserts would carve
// ranges that no longer exist. All sequences are Prepared before Finalize,
// so the relabeling pass cannot underflow unless a sequence exceeds the
// spread capacity; in that case the error reports the rebuild failed and
// the journal still holds the pre-rebuild committed image.
func (di *DynamicIndex) RepairForest() ([]uint32, error) {
	di.mu.Lock()
	defer di.mu.Unlock()
	di.ix.repairMu.Lock()
	defer di.ix.repairMu.Unlock()
	return di.ix.rebuildForestLocked(func(recs []*docstore.Record) error {
		lab := vtrie.NewDynamicLabeler(di.alpha, di.spread)
		for _, rec := range recs {
			if len(rec.LPS) == 0 {
				continue
			}
			if err := lab.Prepare(rec.LPS); err != nil {
				return err
			}
		}
		lab.Finalize()
		if err := lab.EmitPrefix(di.ix.insertPosting); err != nil {
			return err
		}
		for _, rec := range recs {
			if len(rec.LPS) == 0 {
				continue
			}
			created, terminal, err := lab.AddReport(rec.LPS, rec.DocID)
			if err != nil {
				return fmt.Errorf("prix: dynamic relabel of document %d: %w", rec.DocID, err)
			}
			for _, p := range created {
				if err := di.ix.insertPosting(p); err != nil {
					return err
				}
			}
			if err := di.ix.docid.Insert(btree.KeyUint64(terminal.Left), encodeDocID(rec.DocID)); err != nil {
				return err
			}
		}
		di.labeler = lab
		// The rebuilt labeler prepared every surviving record, so a replay
		// (OpenDynamic) must prepare the whole docid range too.
		di.prepared = di.ix.store.NumDocs()
		return nil
	})
}

// Close closes the underlying index's storage.
func (di *DynamicIndex) Close() error {
	di.mu.Lock()
	defer di.mu.Unlock()
	return di.ix.Close()
}

// Flush persists all structures, including the MaxGap catalog and the
// posted-symbol set accumulated so far.
func (di *DynamicIndex) Flush() error {
	di.mu.Lock()
	defer di.mu.Unlock()
	di.ix.stageCatalogs()
	di.ix.store.SetStat("sequences", int64(di.labeler.Sequences()))
	// The labeler replay parameters: their presence marks the on-disk index
	// as dynamic (reopenable via OpenDynamic).
	di.ix.store.SetStat("alpha", int64(di.alpha))
	di.ix.store.SetStat("spread", int64(di.spread))
	di.ix.store.SetStat("prepared", int64(di.prepared))
	if err := di.ix.store.Flush(); err != nil {
		return err
	}
	return di.ix.forest.Flush()
}

// prepareDocument computes the docstore record and interned sequence of a
// document, updating the in-memory MaxGap catalog and build statistics. It
// is shared by the static builder and the dynamic index.
func (ix *Index) prepareDocument(id uint32, doc *xmltree.Document) (*docstore.Record, []vtrie.Symbol, error) {
	ds, err := Transform(id, doc, ix.opts.Extended)
	if err != nil {
		return nil, nil, err
	}
	rec, syms := ix.internDocSeq(id, ds)
	return rec, syms, nil
}
