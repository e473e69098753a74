package prix

import (
	"fmt"
	"sort"

	"repro/internal/btree"
	"repro/internal/vtrie"
)

// This file is the dynamic half of the bulk-load path, built for online
// compaction: a long-running DynamicIndex accumulates an append-heavy
// page layout, and the compactor rewrites it into packed bulk-loaded trees
// that must remain insertable afterwards. FinalizeBulk cannot serve here —
// its exact Builder labeling has no scope slack for future inserts — so
// BulkLoadDynamic drives a fresh DynamicLabeler through the same external
// sort + bulk load, and OpenDynamic replays the labeler state from the
// stored records so the compacted index reopens ready for more Inserts.

// ErrNotDynamic reports that an on-disk index was not written by a
// DynamicIndex Flush (it has no labeler replay parameters), so it cannot be
// reopened insertable.
var ErrNotDynamic = fmt.Errorf("prix: index has no dynamic labeler state")

// OpenDynamic reopens an on-disk dynamic index — one persisted by
// DynamicIndex.Flush or built by BulkLoadDynamic — with its labeler state
// reconstructed, so inserts can continue where they left off.
//
// The labeler is rebuilt by deterministic replay: the first `prepared`
// records feed the preparatory pass, then every record is re-added in docid
// order. Both passes repeat exactly the operations that built the index, so
// the in-memory trie (scopes, next-free cursors) matches the persisted
// postings without any of them being read back.
//
// An insert commits its record to the store before its postings, docid entry
// and shape reach the forest. A document the store holds but the docid tree
// does not is an insert a crash cut between the two commits: the replay
// reports exactly the trie nodes and terminal that insert created, and they
// are written now (redoInserts), so the reopened index holds the post-insert
// image.
func OpenDynamic(dir string, opts Options) (*DynamicIndex, error) {
	ix, err := Open(dir, opts)
	if err != nil {
		return nil, err
	}
	alpha, okA := ix.store.Stat("alpha")
	spread, okS := ix.store.Stat("spread")
	prepared, okP := ix.store.Stat("prepared")
	if !okA || !okS || !okP {
		ix.Close()
		return nil, fmt.Errorf("%w: %s", ErrNotDynamic, dir)
	}
	di := &DynamicIndex{
		ix:       ix,
		labeler:  vtrie.NewDynamicLabeler(int(alpha), uint64(spread)),
		alpha:    int(alpha),
		spread:   uint64(spread),
		prepared: int(prepared),
	}
	n := ix.store.NumDocs()
	prep := int(prepared)
	if prep > n {
		prep = n
	}
	redo, err := di.newInsertRedo(n)
	if err != nil {
		ix.Close()
		return nil, err
	}
	if ix.versions != nil {
		if err := di.replayVersioned(n, prep, redo); err != nil {
			ix.Close()
			return nil, err
		}
		di.nextID = uint32(n)
		if err := redo.finish(); err != nil {
			ix.Close()
			return nil, err
		}
		return di, nil
	}
	for id := 0; id < prep; id++ {
		rec, err := ix.store.GetAny(uint32(id))
		if err != nil {
			// Mirrors RepairForest: a record both stores lost is quarantined,
			// not fatal — the replay skips it like the rebuild did.
			continue
		}
		if len(rec.LPS) == 0 {
			continue
		}
		if err := di.labeler.Prepare(rec.LPS); err != nil {
			ix.Close()
			return nil, err
		}
	}
	di.labeler.Finalize()
	for id := 0; id < n; id++ {
		rec, err := ix.store.GetAny(uint32(id))
		if err != nil {
			continue
		}
		if len(rec.LPS) == 0 {
			continue
		}
		// The created postings and the docid entry are already on disk; only
		// the labeler's in-memory scope bookkeeping is being replayed.
		created, terminal, err := di.labeler.AddReport(rec.LPS, rec.DocID)
		if err != nil {
			ix.Close()
			return nil, fmt.Errorf("prix: dynamic replay of document %d: %w", rec.DocID, err)
		}
		redo.note(rec.DocID, created, terminal)
	}
	di.nextID = uint32(n)
	if err := redo.finish(); err != nil {
		ix.Close()
		return nil, err
	}
	return di, nil
}

// insertRedo collects, during the replay, the forest half of every insert
// the forest never committed.
type insertRedo struct {
	ix *Index
	// known marks the documents that have a docid-tree entry (live or
	// tombstone); nil when the docid tree did not read, and the redo is
	// left to the scrubber's forest rebuild.
	known []bool
	torn  []tornInsert
}

type tornInsert struct {
	docID    uint32
	created  []vtrie.Posting
	terminal uint64
}

// newInsertRedo marks, in one pass over the docid tree read around the
// forest's pool, the documents the forest knows. A docid tree that does not
// scan — damage, not a transient fault — does not fail the open: the redo is
// skipped, as the replay skips an unreadable record, and RepairForest
// rebuilds the tree from the records.
func (di *DynamicIndex) newInsertRedo(n int) (*insertRedo, error) {
	r := &insertRedo{ix: di.ix, known: make([]bool, n)}
	err := di.ix.docid.ScanDocIDsNoFill(nil, nil, true, true, func(_ uint64, d uint32, _ uint64) bool {
		if int(d) < n {
			r.known[d] = true
		}
		return true
	})
	if err != nil && !IsTransient(err) {
		r.known, err = nil, nil
	}
	return r, err
}

// note records a replayed report of a document the forest does not know.
func (r *insertRedo) note(docID uint32, created []vtrie.Posting, terminal vtrie.Posting) {
	if r.known != nil && !r.known[docID] {
		r.torn = append(r.torn, tornInsert{docID, created, terminal.Left})
	}
}

// finish writes what the torn inserts left out of the forest — the postings
// not already there, the docid entries and any shape the shape tree lacks —
// and commits it.
func (r *insertRedo) finish() error {
	if r.known == nil {
		return nil
	}
	ix := r.ix
	for _, t := range r.torn {
		for _, p := range t.created {
			key := postingKey(p.Symbol, p.Left)
			vals, err := ix.postings.Get(key[:])
			if err != nil {
				return err
			}
			if len(vals) == 0 {
				if err := ix.insertPosting(p); err != nil {
					return err
				}
			}
		}
		if err := ix.docid.Insert(btree.KeyUint64(t.terminal), btree.DocIDValue(t.docID, 0)); err != nil {
			return err
		}
	}
	before := ix.shapesInTree
	if err := ix.writeShapes(); err != nil {
		return err
	}
	if len(r.torn) == 0 && ix.shapesInTree == before {
		return nil
	}
	if err := ix.forest.Flush(); err != nil {
		return err
	}
	// The redo may have posted a symbol for the first time.
	return ix.store.Flush()
}

// replayVersioned rebuilds the dynamic labeler for an index carrying
// version history. Once mutations interleave with inserts, docid order no
// longer matches AddReport order, so the replay follows the labels the
// version map recorded: label 0 covers every report made before the map
// existed (or since the last rebuild, which relabels in docid order), then
// labeled events replay in the exact order the labeler originally consumed
// scope. Each event's sequence is the record image of its own interval —
// superseded images resolve through their back-pointers, so updates replay
// with the LPS the labeler actually saw, not today's.
func (di *DynamicIndex) replayVersioned(n, prep int, redo *insertRedo) error {
	ix := di.ix
	vs := ix.versions
	type event struct {
		label uint64
		docID uint32
		lps   []vtrie.Symbol
	}
	var events []event
	var prepLPS [][]vtrie.Symbol
	for id := 0; id < n; id++ {
		ivs := vs.Docs[uint32(id)]
		if len(ivs) == 0 {
			// Legacy document, never mutated: its one report used the
			// current record, before any label existed.
			rec, err := ix.store.GetAny(uint32(id))
			if err != nil || len(rec.LPS) == 0 {
				// Unreadable records were quarantined (and skipped) exactly
				// like this by the rebuild; empty sequences never reported.
				continue
			}
			events = append(events, event{0, uint32(id), rec.LPS})
			if id < prep {
				prepLPS = append(prepLPS, rec.LPS)
			}
			continue
		}
		for i, iv := range ivs {
			if iv.Marker() {
				continue // compaction-reclaimed: postings gone from this epoch
			}
			if i > 0 && iv.Label == 0 {
				continue // record-only patch: no new trie path was carved
			}
			lps, ok := ix.intervalLPS(uint32(id), iv)
			if !ok || len(lps) == 0 {
				continue
			}
			events = append(events, event{iv.Label, uint32(id), lps})
			if i == 0 && id < prep {
				// The prepare pass at build time saw the original image.
				prepLPS = append(prepLPS, lps)
			}
		}
	}
	for _, lps := range prepLPS {
		if err := di.labeler.Prepare(lps); err != nil {
			return err
		}
	}
	di.labeler.Finalize()
	sort.Slice(events, func(i, j int) bool {
		if events[i].label != events[j].label {
			return events[i].label < events[j].label
		}
		return events[i].docID < events[j].docID
	})
	for _, e := range events {
		created, terminal, err := di.labeler.AddReport(e.lps, e.docID)
		if err != nil {
			return fmt.Errorf("prix: versioned replay of document %d (label %d): %w", e.docID, e.label, err)
		}
		redo.note(e.docID, created, terminal)
	}
	return nil
}

// BulkLoadDynamic builds a compacted, still-insertable index from a
// replayable DocSeq stream: every sequence feeds the labeler's preparatory
// pass (so the whole collection pre-allocates scopes and the rebuild cannot
// underflow short of spread exhaustion), then the postings are spilled as
// sorted runs under bo's memory budget and k-way merged into bulk-loaded
// B+-trees by FinalizeBulk's own bulkSorter.
//
// source is invoked twice and must yield the identical stream both times,
// in ascending dense docid order (0, 1, 2, ...). Given the same stream and
// options the produced files are byte-identical, which is what lets a
// crash-interrupted compaction redo this phase from scratch and converge
// on the same index.
//
// version is the counter of the version history the caller adopts onto the
// index (Index.AdoptVersions), 0 for none: the Docid leaves keep room for
// its tombstones and those of the deletes after it (btree.Fill).
func BulkLoadDynamic(opts Options, dopts DynamicOptions, bo BulkOptions, version uint64, source func(fn func(*DocSeq) error) error) (*DynamicIndex, error) {
	ix, err := newEmptyIndex(opts)
	if err != nil {
		return nil, err
	}
	di, err := bulkLoadDynamic(ix, dopts, bo, version, source)
	if err != nil {
		// Restartable callers redo the build from scratch; release the
		// half-written files rather than leaving them open.
		ix.Close()
		return nil, err
	}
	return di, nil
}

func bulkLoadDynamic(ix *Index, dopts DynamicOptions, bo BulkOptions, version uint64, source func(fn func(*DocSeq) error) error) (*DynamicIndex, error) {
	if dopts.Spread == 0 {
		dopts.Spread = 1 << 20
	}
	lab := vtrie.NewDynamicLabeler(dopts.Alpha, dopts.Spread)
	di := &DynamicIndex{
		ix:      ix,
		labeler: lab,
		alpha:   dopts.Alpha,
		spread:  dopts.Spread,
	}
	var bs buildStats

	// Prepare pass: intern (idempotent — the build pass re-interns the same
	// labels to the same symbols) and feed the labeler's statistics.
	next := uint32(0)
	err := source(func(ds *DocSeq) error {
		if ds.DocID != next {
			return fmt.Errorf("prix: bulk dynamic source out of order: got docid %d, want %d", ds.DocID, next)
		}
		next++
		_, syms := ix.internDocSeq(ds.DocID, ds)
		if len(syms) == 0 {
			return nil
		}
		return lab.Prepare(syms)
	})
	if err != nil {
		return nil, err
	}
	lab.Finalize()
	total := next

	sorter := ix.newBulkSorter(bo, btree.Fill{Insertable: true, Version: version})

	// The prepared prefix trie's postings are written once, like
	// NewDynamicIndex does through EmitPrefix.
	if err := lab.EmitPrefix(sorter.addPosting); err != nil {
		return nil, err
	}

	// Build pass: label each sequence, spill the created postings and the
	// terminal docid entry, and store the record (and a new shape).
	next = 0
	err = source(func(ds *DocSeq) error {
		if ds.DocID != next {
			return fmt.Errorf("prix: bulk dynamic source out of order: got docid %d, want %d", ds.DocID, next)
		}
		next++
		rec, syms := ix.internDocSeq(ds.DocID, ds)
		bs.elements += ds.Elements
		bs.values += ds.Values
		if ds.MaxDepth > bs.maxDepth {
			bs.maxDepth = ds.MaxDepth
		}
		bs.seqLen += int64(len(syms))
		if len(syms) == 0 {
			return ix.putRecord(rec)
		}
		created, terminal, err := lab.AddReport(syms, ds.DocID)
		if err != nil {
			return fmt.Errorf("prix: bulk dynamic label of document %d: %w", ds.DocID, err)
		}
		for _, p := range created {
			if err := sorter.addPosting(p); err != nil {
				return err
			}
		}
		if err := sorter.addDocid(terminal.Left, ds.DocID); err != nil {
			return err
		}
		return ix.putRecord(rec)
	})
	if err != nil {
		return nil, err
	}
	if next != total {
		return nil, fmt.Errorf("prix: bulk dynamic source replayed %d docs, prepared %d", next, total)
	}
	if err := sorter.load(); err != nil {
		return nil, err
	}

	ix.stageCatalogs()
	ix.store.SetStat("elements", bs.elements)
	ix.store.SetStat("values", bs.values)
	ix.store.SetStat("maxdepth", bs.maxDepth)
	ix.store.SetStat("seqlen", bs.seqLen)
	ix.store.SetStat("sequences", int64(lab.Sequences()))
	ix.store.SetStat("alpha", int64(dopts.Alpha))
	ix.store.SetStat("spread", int64(dopts.Spread))
	ix.store.SetStat("prepared", int64(total))
	if err := ix.store.Flush(); err != nil {
		return nil, err
	}
	if err := ix.forest.Flush(); err != nil {
		return nil, err
	}
	di.prepared = int(total)
	di.nextID = total
	ix.PreloadHot()
	return di, nil
}
