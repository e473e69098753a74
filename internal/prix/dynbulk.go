package prix

import (
	"fmt"
	"sort"

	"repro/internal/btree"
	"repro/internal/docstore"
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

// OpenDynamic reopens an on-disk dynamic index — one a DynamicIndex
// committed or BulkLoadDynamic built — with its labeler state
// reconstructed, so inserts can continue where they left off.
//
// The labeler is rebuilt by deterministic replay (relabel): the first
// `prepared` records feed the preparatory pass, then every record is re-added
// in docid order. Both passes repeat exactly the operations that built the
// index, so the in-memory trie (scopes, next-free cursors) matches the
// persisted postings without any of them being read back: the store's
// records and the forest's postings commit together, so every record the
// replay reads has its postings on disk.
func OpenDynamic(dir string, opts Options) (*DynamicIndex, error) {
	ix, err := Open(dir, opts)
	if err != nil {
		return nil, err
	}
	if !ix.dynamic() {
		ix.Close()
		return nil, fmt.Errorf("%w: %s", ErrNotDynamic, dir)
	}
	if ix.versions != nil {
		err = ix.replayVersioned()
	} else {
		recs, _ := ix.survivingRecords()
		err = ix.relabel(recs, ix.prepared, false)
	}
	if err != nil {
		ix.Close()
		return nil, err
	}
	return &DynamicIndex{ix: ix, nextID: uint32(ix.store.NumDocs())}, nil
}

// labelableRecord reads docID's current record by the one rule every
// relabeling follows: a record that reads and passes its Prüfer round trip
// (checkRecord) is labeled; any other is skipped. A forest rebuild labels
// the records it returns and quarantines the rest, and both of OpenDynamic's
// replays take the records it returns, so a replay retraces the rebuild.
func (ix *Index) labelableRecord(docID uint32) (*docstore.Record, error) {
	rec, err := ix.store.GetAny(docID)
	if err == nil {
		err = checkRecord(ix.store.Dict(), rec)
	}
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// survivingRecords returns every labelable record in docid order, and the
// docids of the records it skipped.
func (ix *Index) survivingRecords() (recs []*docstore.Record, skipped []uint32) {
	for id := 0; id < ix.store.NumDocs(); id++ {
		rec, err := ix.labelableRecord(uint32(id))
		if err != nil {
			skipped = append(skipped, uint32(id))
			continue
		}
		recs = append(recs, rec)
	}
	return recs, skipped
}

// relabel makes the index's labeler afresh, with its tuning, by a labeling
// of recs (in docid order): the records of the first prep documents feed the
// preparatory pass, then Finalize, then every record is added. With write
// set — a forest rebuild — the prepared prefix's postings and what each add
// creates go into the forest, with the document's docid entry; OpenDynamic's
// replay, whose postings are on disk already, writes nothing.
func (ix *Index) relabel(recs []*docstore.Record, prep int, write bool) error {
	lab := vtrie.NewDynamicLabeler(ix.alpha, ix.spread)
	for _, rec := range recs {
		if int(rec.DocID) >= prep {
			break
		}
		if len(rec.LPS) > 0 {
			if err := lab.Prepare(rec.LPS); err != nil {
				return err
			}
		}
	}
	lab.Finalize()
	if write {
		if err := lab.EmitPrefix(ix.insertPosting); err != nil {
			return err
		}
	}
	for _, rec := range recs {
		if len(rec.LPS) == 0 {
			continue
		}
		created, terminal, err := lab.AddReport(rec.LPS, rec.DocID)
		if err != nil {
			return fmt.Errorf("prix: dynamic relabel of document %d: %w", rec.DocID, err)
		}
		if !write {
			continue
		}
		for _, p := range created {
			if err := ix.insertPosting(p); err != nil {
				return err
			}
		}
		if err := ix.docid.Insert(btree.KeyUint64(terminal.Left), btree.DocIDValue(rec.DocID, 0)); err != nil {
			return err
		}
	}
	ix.labeler = lab
	return nil
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
func (ix *Index) replayVersioned() error {
	vs := ix.versions
	lab := vtrie.NewDynamicLabeler(ix.alpha, ix.spread)
	type event struct {
		label uint64
		docID uint32
		lps   []vtrie.Symbol
	}
	var events []event
	var prepLPS [][]vtrie.Symbol
	for id := 0; id < ix.store.NumDocs(); id++ {
		ivs := vs.Docs[uint32(id)]
		if len(ivs) == 0 {
			// Legacy document, never mutated: its one report used the
			// current record, before any label existed.
			rec, err := ix.labelableRecord(uint32(id))
			if err != nil || len(rec.LPS) == 0 {
				// The rebuild skipped (and quarantined) the records
				// labelableRecord refuses; empty sequences never reported.
				continue
			}
			events = append(events, event{0, uint32(id), rec.LPS})
			if id < ix.prepared {
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
			if i == 0 && id < ix.prepared {
				// The prepare pass at build time saw the original image.
				prepLPS = append(prepLPS, lps)
			}
		}
	}
	for _, lps := range prepLPS {
		if err := lab.Prepare(lps); err != nil {
			return err
		}
	}
	lab.Finalize()
	sort.Slice(events, func(i, j int) bool {
		if events[i].label != events[j].label {
			return events[i].label < events[j].label
		}
		return events[i].docID < events[j].docID
	})
	for _, e := range events {
		if _, _, err := lab.AddReport(e.lps, e.docID); err != nil {
			return fmt.Errorf("prix: versioned replay of document %d (label %d): %w", e.docID, e.label, err)
		}
	}
	ix.labeler = lab
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
	ix.makeDynamic(dopts, 0)
	lab := ix.labeler
	var bs buildStats
	// rec is every document's record in turn: both passes intern into it,
	// and the store copies it out, so neither pass keeps a DocSeq.
	var rec docstore.Record

	// Prepare pass: intern (idempotent — the build pass re-interns the same
	// labels to the same symbols) and feed the labeler's statistics. It also
	// counts what the build pass will hand the sorter: a docid entry per
	// sequence, and at most a posting per symbol, since every trie node is a
	// distinct prefix of some sequence.
	next := uint32(0)
	var symbols, sequences int
	err := source(func(ds *DocSeq) error {
		if ds.DocID != next {
			return fmt.Errorf("prix: bulk dynamic source out of order: got docid %d, want %d", ds.DocID, next)
		}
		next++
		syms := ix.internDocSeq(ds.DocID, ds, &rec)
		if len(syms) == 0 {
			return nil
		}
		symbols += len(syms)
		sequences++
		return lab.Prepare(syms)
	})
	if err != nil {
		return nil, err
	}
	lab.Finalize()
	total := next

	sorter := ix.newBulkSorter(bo, btree.Fill{Insertable: true, Version: version}, symbols, sequences)

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
		syms := ix.internDocSeq(ds.DocID, ds, &rec)
		bs.elements += ds.Elements
		bs.values += ds.Values
		if ds.MaxDepth > bs.maxDepth {
			bs.maxDepth = ds.MaxDepth
		}
		bs.seqLen += int64(len(syms))
		if len(syms) == 0 {
			return ix.putRecord(&rec)
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
		return ix.putRecord(&rec)
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
	ix.prepared = int(total)
	if err := ix.commit(); err != nil {
		return nil, err
	}
	ix.PreloadHot()
	return &DynamicIndex{ix: ix, nextID: total}, nil
}
