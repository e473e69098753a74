package prix

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/btree"
	"repro/internal/docstore"
	"repro/internal/pager"
	"repro/internal/prufer"
	"repro/internal/vtrie"
)

// Online repair exploits the redundancy PRIX builds in by construction: a
// document is stored twice, once as its record (NPS + LPS + leaves, §4.3)
// and once as its path through the virtual trie (postings-tree entries +
// Docid entry + the structure sidecar). By the one-to-one correspondence of
// §3.1 either copy determines the document, so when one side is damaged the
// other rebuilds it:
//
//   - record damaged, postings healthy → the sidecar supplies NPS and
//     leaves, and the LPS is re-derived by walking the trie: the strict
//     ancestors of the terminal node are exactly the postings whose range
//     contains the terminal's LeftPos, one per level.
//   - postings damaged, record healthy → the docid entry or sidecar is
//     rewritten from the record; damage to the shared trie structure itself
//     escalates to a full forest rebuild from all surviving records.
//
// Both directions commit through the rollback journal, so a crash mid-repair
// recovers to either the pre- or post-repair image, never between.

// Sentinels classifying what VerifyDoc found and what repair concluded.
var (
	// ErrRecordDamaged marks damage on the document-record side: the store
	// page is corrupt, the record does not decode, or its Prüfer sequence
	// fails the round-trip check.
	ErrRecordDamaged = errors.New("prix: document record damaged")
	// ErrPostingsDamaged marks damage on the index side: the trie path,
	// docid entry or structure sidecar of the document is broken.
	ErrPostingsDamaged = errors.New("prix: index postings damaged")
	// ErrNeedsForestRebuild reports per-document repair cannot fix the
	// damage because it sits in trie structure shared between documents;
	// call RepairForest (or DynamicIndex.RepairForest).
	ErrNeedsForestRebuild = errors.New("prix: forest rebuild required")
	// ErrUnrepairable reports both redundant copies of a document are
	// damaged; only RestoreSnapshot can bring it back.
	ErrUnrepairable = errors.New("prix: document unrepairable from surviving structures")
)

// RepairAction reports what RepairDoc did.
type RepairAction int

const (
	// RepairNone: the document verified clean; only its quarantine mark
	// (if any) was cleared.
	RepairNone RepairAction = iota
	// RepairRecord: the document record was rewritten from the structure
	// sidecar plus the trie path.
	RepairRecord
	// RepairPostings: the postings side was patched from the healthy
	// record (docid entry re-inserted and/or sidecar rewritten).
	RepairPostings
)

func (a RepairAction) String() string {
	switch a {
	case RepairRecord:
		return "record-rewritten"
	case RepairPostings:
		return "postings-patched"
	default:
		return "none"
	}
}

// structure sidecar ------------------------------------------------------------

// The sidecar duplicates each record's shape (NPS + leaves, no LPS) into
// the forest file, chunked under the "nps" tree. It is what makes
// record-side repair possible: postings alone determine the LPS but not the
// NPS (many trees share one labeled path), so the shape must live on the
// forest side too. Keys pack (docID << 16 | chunk) so one document's chunks
// are contiguous.
const (
	structTreeName  = "nps"
	structChunkSize = 1024
	structMaxChunks = 1 << 16
)

func structKey(docID uint32, chunk int) []byte {
	return btree.KeyUint64(uint64(docID)<<16 | uint64(chunk))
}

// writeStructure appends the record's structure sidecar entry. Called once
// per document on the build and insert paths; repair replaces entries via
// rewriteSidecar.
func (ix *Index) writeStructure(rec *docstore.Record) error {
	t, err := ix.forest.Tree(structTreeName)
	if err != nil {
		return err
	}
	data := rec.EncodeStructure()
	if len(data) > structChunkSize*structMaxChunks {
		return fmt.Errorf("prix: document %d structure of %d bytes exceeds sidecar capacity", rec.DocID, len(data))
	}
	for chunk := 0; ; chunk++ {
		n := len(data)
		if n > structChunkSize {
			n = structChunkSize
		}
		if err := t.Insert(structKey(rec.DocID, chunk), data[:n]); err != nil {
			return err
		}
		data = data[n:]
		if len(data) == 0 {
			return nil
		}
	}
}

// readStructure reassembles and decodes a document's sidecar entry. The
// returned record has no LPS (the sidecar does not store one).
func (ix *Index) readStructure(docID uint32) (*docstore.Record, error) {
	t := ix.forest.Lookup(structTreeName)
	if t == nil {
		return nil, fmt.Errorf("prix: no structure sidecar tree")
	}
	var data []byte
	for chunk := 0; chunk < structMaxChunks; chunk++ {
		vals, err := t.Get(structKey(docID, chunk))
		if err != nil {
			return nil, err
		}
		if len(vals) == 0 {
			if chunk == 0 {
				return nil, fmt.Errorf("prix: document %d has no structure sidecar entry", docID)
			}
			break
		}
		data = append(data, vals[0]...)
		if len(vals[0]) < structChunkSize {
			break
		}
	}
	rec, err := docstore.DecodeStructure(data)
	if err != nil {
		return nil, err
	}
	if rec.DocID != docID {
		return nil, fmt.Errorf("prix: sidecar of document %d decodes as document %d", docID, rec.DocID)
	}
	return rec, nil
}

// rewriteSidecar replaces a document's sidecar chunks with fresh ones
// derived from rec (duplicate-key inserts would otherwise shadow nothing:
// Get returns the oldest first).
func (ix *Index) rewriteSidecar(rec *docstore.Record) error {
	t, err := ix.forest.Tree(structTreeName)
	if err != nil {
		return err
	}
	for chunk := 0; chunk < structMaxChunks; chunk++ {
		key := structKey(rec.DocID, chunk)
		vals, err := t.Get(key)
		if err != nil {
			return err
		}
		if len(vals) == 0 {
			break
		}
		for _, v := range vals {
			if _, err := t.Delete(key, v); err != nil {
				return err
			}
		}
	}
	return ix.writeStructure(rec)
}

// verification -----------------------------------------------------------------

// VerifyDoc deep-checks one document against every structure that encodes
// it, ignoring quarantine marks. nil means both redundant copies agree; a
// non-nil error wraps ErrRecordDamaged or ErrPostingsDamaged to say which
// side repair should rebuild. Queries keep running concurrently.
func (ix *Index) VerifyDoc(docID uint32) error {
	ix.repairMu.RLock()
	defer ix.repairMu.RUnlock()
	return ix.verifyDocLocked(docID)
}

func (ix *Index) verifyDocLocked(docID uint32) error {
	rec, err := ix.store.GetAny(docID)
	if err != nil {
		return fmt.Errorf("prix: document %d: %w", docID, errors.Join(ErrRecordDamaged, err))
	}
	if err := checkRecord(ix.store.Dict(), rec); err != nil {
		return fmt.Errorf("prix: document %d: %w", docID, errors.Join(ErrRecordDamaged, err))
	}
	// The record passed its own Prüfer round-trip, so disagreement with the
	// index side is classified as postings damage.
	srec, err := ix.readStructure(docID)
	if err != nil {
		return fmt.Errorf("prix: document %d: %w", docID, errors.Join(ErrPostingsDamaged, err))
	}
	if err := structureMatches(rec, srec); err != nil {
		return fmt.Errorf("prix: document %d: %w", docID, errors.Join(ErrPostingsDamaged, err))
	}
	if err := ix.checkPostings(rec); err != nil {
		return fmt.Errorf("prix: document %d: %w", docID, errors.Join(ErrPostingsDamaged, err))
	}
	return nil
}

// checkRecord verifies a record is internally consistent by round-tripping
// it through Prüfer reconstruction (§3.1): rebuild the tree from NPS and
// re-derive the sequence; any surviving bit damage breaks postorder
// consistency, the sequence equality, or the leaf set.
func checkRecord(dict *docstore.Dict, rec *docstore.Record) error {
	n := int(rec.NumNodes)
	if n < 1 || len(rec.NPS) != n-1 || len(rec.LPS) != n-1 {
		return fmt.Errorf("inconsistent lengths: %d nodes, %d NPS, %d LPS", n, len(rec.NPS), len(rec.LPS))
	}
	seq := &prufer.Sequence{N: n}
	for i := range rec.NPS {
		seq.Numbers = append(seq.Numbers, int(rec.NPS[i]))
		seq.Labels = append(seq.Labels, dict.Name(rec.LPS[i]))
	}
	leaves := make(map[int]string, len(rec.Leaves))
	for _, l := range rec.Leaves {
		leaves[int(l.Post)] = dict.Name(l.Sym)
	}
	doc, err := prufer.Reconstruct(seq, leaves)
	if err != nil {
		return err
	}
	round := prufer.Build(doc)
	if round.Len() != len(rec.NPS) {
		return fmt.Errorf("round-trip sequence length %d, record has %d", round.Len(), len(rec.NPS))
	}
	for i := range rec.NPS {
		if int32(round.Numbers[i]) != rec.NPS[i] {
			return fmt.Errorf("NPS round-trip mismatch at position %d", i)
		}
	}
	isLeaf := make(map[int]bool, len(rec.Leaves))
	for _, node := range doc.Nodes {
		if node.IsLeaf() {
			isLeaf[node.Post] = true
		}
	}
	if len(isLeaf) != len(rec.Leaves) {
		return fmt.Errorf("record lists %d leaves, tree has %d", len(rec.Leaves), len(isLeaf))
	}
	for _, l := range rec.Leaves {
		if !isLeaf[int(l.Post)] {
			return fmt.Errorf("leaf entry %d is not a leaf of the reconstructed tree", l.Post)
		}
	}
	return nil
}

// structureMatches cross-checks a record against its sidecar copy.
func structureMatches(rec, srec *docstore.Record) error {
	if srec.NumNodes != rec.NumNodes || len(srec.NPS) != len(rec.NPS) || len(srec.Leaves) != len(rec.Leaves) {
		return fmt.Errorf("sidecar shape differs: %d/%d nodes, %d/%d NPS, %d/%d leaves",
			srec.NumNodes, rec.NumNodes, len(srec.NPS), len(rec.NPS), len(srec.Leaves), len(rec.Leaves))
	}
	for i := range rec.NPS {
		if srec.NPS[i] != rec.NPS[i] {
			return fmt.Errorf("sidecar NPS differs at position %d", i)
		}
	}
	for i := range rec.Leaves {
		if srec.Leaves[i] != rec.Leaves[i] {
			return fmt.Errorf("sidecar leaf %d differs", i)
		}
	}
	return nil
}

// walkPostings follows the document's LPS down the virtual trie, level by
// level. At depth i the candidate children are the postings of symbol
// LPS[i] inside the current scope with Level == i+1; the trie property
// guarantees exactly one. Returns the terminal node's LeftPos.
func (ix *Index) walkPostings(rec *docstore.Record) (uint64, error) {
	curL, curR := uint64(0), vtrie.MaxRange
	for i, sym := range rec.LPS {
		type hit struct{ left, right uint64 }
		var found []hit
		lo, hi := postingKey(sym, curL), postingKey(sym, curR)
		err := ix.postings.Scan(lo[:], hi[:], false, true, func(k, v []byte) bool {
			right, level := decodePosting(v)
			if int(level) == i+1 {
				_, left := decodePostingKey(k)
				found = append(found, hit{left, right})
			}
			return len(found) <= 1
		})
		if err != nil {
			return 0, err
		}
		if len(found) != 1 {
			return 0, fmt.Errorf("level %d symbol %d: %d trie nodes in scope, want exactly 1", i+1, sym, len(found))
		}
		curL, curR = found[0].left, found[0].right
	}
	return curL, nil
}

// checkPostings verifies the document's full index-side image: trie path
// plus docid entry. Single-node documents have neither.
func (ix *Index) checkPostings(rec *docstore.Record) error {
	if len(rec.LPS) == 0 {
		return nil
	}
	left, err := ix.walkPostings(rec)
	if err != nil {
		return err
	}
	return ix.checkDocidEntry(left, rec.DocID)
}

func (ix *Index) checkDocidEntry(left uint64, docID uint32) error {
	vals, err := ix.docid.Get(btree.KeyUint64(left))
	if err != nil {
		return err
	}
	for _, v := range vals {
		if len(v) == 4 && decodeDocID(v) == docID {
			return nil
		}
	}
	return fmt.Errorf("docid index has no entry for document %d at terminal %d", docID, left)
}

// CheckForest runs the B+-tree invariant checker over every tree in the
// forest, serialized against repair but not against queries.
func (ix *Index) CheckForest() []error {
	ix.repairMu.RLock()
	defer ix.repairMu.RUnlock()
	return ix.forest.Check()
}

// repair -----------------------------------------------------------------------

// RepairDoc verifies one document and rebuilds whichever redundant copy is
// damaged from the healthy one, committing through the journal. On success
// the quarantine mark is cleared. ErrNeedsForestRebuild means the damage is
// in shared trie structure; ErrUnrepairable means both copies are gone.
func (ix *Index) RepairDoc(docID uint32) (RepairAction, error) {
	ix.repairMu.Lock()
	defer ix.repairMu.Unlock()
	return ix.repairDocLocked(docID)
}

func (ix *Index) repairDocLocked(docID uint32) (RepairAction, error) {
	verr := ix.verifyDocLocked(docID)
	if verr == nil {
		ix.store.Unquarantine(docID)
		return RepairNone, nil
	}
	var action RepairAction
	switch {
	case errors.Is(verr, ErrRecordDamaged):
		if err := ix.rewriteRecordLocked(docID); err != nil {
			return RepairRecord, err
		}
		action = RepairRecord
	case errors.Is(verr, ErrPostingsDamaged):
		rec, err := ix.store.GetAny(docID)
		if err != nil {
			return RepairNone, fmt.Errorf("prix: document %d: %w", docID, errors.Join(ErrUnrepairable, err))
		}
		if len(rec.LPS) > 0 {
			left, werr := ix.walkPostings(rec)
			if werr != nil {
				// The trie path itself is broken. Trie nodes are shared
				// between documents, so patching them per-document could
				// orphan someone else's path: escalate.
				return RepairNone, fmt.Errorf("prix: document %d: trie path damaged (%v): %w", docID, werr, ErrNeedsForestRebuild)
			}
			if derr := ix.checkDocidEntry(left, docID); derr != nil {
				if err := ix.docid.Insert(btree.KeyUint64(left), encodeDocID(docID)); err != nil {
					return RepairPostings, err
				}
				ix.hotInvalidateDocid()
			}
		}
		if srec, serr := ix.readStructure(docID); serr != nil || structureMatches(rec, srec) != nil {
			if err := ix.rewriteSidecar(rec); err != nil {
				return RepairPostings, err
			}
		}
		if err := ix.forest.Flush(); err != nil {
			return RepairPostings, err
		}
		action = RepairPostings
	default:
		return RepairNone, verr
	}
	if err := ix.verifyDocLocked(docID); err != nil {
		return action, fmt.Errorf("prix: document %d failed re-verification after repair: %w", docID, err)
	}
	ix.store.Unquarantine(docID)
	return action, nil
}

// rewriteRecordLocked rebuilds a damaged record from the index side: shape
// and leaves from the sidecar, LPS from the trie path above the document's
// terminal node (its strict ancestors, one per level, found by range
// containment over the Trie-Symbol indexes).
func (ix *Index) rewriteRecordLocked(docID uint32) error {
	srec, err := ix.readStructure(docID)
	if err != nil {
		return fmt.Errorf("prix: document %d: record and sidecar both damaged: %w", docID, errors.Join(ErrUnrepairable, err))
	}
	if n := len(srec.NPS); n > 0 {
		left, err := ix.terminalLeftOf(docID)
		if err != nil {
			return fmt.Errorf("prix: document %d: %w", docID, errors.Join(ErrUnrepairable, err))
		}
		lps, err := ix.pathSymbolsTo(left, n)
		if err != nil {
			return fmt.Errorf("prix: document %d: %w", docID, errors.Join(ErrUnrepairable, err))
		}
		srec.LPS = lps
	} else {
		srec.LPS = []vtrie.Symbol{}
	}
	if err := checkRecord(ix.store.Dict(), srec); err != nil {
		return fmt.Errorf("prix: document %d: rebuilt record fails verification: %w", docID, errors.Join(ErrUnrepairable, err))
	}
	if err := ix.store.Rewrite(srec); err != nil {
		return err
	}
	ix.hotInvalidateDoc(docID)
	// Commit point: the repointed directory entry and the new record bytes
	// land atomically via the docstore journal.
	return ix.store.Flush()
}

// terminalLeftOf finds the LeftPos of the trie node where the document's
// sequence terminates, by scanning the Docid index for its entry.
func (ix *Index) terminalLeftOf(docID uint32) (uint64, error) {
	var left uint64
	found := false
	err := ix.docid.Scan(btree.KeyUint64(0), btree.KeyUint64(math.MaxUint64), true, true, func(k, v []byte) bool {
		if len(v) == 4 && decodeDocID(v) == docID {
			left = btree.Uint64Key(k)
			found = true
			return false
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, fmt.Errorf("docid index has no terminal for document %d", docID)
	}
	return left, nil
}

// pathSymbolsTo recovers the LPS of the document terminating at LeftPos
// left. Because every child's LeftPos strictly exceeds its parent's and
// LeftPos values are unique trie-wide, the postings with LeftPos < left and
// right >= left are exactly the terminal's strict ancestors, and the
// posting at left is the terminal itself — one per level 1..n. Ancestors
// carry arbitrary symbols, so this is one pass over the whole postings tree.
func (ix *Index) pathSymbolsTo(left uint64, n int) ([]vtrie.Symbol, error) {
	lps := make([]vtrie.Symbol, n)
	filled := make([]bool, n)
	var walkErr error
	err := ix.postings.Scan(nil, nil, true, true, func(k, v []byte) bool {
		sym, kl := decodePostingKey(k)
		right, level := decodePosting(v)
		if kl > left || (kl != left && right < left) {
			return true // later in the trie, or a disjoint subtree: not an ancestor
		}
		switch {
		case level < 1 || int(level) > n:
			walkErr = fmt.Errorf("path node at %d has level %d outside 1..%d", kl, level, n)
		case filled[level-1]:
			walkErr = fmt.Errorf("two path nodes claim level %d", level)
		case kl == left && int(level) != n:
			walkErr = fmt.Errorf("terminal at %d has level %d, want %d", kl, level, n)
		default:
			lps[level-1] = sym
			filled[level-1] = true
		}
		return walkErr == nil
	})
	if err == nil {
		err = walkErr
	}
	if err != nil {
		return nil, err
	}
	for i, ok := range filled {
		if !ok {
			return nil, fmt.Errorf("no trie node found for level %d of the path to %d", i+1, left)
		}
	}
	return lps, nil
}

// forest rebuild ---------------------------------------------------------------

// RepairForest rebuilds the whole forest — postings tree, Docid index
// and structure sidecar — from the surviving document records, using exact
// labeling. Documents whose records are damaged are quarantined and
// reported; they need RestoreSnapshot. After the rebuild commits, orphaned
// pages that still fail their checksum are zeroed so the file verifies
// clean end to end. For a DynamicIndex use DynamicIndex.RepairForest, which
// also rebuilds the labeler.
func (ix *Index) RepairForest() ([]uint32, error) {
	ix.repairMu.Lock()
	defer ix.repairMu.Unlock()
	return ix.rebuildForestLocked(ix.emitExactRebuild)
}

func (ix *Index) rebuildForestLocked(writeTrie func(recs []*docstore.Record) error) ([]uint32, error) {
	// Every list and summary may describe pre-rebuild structures; start the
	// tier over.
	ix.hotInvalidateAll()
	var recs []*docstore.Record
	var skipped []uint32
	for id := 0; id < ix.store.NumDocs(); id++ {
		rec, err := ix.store.GetAny(uint32(id))
		if err == nil {
			if cerr := checkRecord(ix.store.Dict(), rec); cerr != nil {
				err = cerr
			}
		}
		if err != nil {
			// Both copies of this document are about to be gone (its record
			// is damaged and the sidecar is reset below); quarantine it
			// until a RestoreSnapshot brings it back.
			ix.store.Quarantine(uint32(id))
			skipped = append(skipped, uint32(id))
			continue
		}
		recs = append(recs, rec)
	}
	ix.forest.Reset()
	if err := ix.openTrees(); err != nil {
		return nil, err
	}
	if err := writeTrie(recs); err != nil {
		return nil, fmt.Errorf("prix: forest rebuild failed (close without flushing; the journal restores the last committed image): %w", err)
	}
	for _, rec := range recs {
		if err := ix.writeStructure(rec); err != nil {
			return nil, err
		}
	}
	// Version history references the old forest's terminals and labels,
	// both gone: fold it down to the rebuilt world (tombstones re-marked at
	// the new terminals) before the forest commit, so the flushed image and
	// the map agree.
	if err := ix.collapseVersionsAfterRebuildLocked(); err != nil {
		return nil, err
	}
	if err := ix.forest.Flush(); err != nil {
		return nil, err
	}
	if ix.versions != nil {
		if err := ix.store.Flush(); err != nil {
			return nil, err
		}
	}
	// Every live page was just rewritten and committed, so any page still
	// failing its checksum on disk is an orphan of the old forest: zero it.
	if n, err := sweepPool(ix.forest.BufferPool(), nil); err != nil {
		return skipped, err
	} else if n > 0 {
		if err := ix.forest.BufferPool().FlushAll(); err != nil {
			return skipped, err
		}
	}
	return skipped, nil
}

// emitExactRebuild is the static-index trie writer for rebuildForestLocked:
// a fresh exact-labeled trie over all surviving sequences, bulk-loaded as
// Build does.
func (ix *Index) emitExactRebuild(recs []*docstore.Record) error {
	builder := vtrie.NewBuilder()
	for _, rec := range recs {
		if len(rec.LPS) == 0 {
			continue
		}
		if err := builder.Add(rec.LPS, rec.DocID); err != nil {
			return err
		}
	}
	return ix.emitTrie(builder, BulkOptions{})
}

// page sweeps ------------------------------------------------------------------

// SweepStorePages raw-scans the document store file for pages whose stored
// image fails its checksum and stages repairs: from the pool's verified
// in-memory copy when one is cached, by zeroing when no record, directory
// or meta structure references the page (an orphan left by record
// rewrites). Returns how many pages were repaired and committed.
func (ix *Index) SweepStorePages() (int, error) {
	ix.repairMu.Lock()
	defer ix.repairMu.Unlock()
	n, err := sweepPool(ix.store.BufferPool(), func(id pager.PageID) bool {
		return !ix.store.PageReferenced(id)
	})
	if err != nil {
		return n, err
	}
	if n > 0 {
		if err := ix.store.BufferPool().FlushAll(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// SweepForestPages is the forest-side light sweep: pages whose on-disk
// image fails its checksum but whose verified copy still sits in the buffer
// pool are re-sealed from the cache. No page is ever zeroed here — live and
// orphaned forest pages cannot be told apart without a rebuild, which is
// RepairForest's job.
func (ix *Index) SweepForestPages() (int, error) {
	ix.repairMu.Lock()
	defer ix.repairMu.Unlock()
	n, err := sweepPool(ix.forest.BufferPool(), func(pager.PageID) bool { return false })
	if err != nil {
		return n, err
	}
	if n > 0 {
		if err := ix.forest.BufferPool().FlushAll(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// sweepPool verifies every page of the pool's file directly against disk
// and stages a repair for each corrupt one: a cached (already verified)
// frame is simply marked dirty for rewrite; otherwise the page is zeroed if
// allowZero permits (nil permits always). The caller commits staged repairs
// with FlushAll.
func sweepPool(bp *pager.BufferPool, allowZero func(pager.PageID) bool) (int, error) {
	f := bp.File()
	buf := make([]byte, pager.PageSize)
	n := 0
	for id := uint32(0); id < f.NumPages(); id++ {
		pid := pager.PageID(id)
		if err := f.ReadPage(pid, buf); err != nil {
			return n, err
		}
		if pager.VerifyPage(pid, buf) == nil {
			continue
		}
		az := allowZero == nil || allowZero(pid)
		repaired, err := bp.RepairPage(pid, az)
		if err != nil {
			return n, err
		}
		if repaired {
			n++
		}
	}
	return n, nil
}
