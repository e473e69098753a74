package prix

import (
	"bytes"
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
// document is stored twice, once as its record (shape id + LPS, §4.3, over
// the shape dictionary's NPS and leaves) and once as its path through the
// virtual trie (postings-tree entries + Docid entry). The shape dictionary
// itself is kept twice: in the document store's shapes section and in the
// forest's shape tree. By the one-to-one correspondence of §3.1 either copy
// determines the document, so when one side is damaged the other rebuilds
// it:
//
//   - shape damaged in one copy → the other copy rewrites it; damaged in
//     both → the documents of that shape (and only they) are unrepairable.
//   - record damaged, postings healthy → the directory's shape id names the
//     NPS and leaves, and the LPS is re-derived by walking the trie: the
//     strict ancestors of the terminal node are exactly the postings whose
//     range contains the terminal's LeftPos, one per level.
//   - postings damaged, record healthy → the docid entry is rewritten from
//     the record; damage to the shared trie structure itself escalates to a
//     full forest rebuild from all surviving records.
//
// Every direction commits through the rollback journal, so a crash
// mid-repair recovers to either the pre- or post-repair image, never
// between.

// Sentinels classifying what VerifyDoc found and what repair concluded.
var (
	// ErrRecordDamaged marks damage on the document-record side: the store
	// page is corrupt, the record does not decode, or its Prüfer sequence
	// fails the round-trip check.
	ErrRecordDamaged = errors.New("prix: document record damaged")
	// ErrPostingsDamaged marks damage on the index side: the trie path,
	// docid entry or shape-tree copy of the document's shape is broken.
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
	// RepairRecord: the document record was rewritten from its shape plus
	// the trie path, or its shape restored from the shape tree.
	RepairRecord
	// RepairPostings: the postings side was patched from the healthy
	// record (docid entry re-inserted and/or shape-tree entry rewritten).
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

// shape tree -------------------------------------------------------------------

// The forest keeps the second copy of the shape dictionary: each shape's
// encoding under the "shape" tree, chunked so that no value outgrows a leaf.
// Keys pack (shape id << 16 | chunk), so one shape's chunks are contiguous.
// It is what makes record-side repair possible: postings alone determine the
// LPS but not the NPS (many trees share one labeled path), so the shapes must
// live on the forest side too.
const (
	shapeTreeName  = "shape"
	shapeChunkSize = 1024
	shapeMaxChunks = 1 << 16
)

// shapesUnknown is Index.shapesInTree before writeShapes has probed the
// tree.
const shapesUnknown = ^uint32(0)

func shapeKey(id uint32, chunk int) []byte {
	return btree.KeyUint64(uint64(id)<<16 | uint64(chunk))
}

// writeShapes copies the shapes interned since the last call into the shape
// tree. Every writer that stores a record calls it before the forest
// commits; a shape missing from the store has nothing to copy and is left
// for repair.
func (ix *Index) writeShapes() error {
	if ix.shapesInTree == shapesUnknown {
		ix.shapesInTree = ix.shapeTreeLen()
	}
	n := uint32(ix.store.NumShapes())
	if ix.shapesInTree >= n {
		return nil
	}
	t, err := ix.forest.Tree(shapeTreeName)
	if err != nil {
		return err
	}
	for ; ix.shapesInTree < n; ix.shapesInTree++ {
		if err := ix.putShapeEntry(t, ix.shapesInTree); err != nil {
			return err
		}
	}
	return nil
}

// putShapeEntry writes shape id's tree entry from the store's copy.
func (ix *Index) putShapeEntry(t *btree.Tree, id uint32) error {
	data, ok := ix.store.EncodeShape(nil, id)
	if !ok {
		return nil
	}
	if len(data) > shapeChunkSize*shapeMaxChunks {
		return fmt.Errorf("prix: shape %d of %d bytes exceeds the shape tree's capacity", id, len(data))
	}
	for chunk := 0; ; chunk++ {
		n := min(len(data), shapeChunkSize)
		if err := t.Insert(shapeKey(id, chunk), data[:n]); err != nil {
			return err
		}
		if data = data[n:]; len(data) == 0 {
			return nil
		}
	}
}

// readShape reassembles shape id's encoding from the shape tree.
func (ix *Index) readShape(id uint32) ([]byte, error) {
	t := ix.forest.Lookup(shapeTreeName)
	if t == nil {
		return nil, fmt.Errorf("prix: no shape tree")
	}
	var data []byte
	for chunk := 0; chunk < shapeMaxChunks; chunk++ {
		vals, err := t.Get(shapeKey(id, chunk))
		if err != nil {
			return nil, err
		}
		if len(vals) != 1 {
			if chunk == 0 || len(vals) > 1 {
				return nil, fmt.Errorf("prix: shape %d has %d shape-tree entries for chunk %d", id, len(vals), chunk)
			}
			break
		}
		data = append(data, vals[0]...)
		if len(vals[0]) < shapeChunkSize {
			break
		}
	}
	return data, nil
}

// shapeTreeLen returns how many shapes, from id 0 on, the shape tree holds:
// the store's count, less the tail a crash between the store's commit and
// the forest's left unwritten.
func (ix *Index) shapeTreeLen() uint32 {
	n := uint32(ix.store.NumShapes())
	t := ix.forest.Lookup(shapeTreeName)
	for n > 0 {
		if t != nil {
			if vals, err := t.Get(shapeKey(n-1, 0)); err != nil || len(vals) > 0 {
				break
			}
		}
		n--
	}
	return n
}

// checkShape compares the two copies of shape id. A shape missing from the
// store is record-side damage; a tree copy that is missing or differs is
// index-side damage.
func (ix *Index) checkShape(id uint32) error {
	want, ok := ix.store.EncodeShape(nil, id)
	if !ok {
		return fmt.Errorf("shape %d missing from the shape dictionary: %w", id, ErrRecordDamaged)
	}
	got, err := ix.readShape(id)
	if err == nil && !bytes.Equal(got, want) {
		err = fmt.Errorf("shape %d: shape-tree copy differs from the dictionary's", id)
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrPostingsDamaged, err)
	}
	return nil
}

// CheckShapes compares the two copies of every shape and resolves every
// document's shape id, returning one error per disagreement.
func (ix *Index) CheckShapes() []error {
	ix.repairMu.RLock()
	defer ix.repairMu.RUnlock()
	var errs []error
	n := uint32(ix.store.NumShapes())
	for id := uint32(0); id < n; id++ {
		if err := ix.checkShape(id); err != nil {
			errs = append(errs, err)
		}
	}
	for d := 0; d < ix.store.NumDocs(); d++ {
		if id, _ := ix.store.ShapeID(uint32(d)); id >= n {
			errs = append(errs, fmt.Errorf("document %d: directory shape id %d of %d", d, id, n))
		}
	}
	return errs
}

// repairShapeLocked makes the two copies of shape id agree, rewriting the
// damaged one from the other; both damaged is ErrUnrepairable. It commits
// what it rewrote.
func (ix *Index) repairShapeLocked(id uint32) error {
	want, inStore := ix.store.EncodeShape(nil, id)
	got, terr := ix.readShape(id)
	switch {
	case inStore && terr == nil && bytes.Equal(got, want):
		return nil
	case inStore:
		t, err := ix.forest.Tree(shapeTreeName)
		if err != nil {
			return err
		}
		for chunk := 0; chunk < shapeMaxChunks; chunk++ {
			key := shapeKey(id, chunk)
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
		if err := ix.putShapeEntry(t, id); err != nil {
			return err
		}
		return ix.forest.Flush()
	case terr == nil:
		if err := ix.store.RestoreShape(id, got); err != nil {
			return fmt.Errorf("prix: shape %d: %w", id, errors.Join(ErrUnrepairable, err))
		}
		return ix.store.Flush()
	}
	return fmt.Errorf("prix: shape %d: both copies damaged (%v): %w", id, terr, ErrUnrepairable)
}

// RepairShapes makes the two copies of every shape agree and reports the
// shapes both copies lost. Documents of a lost shape are unrepairable.
func (ix *Index) RepairShapes() (lost []uint32, err error) {
	ix.repairMu.Lock()
	defer ix.repairMu.Unlock()
	for id := uint32(0); id < uint32(ix.store.NumShapes()); id++ {
		if rerr := ix.repairShapeLocked(id); errors.Is(rerr, ErrUnrepairable) {
			lost = append(lost, id)
		} else if rerr != nil {
			return lost, rerr
		}
	}
	return lost, nil
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
	id, _ := ix.store.ShapeID(docID)
	if err := ix.checkShape(id); err != nil {
		return fmt.Errorf("prix: document %d: %w", docID, err)
	}
	rec, err := ix.store.GetAny(docID)
	if err != nil {
		return fmt.Errorf("prix: document %d: %w", docID, errors.Join(ErrRecordDamaged, err))
	}
	if err := checkRecord(ix.store.Dict(), rec); err != nil {
		return fmt.Errorf("prix: document %d: %w", docID, errors.Join(ErrRecordDamaged, err))
	}
	// The record passed its own Prüfer round-trip, so disagreement with the
	// index side is classified as postings damage.
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
	id, _ := ix.store.ShapeID(docID)
	if ix.checkShape(id) != nil {
		// One copy of the document's shape is damaged: the other rewrites it
		// before the record or the postings are judged.
		_, inStore := ix.store.EncodeShape(nil, id)
		if err := ix.repairShapeLocked(id); err != nil {
			return RepairNone, fmt.Errorf("prix: document %d: %w", docID, err)
		}
		action = RepairPostings
		if !inStore {
			action = RepairRecord
		}
		if verr = ix.verifyDocLocked(docID); verr == nil {
			ix.store.Unquarantine(docID)
			return action, nil
		}
	}
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

// rewriteRecordLocked rebuilds a damaged record from the index side: NPS
// and leaves from the shape its directory entry names, LPS from the trie
// path above the document's terminal node (its strict ancestors, one per
// level, found by range containment over the Trie-Symbol indexes).
func (ix *Index) rewriteRecordLocked(docID uint32) error {
	id, _ := ix.store.ShapeID(docID)
	srec, ok := ix.store.ShapeRecord(id)
	if !ok {
		return fmt.Errorf("prix: document %d: shape %d lost: %w", docID, id, ErrUnrepairable)
	}
	srec.DocID = docID
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
// and shape tree — from the surviving document records, using exact
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
	// Every list may describe pre-rebuild structures; start the tier over.
	ix.hotInvalidateAll()
	// The old shape tree is about to go: first restore from it whatever
	// shapes the store lost, so the rebuild writes them back.
	for _, id := range ix.store.MissingShapes() {
		if data, err := ix.readShape(id); err == nil && ix.store.RestoreShape(id, data) == nil {
			if err := ix.store.Flush(); err != nil {
				return nil, err
			}
		}
	}
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
			// The forest is about to be rebuilt without this document (its
			// record is damaged); quarantine it until a RestoreSnapshot
			// brings it back.
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
	ix.shapesInTree = 0
	if err := ix.writeShapes(); err != nil {
		return nil, err
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
