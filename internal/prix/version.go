package prix

// Document versioning (update/delete/patch) with MVCC time travel.
//
// Version state lives in an mvcc.Map persisted as the "mvcc" docstore blob:
// per document, a list of version intervals [From, To) with an optional
// back-pointer (Loc) at the superseded record bytes and the docid-tree
// terminal the document's sequence attached to during the interval. A nil
// map is the legacy always-visible world — indexes that never mutate pay
// nothing on the query path.
//
// A mutation is one commit (Index.commit) through the journal the store and
// the forest share: the interval change, the rewritten record (updates) and
// the encoded map on the store side, and the tombstone / new postings / new
// docid entry / a new shape's shape-tree entry on the forest side, land
// together or not at all. A crash anywhere recovers the pre- or the
// post-mutation image; nothing in between is ever observable.
//
// Deletes additionally write a tombstone into the docid tree at the
// document's terminal key — the docID and the version it was deleted at
// (btree.DocIDValue) — so the forest itself records the deletion (prixcheck
// cross-checks it against the map). Query scans (btree.Tree.ScanDocIDs) skip
// every entry whose tombstone version is not 0.

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/docstore"
	"repro/internal/mvcc"
	"repro/internal/pager"
	"repro/internal/prufer"
	"repro/internal/vtrie"
	"repro/internal/xmltree"
)

// VersionsBlobName keys the encoded version map in the docstore blob
// section (exported for prixcheck).
const VersionsBlobName = "mvcc"

// ErrDocDeleted reports a mutation aimed at a document whose latest version
// is a tombstone (or a compaction-reclaimed stub).
var ErrDocDeleted = errors.New("prix: document deleted")

// version map plumbing ---------------------------------------------------------

func toStoreLoc(l mvcc.Loc) docstore.Loc {
	return docstore.Loc{Page: pager.PageID(l.Page), Off: l.Off, Len: l.Len}
}

func fromStoreLoc(l docstore.Loc) mvcc.Loc {
	return mvcc.Loc{Page: uint32(l.Page), Off: l.Off, Len: l.Len}
}

// loadVersions decodes the persisted map at Open time (nil when absent) and
// installs the extra-refs hook that keeps superseded record pages alive.
func (ix *Index) loadVersions() error {
	b := ix.store.Blob(VersionsBlobName)
	if b == nil {
		return nil
	}
	m, err := mvcc.DecodeMap(b)
	if err != nil {
		return fmt.Errorf("version map: %w", err)
	}
	ix.versions = m
	ix.installVersionRefs()
	return nil
}

// persistVersionsLocked stages the current map into the docstore blob; the
// caller's next commit persists it. An encoding identical to the stored
// blob stages nothing (SetBlob compares), so that commit leaves the catalogs
// section alone. The map is encoded into the index's kept buffer, which
// SetBlob copies out of. Held under repairMu (write).
func (ix *Index) persistVersionsLocked() {
	if ix.versions == nil {
		ix.store.SetBlob(VersionsBlobName, nil)
		return
	}
	ix.versionsBuf, ix.versionIDs = ix.versions.AppendEncode(ix.versionsBuf[:0], ix.versionIDs)
	ix.store.SetBlob(VersionsBlobName, ix.versionsBuf)
}

// installVersionRefs wires PageReferenced so the store sweep never zeroes
// pages holding superseded record images an AS OF read can still resolve.
func (ix *Index) installVersionRefs() {
	ix.store.SetExtraRefs(func(id pager.PageID) bool {
		// Called with the sweep holding repairMu exclusively (or at open,
		// single-threaded), so the map is stable.
		vs := ix.versions
		if vs == nil {
			return false
		}
		for _, ivs := range vs.Docs {
			for _, iv := range ivs {
				if iv.Loc.Zero() {
					continue
				}
				first := pager.PageID(iv.Loc.Page)
				end := int(iv.Loc.Off) + int(iv.Loc.Len) - 1
				last := first + pager.PageID(end/pager.PageDataSize)
				if first <= id && id <= last {
					return true
				}
			}
		}
		return false
	})
}

// AdoptVersions installs (and persists) a version map wholesale — the
// compaction publisher moves the collapsed source map onto the freshly
// bulk-loaded epoch with it. The map is anchored to this forest on the way
// (the old epoch's terminals and tombstone entries did not survive the
// rewrite; see anchorVersionsLocked). A nil map disables versioning.
func (ix *Index) AdoptVersions(m *mvcc.Map) error {
	ix.repairMu.Lock()
	defer ix.repairMu.Unlock()
	ix.versions = m
	ix.installVersionRefs()
	if m != nil {
		if err := ix.anchorVersionsLocked(); err != nil {
			return err
		}
	}
	ix.persistVersionsLocked()
	return ix.commit()
}

// anchorVersionsLocked ties a collapsed version map to the forest it now
// describes: every carried document's last interval — live, or a retained
// tombstone — gets the terminal its sequence has in this forest, and the
// tombstones are re-marked there. Without the terminal a later Delete has no
// key to write its tombstone at, and a later relabelling Update closes the
// interval with a terminal the emit filter accepts at any key.
func (ix *Index) anchorVersionsLocked() error {
	terms, err := ix.terminalsByDoc()
	if err != nil {
		return err
	}
	// Ascending ids, so the tombstones land in the same order on every run
	// and a compaction writes the same docid tree bytes.
	ids := make([]uint32, 0, len(ix.versions.Docs))
	for id := range ix.versions.Docs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		ivs := ix.versions.Docs[id]
		if len(ivs) == 0 || ivs[len(ivs)-1].Marker() {
			continue
		}
		left, ok := terms[id]
		if !ok {
			continue // sequence-less document: no entry to anchor to
		}
		last := &ivs[len(ivs)-1]
		last.Terminal = left
		if last.To != 0 {
			if err := ix.writeTombstoneLocked(left, id, last.To); err != nil {
				return err
			}
		}
	}
	return nil
}

// terminalsByDoc maps every document to its docid-tree terminal key in one
// scan (first live entry wins; tombstones are skipped).
func (ix *Index) terminalsByDoc() (map[uint32]uint64, error) {
	out := map[uint32]uint64{}
	err := ix.docid.ScanDocIDs(nil, nil, true, true, func(term uint64, id uint32, tomb uint64) bool {
		if _, seen := out[id]; !seen && tomb == 0 {
			out[id] = term
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CloneVersions returns a deep copy of the version map under the read lock
// (nil when versioning is off) — a compaction pins it for its drain.
func (ix *Index) CloneVersions() *mvcc.Map {
	ix.repairMu.RLock()
	defer ix.repairMu.RUnlock()
	if ix.versions == nil {
		return nil
	}
	return ix.versions.Clone()
}

// VersionSnapshot atomically pairs the document count with a deep copy of
// the version map (nil when versioning is off), so a compaction drain
// watermark and its pinned map describe the same instant even under
// concurrent writers.
func (di *DynamicIndex) VersionSnapshot() (int, *mvcc.Map) {
	di.mu.RLock()
	defer di.mu.RUnlock()
	di.ix.repairMu.RLock()
	defer di.ix.repairMu.RUnlock()
	n := di.ix.store.NumDocs()
	if di.ix.versions == nil {
		return n, nil
	}
	return n, di.ix.versions.Clone()
}

// VersionStats is the MVCC block surfaced by /stats and prixbench.
type VersionStats struct {
	// Enabled reports whether the index has any version state.
	Enabled bool
	// Current is the latest assigned version (0 until the first mutation).
	Current uint64
	// Tombstones counts documents deleted (or reclaimed) at latest.
	Tombstones int
	// Versioned counts documents carrying any version state.
	Versioned int
	// MutOps counts deletes + updates since the map was created.
	MutOps uint64
}

// VersionStats reports the index's MVCC state.
func (ix *Index) VersionStats() VersionStats {
	ix.repairMu.RLock()
	defer ix.repairMu.RUnlock()
	vs := ix.versions
	if vs == nil {
		return VersionStats{}
	}
	return VersionStats{
		Enabled:    true,
		Current:    vs.Counter,
		Tombstones: vs.Tombstones(),
		Versioned:  vs.Versioned(),
		MutOps:     vs.MutOps,
	}
}

// VersionStats proxies the inner index under the dynamic read lock.
func (di *DynamicIndex) VersionStats() VersionStats {
	di.mu.RLock()
	defer di.mu.RUnlock()
	return di.ix.VersionStats()
}

// visibility -------------------------------------------------------------------

// visibleAt reports whether docID, reached through the docid entry at
// terminal key termLeft, is visible at version asOf (0 = latest). The
// terminal check is what hides an updated document's old docid entry from
// latest reads and its new entry from historical ones.
func (ix *Index) visibleAt(docID uint32, termLeft uint64, asOf uint64) bool {
	if ix.versions == nil {
		return true
	}
	iv, ok := ix.versions.At(docID, asOf)
	if !ok {
		return false
	}
	return iv.Terminal == 0 || iv.Terminal == termLeft
}

// docVisibleAt is visibleAt without a terminal in hand (single-node scans
// and the exhaustive fallback, which walk docids directly).
func (ix *Index) docVisibleAt(docID uint32, asOf uint64) bool {
	if ix.versions == nil {
		return true
	}
	_, ok := ix.versions.At(docID, asOf)
	return ok
}

// intervalLPS resolves the label sequence of the record image an interval
// describes: the superseded image at its back-pointer when one is recorded,
// the current record otherwise (open intervals, and deletes, leave the
// record in place). Used by the versioned labeler replay; a lost image is
// reported as !ok and skipped, mirroring the quarantine semantics.
func (ix *Index) intervalLPS(docID uint32, iv mvcc.Interval) ([]vtrie.Symbol, bool) {
	if iv.Loc.Zero() {
		// The current record, under the rule a rebuild labels by: a record
		// the rebuild skipped (and quarantined) is skipped here too.
		rec, err := ix.labelableRecord(docID)
		if err != nil {
			return nil, false
		}
		return rec.LPS, true
	}
	rec, err := ix.store.GetAtLoc(docID, toStoreLoc(iv.Loc))
	if err != nil {
		return nil, false
	}
	return rec.LPS, true
}

// forest-side helpers ----------------------------------------------------------

// writeTombstoneLocked inserts the delete marker at the terminal key,
// idempotently (an AdoptVersions retried after a failed commit redoes it).
func (ix *Index) writeTombstoneLocked(term uint64, docID uint32, version uint64) error {
	if ok, err := ix.hasDocidEntry(term, docID, version); err != nil || ok {
		return err
	}
	if err := ix.docid.Insert(btree.KeyUint64(term), btree.DocIDValue(docID, version)); err != nil {
		return err
	}
	ix.hotInvalidateDocid()
	return nil
}

// collapseVersionsAfterRebuildLocked folds version history for a rebuilt
// forest: the rebuild relabels every surviving record in docid order, so
// update-history back-pointers (whose postings are gone) are dropped, every
// interval's Label reset and its Terminal moved to the rebuilt forest's, and
// tombstones are re-marked there. Retention follows the repair semantics of a
// Retain-0 compaction for update history while every delete span survives —
// the deleted documents' records were rebuilt into the forest, so AS OF
// inside a delete span still twig-matches.
func (ix *Index) collapseVersionsAfterRebuildLocked() error {
	vs := ix.versions
	if vs == nil {
		return nil
	}
	for id, ivs := range vs.Docs {
		if len(ivs) == 0 {
			continue
		}
		last := ivs[len(ivs)-1]
		if !last.Marker() {
			last.Loc = mvcc.Loc{}
			last.Terminal = 0
			last.Label = 0
		}
		vs.Docs[id] = []mvcc.Interval{last}
	}
	vs.NextLabel = 1
	if err := ix.anchorVersionsLocked(); err != nil {
		return err
	}
	ix.persistVersionsLocked()
	return nil
}

// dynamic mutations ------------------------------------------------------------

// UpdateResult reports what an Update or Patch did.
type UpdateResult struct {
	// Version is the new version assigned to the document.
	Version uint64
	// Relabeled reports the LPS changed, forcing a new trie path (new
	// postings and docid entry). An unchanged LPS patches only the record.
	Relabeled bool
	// PatchBytes is the encoded size of the minimal sequence diff applied.
	PatchBytes int
	// FullBytes is the encoded size a from-scratch rewrite would have
	// shipped, for update-vs-reinsert accounting.
	FullBytes int
}

// ensureVersionsLocked lazily creates the version map on the first
// mutation. Documents inserted before it exists stay legacy (always visible
// until their first mutation synthesizes a base interval).
func (di *DynamicIndex) ensureVersionsLocked() *mvcc.Map {
	if di.ix.versions == nil {
		di.ix.versions = mvcc.NewMap()
		di.ix.installVersionRefs()
	}
	return di.ix.versions
}

// openTerminalLocked resolves the terminal key of docID's current docid
// entry: from its open interval when versioned, by scanning the docid tree
// for legacy documents. 0 means the document has no entry (empty sequence).
func (di *DynamicIndex) openTerminalLocked(docID uint32, iv mvcc.Interval, legacy bool) uint64 {
	if !legacy {
		return iv.Terminal
	}
	left, err := di.ix.terminalLeftOf(docID)
	if err != nil {
		return 0
	}
	return left
}

// Delete removes a document as of a new version: historical AS OF reads
// still see it, latest reads do not. The document's record and postings
// stay in place (compaction reclaims them past the retention watermark).
func (di *DynamicIndex) Delete(docID uint32) (uint64, error) {
	defer di.gen.Add(1)
	return di.deleteLocked(docID)
}

func (di *DynamicIndex) deleteLocked(docID uint32) (uint64, error) {
	di.mu.Lock()
	defer di.mu.Unlock()
	di.ix.repairMu.Lock()
	defer di.ix.repairMu.Unlock()
	if int(docID) >= di.ix.store.NumDocs() {
		return 0, fmt.Errorf("prix: delete of unknown document %d", docID)
	}
	vs := di.ensureVersionsLocked()
	iv, ok := vs.At(docID, 0)
	if !ok {
		return 0, fmt.Errorf("prix: delete of document %d: %w", docID, ErrDocDeleted)
	}
	legacy := len(vs.Docs[docID]) == 0
	term := di.openTerminalLocked(docID, iv, legacy)
	v := vs.Counter + 1
	if legacy {
		vs.Docs[docID] = []mvcc.Interval{{From: 0, To: v, Terminal: term}}
	} else {
		ivs := vs.Docs[docID]
		ivs[len(ivs)-1].To = v
		vs.Docs[docID] = ivs
	}
	vs.MutOps++
	vs.Counter = v
	if term != 0 {
		if err := di.ix.writeTombstoneLocked(term, docID, v); err != nil {
			return 0, err
		}
	}
	di.ix.hotInvalidateDocid()
	di.ix.persistVersionsLocked()
	if err := di.ix.commit(); err != nil {
		return 0, err
	}
	return v, nil
}

// Update replaces a document's content as of a new version. The old image
// stays resolvable for AS OF reads through a back-pointer; when the new
// Prüfer sequence differs, the dynamic labeler carves a fresh trie path and
// the old docid entry keeps serving history.
func (di *DynamicIndex) Update(docID uint32, doc *xmltree.Document) (*UpdateResult, error) {
	defer di.gen.Add(1)
	return di.updateLocked(docID, doc, nil)
}

// Patch applies a minimal sequence diff (mvcc.Diff over NPS/LPS pairs and
// leaves) to a document, validating the patched record round-trips before
// committing. It is Update for callers that ship deltas instead of full
// documents.
func (di *DynamicIndex) Patch(docID uint32, p *mvcc.Patch) (*UpdateResult, error) {
	defer di.gen.Add(1)
	return di.updateLocked(docID, nil, p)
}

func (di *DynamicIndex) updateLocked(docID uint32, doc *xmltree.Document, patch *mvcc.Patch) (*UpdateResult, error) {
	di.mu.Lock()
	defer di.mu.Unlock()
	di.ix.repairMu.Lock()
	defer di.ix.repairMu.Unlock()
	if int(docID) >= di.ix.store.NumDocs() {
		return nil, fmt.Errorf("prix: update of unknown document %d", docID)
	}
	vs := di.ensureVersionsLocked()
	iv, ok := vs.At(docID, 0)
	if !ok {
		return nil, fmt.Errorf("prix: update of document %d: %w", docID, ErrDocDeleted)
	}
	oldRec, err := di.ix.store.GetAny(docID)
	if err != nil {
		return nil, fmt.Errorf("prix: update of document %d: current record unreadable: %w", docID, err)
	}

	var newRec *docstore.Record
	var syms []vtrie.Symbol
	if patch != nil {
		pairs, leaves, err := patch.Apply(recPairs(oldRec), recLeaves(oldRec))
		if err != nil {
			return nil, fmt.Errorf("prix: patch of document %d: %w", docID, err)
		}
		newRec = recordFromPairs(docID, patch.NumNodes, pairs, leaves)
		if err := checkRecord(di.ix.store.Dict(), newRec); err != nil {
			return nil, fmt.Errorf("prix: patch of document %d yields an invalid record: %w", docID, err)
		}
		di.ix.accountRecordGaps(newRec)
		syms = newRec.LPS
	} else {
		if newRec, syms, err = di.ix.prepareDocument(docID, doc); err != nil {
			return nil, err
		}
	}
	newPairs, newLeaves := recPairs(newRec), recLeaves(newRec)
	patchBytes := mvcc.Diff(recPairs(oldRec), newPairs, recLeaves(oldRec), newLeaves, newRec.NumNodes).Size()
	fullBytes := mvcc.RewriteSize(newPairs, newLeaves, newRec.NumNodes)
	relabel := !lpsEqual(oldRec.LPS, newRec.LPS) && len(syms) > 0

	var created []vtrie.Posting
	newTerm := uint64(0)
	label := uint64(0)
	legacy := len(vs.Docs[docID]) == 0
	oldTerm := di.openTerminalLocked(docID, iv, legacy)
	if relabel {
		var terminal vtrie.Posting
		// AddReport runs before any durable write: a scope underflow aborts
		// the whole mutation with nothing committed.
		created, terminal, err = di.ix.labeler.AddReport(syms, docID)
		if err != nil {
			return nil, fmt.Errorf("prix: dynamic update of document %d: %w", docID, err)
		}
		newTerm = terminal.Left
		label = vs.NextLabel
		vs.NextLabel++
	} else {
		newTerm = oldTerm
	}

	oldLoc, err := di.ix.store.RewriteKeepOld(newRec)
	if err != nil {
		return nil, err
	}
	v := vs.Counter + 1
	closed := mvcc.Interval{From: 0, To: v, Terminal: oldTerm, Loc: fromStoreLoc(oldLoc)}
	if legacy {
		vs.Docs[docID] = []mvcc.Interval{closed}
	} else {
		ivs := vs.Docs[docID]
		ivs[len(ivs)-1].To = v
		ivs[len(ivs)-1].Loc = fromStoreLoc(oldLoc)
		vs.Docs[docID] = ivs
	}
	vs.Docs[docID] = append(vs.Docs[docID], mvcc.Interval{From: v, Terminal: newTerm, Label: label})
	vs.MutOps++
	vs.Counter = v
	for _, p := range created {
		if err := di.ix.insertPosting(p); err != nil {
			return nil, err
		}
	}
	if relabel {
		if err := di.ix.docid.Insert(btree.KeyUint64(newTerm), btree.DocIDValue(docID, 0)); err != nil {
			return nil, err
		}
		di.ix.hotInvalidateDocid()
	}
	if err := di.ix.writeShapes(); err != nil {
		return nil, err
	}
	di.ix.persistVersionsLocked()
	if err := di.ix.commit(); err != nil {
		return nil, err
	}
	return &UpdateResult{
		Version:    v,
		Relabeled:  relabel,
		PatchBytes: patchBytes,
		FullBytes:  fullBytes,
	}, nil
}

// record <-> diff shapes -------------------------------------------------------

func recPairs(rec *docstore.Record) []mvcc.Pair {
	out := make([]mvcc.Pair, len(rec.NPS))
	for i := range rec.NPS {
		out[i] = mvcc.Pair{N: rec.NPS[i], L: uint32(rec.LPS[i])}
	}
	return out
}

func recLeaves(rec *docstore.Record) []mvcc.Leaf {
	out := make([]mvcc.Leaf, len(rec.Leaves))
	for i, l := range rec.Leaves {
		out[i] = mvcc.Leaf{Post: l.Post, Sym: uint32(l.Sym)}
	}
	return out
}

func recordFromPairs(docID uint32, numNodes int32, pairs []mvcc.Pair, leaves []mvcc.Leaf) *docstore.Record {
	rec := &docstore.Record{DocID: docID, NumNodes: numNodes}
	if len(pairs) > 0 {
		rec.NPS = make([]int32, len(pairs))
		rec.LPS = make([]vtrie.Symbol, len(pairs))
		for i, p := range pairs {
			rec.NPS[i] = p.N
			rec.LPS[i] = vtrie.Symbol(p.L)
		}
	} else {
		rec.NPS = []int32{}
		rec.LPS = []vtrie.Symbol{}
	}
	for _, l := range leaves {
		rec.Leaves = append(rec.Leaves, docstore.Leaf{Post: l.Post, Sym: vtrie.Symbol(l.Sym)})
	}
	return rec
}

func lpsEqual(a, b []vtrie.Symbol) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// accountRecordGaps folds a patched record's child gaps into the MaxGap
// catalog — the patch path's stand-in for internDocSeq's gap pass. The
// tree is reconstructed from the record exactly as checkRecord does.
func (ix *Index) accountRecordGaps(rec *docstore.Record) {
	dict := ix.store.Dict()
	seq := &prufer.Sequence{N: int(rec.NumNodes)}
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
		return // checkRecord already vetted it; defensive only
	}
	for _, n := range doc.Nodes {
		if len(n.Children) == 0 {
			continue
		}
		sym, ok := LookupSymbol(dict, n.Label, n.IsValue)
		if !ok {
			continue
		}
		gap := int64(n.Children[len(n.Children)-1].Post - n.Children[0].Post)
		if gap > ix.maxGap[sym] {
			ix.maxGap[sym] = gap
		}
	}
}

// stub document for compaction-reclaimed slots ---------------------------------

// ReclaimedDocSeq is the single-node stub a compaction drains in place of a
// reclaimed document: no sequence, no postings, no docid entry; the marker
// interval keeps it invisible at every version.
func ReclaimedDocSeq(docID uint32) *DocSeq {
	return &DocSeq{DocID: docID, NumNodes: 1}
}
