// Command prixcheck is the offline integrity verifier for a PRIX index
// directory. It never modifies the files it inspects: both page files and
// their journals are copied into memory, pending journal rollbacks are
// replayed against the copies, and every check runs on the recovered image.
//
// Checks, bottom-up:
//   - every physical page's checksum, format version and page id;
//   - every B+-tree invariant in the forest (key order, uniform leaf
//     depth, separator bracketing, no cycles, entry counts);
//   - every document-store record decodes (its shape id resolving to the
//     shape its directory entry names);
//   - on a versioned index, the MVCC version map: internal interval
//     invariants, every docid-tree tombstone matched by a closed interval
//     (and vice versa), and every superseded-record back-pointer resolving
//     to a decodable image;
//   - the recovered images open as an index: a directory written in an
//     older layout (one tree per symbol, or a per-document structure
//     sidecar) is reported here;
//   - the two copies of the shape dictionary — the docs.db shapes section
//     and the forest's shape tree — agree shape for shape, and every
//     directory entry's shape id resolves.
//
// It ends with a size report: bytes per file (journals included); docs.db by
// meta section (pages, bytes, fill) and by what its pages hold (header, meta,
// record, unreferenced); per forest tree its entries, height, pages per level
// and leaf fill; the shape dictionary (shapes, documents per shape, NPS
// entries, bytes per copy); and the directory's bytes per byte of the live
// documents serialised back to XML.
//
// With -repair, a corrupt index is opened for real (journal recovery runs
// against the files) and one scrub repair pass heals what the index's
// built-in Prüfer redundancy can reconstruct: records are rewritten from
// the trie side, postings from the record side, the forest rebuilt when
// shared trie structure is damaged. The read-only checks then run again and
// the exit status reflects the post-repair state.
//
// Exit status: 0 clean, 1 corruption found, 2 files unreadable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/btree"
	"repro/internal/compact"
	"repro/internal/docstore"
	"repro/internal/mvcc"
	"repro/internal/pager"
	"repro/internal/prix"
	"repro/internal/scrub"
)

const (
	exitClean      = 0
	exitCorrupt    = 1
	exitUnreadable = 2
)

func main() {
	verbose := flag.Bool("v", false, "print every finding, not just the summary")
	repair := flag.Bool("repair", false, "repair corruption in place using the index's Prüfer redundancy, then re-verify")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: prixcheck [-v] [-repair] <index-dir>\n\n")
		fmt.Fprintf(os.Stderr, "Verifies the page files of a PRIX index directory offline.\n")
		fmt.Fprintf(os.Stderr, "With -repair, heals what the surviving structures determine and re-verifies.\n")
		fmt.Fprintf(os.Stderr, "Exit status: 0 clean, 1 corruption found, 2 unreadable.\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(exitUnreadable)
	}
	// A compacted directory holds only a CURRENT pointer to the live
	// epoch; plain directories resolve to themselves.
	dir, err := compact.ResolveDir(flag.Arg(0))
	if err != nil {
		fmt.Printf("prixcheck: %v\n", err)
		os.Exit(exitUnreadable)
	}
	status := run(dir, *verbose)
	if status == exitCorrupt && *repair {
		if err := runRepair(dir); err != nil {
			fmt.Printf("prixcheck: repair: %v\n", err)
			os.Exit(exitCorrupt)
		}
		fmt.Println("prixcheck: repair pass complete, re-verifying")
		status = run(dir, *verbose)
	}
	os.Exit(status)
}

// runRepair opens the index read-write (journal recovery runs first) and
// executes one scrub pass with repair forced.
func runRepair(dir string) error {
	ix, err := prix.Open(dir, prix.Options{})
	if err != nil {
		return err
	}
	sc := scrub.New(ix, scrub.Config{Throttle: -1})
	rep, err := sc.RepairNow(context.Background())
	if err != nil {
		ix.Close()
		return err
	}
	fmt.Printf("prixcheck: repair: %d pages repaired, %d doc repairs, forest rebuilt: %v, still quarantined: %v\n",
		rep.PagesRepaired, len(rep.Repairs), rep.ForestRebuilt, rep.Quarantined)
	return ix.Close()
}

func run(dir string, verbose bool) int {
	worst := exitClean
	report := func(status int) {
		if status > worst {
			worst = status
		}
	}

	forest := checkFile(dir, "seq.idx", "seq.jnl", verbose, report)
	docs := checkFile(dir, "docs.db", "docs.jnl", verbose, report)

	if forest != nil {
		checkForest(forest, verbose, report)
	}
	if docs != nil {
		checkDocs(docs, verbose, report)
	}
	if forest != nil && docs != nil {
		checkVersions(forest, docs, verbose, report)
		sizeReport(dir, forest, docs, report)
	}

	switch worst {
	case exitClean:
		fmt.Println("prixcheck: clean")
	case exitCorrupt:
		fmt.Println("prixcheck: CORRUPT")
	default:
		fmt.Println("prixcheck: unreadable")
	}
	return worst
}

// checkFile loads one page file plus its journal into memory, rolls back
// any pending transaction on the copy, and checksum-verifies every page.
// It returns the recovered in-memory image for structural checks (nil when
// the file could not be read at all).
func checkFile(dir, name, journalName string, verbose bool, report func(int)) *pager.MemFile {
	path := filepath.Join(dir, name)
	mem, torn, err := loadFile(path)
	if err != nil {
		fmt.Printf("%s: unreadable: %v\n", name, err)
		report(exitUnreadable)
		return nil
	}
	if torn > 0 {
		// A torn trailing page is what a crash mid-append leaves behind; it
		// is only corruption if the journal cannot roll it back.
		fmt.Printf("%s: torn trailing page (%d stray bytes)\n", name, torn)
	}

	jpath := filepath.Join(dir, journalName)
	if jmem, _, jerr := loadFile(jpath); jerr == nil && jmem.NumPages() > 0 {
		j, err := pager.NewJournal(jmem)
		if err != nil {
			fmt.Printf("%s: journal unreadable: %v\n", journalName, err)
			report(exitUnreadable)
		} else if j.Active() {
			before := mem.NumPages()
			if _, err := j.Recover(mem); err != nil {
				fmt.Printf("%s: rollback failed: %v\n", journalName, err)
				report(exitCorrupt)
			} else {
				fmt.Printf("%s: pending transaction, rolled back in memory (%d -> %d pages); reopen the index to persist recovery\n",
					journalName, before, mem.NumPages())
			}
		}
	} else if jerr != nil && !os.IsNotExist(jerr) {
		fmt.Printf("%s: unreadable: %v\n", journalName, jerr)
		report(exitUnreadable)
	}

	bad := 0
	var buf [pager.PageSize]byte
	for id := uint32(0); id < mem.NumPages(); id++ {
		if err := mem.ReadPage(pager.PageID(id), buf[:]); err != nil {
			fmt.Printf("%s: page %d: %v\n", name, id, err)
			report(exitUnreadable)
			continue
		}
		if err := pager.VerifyPage(pager.PageID(id), buf[:]); err != nil {
			bad++
			if verbose {
				fmt.Printf("%s: %v\n", name, err)
			}
			report(exitCorrupt)
		}
	}
	if bad > 0 {
		fmt.Printf("%s: %d of %d pages fail verification\n", name, bad, mem.NumPages())
	} else {
		fmt.Printf("%s: %d pages, checksums ok\n", name, mem.NumPages())
	}
	return mem
}

// loadFile copies a file into a MemFile, padding a torn trailing page with
// zeros. The returned int is the number of stray bytes past the last full
// page boundary (0 for a well-formed file).
func loadFile(path string) (*pager.MemFile, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	mem := pager.NewMemFile()
	torn := len(data) % pager.PageSize
	for off := 0; off < len(data); off += pager.PageSize {
		id, err := mem.Allocate()
		if err != nil {
			return nil, 0, err
		}
		var page [pager.PageSize]byte
		copy(page[:], data[off:])
		if err := mem.WritePage(id, page[:]); err != nil {
			return nil, 0, err
		}
	}
	return mem, torn, nil
}

// checkForest opens the B+-tree forest over the recovered image and runs
// the full structural invariant check.
func checkForest(mem *pager.MemFile, verbose bool, report func(int)) {
	bp := pager.NewBufferPool(mem, pager.DefaultPoolPages)
	forest, err := btree.Open(bp)
	if err != nil {
		fmt.Printf("seq.idx: forest directory: %v\n", err)
		report(exitCorrupt)
		return
	}
	errs := forest.Check()
	if len(errs) == 0 {
		fmt.Printf("seq.idx: %d trees, invariants ok\n", len(forest.Names()))
		return
	}
	fmt.Printf("seq.idx: %d invariant violations\n", len(errs))
	if verbose {
		for _, e := range errs {
			fmt.Printf("seq.idx: %v\n", e)
		}
	}
	report(exitCorrupt)
}

// checkVersions cross-checks the MVCC version map (the docstore "mvcc"
// blob) against the rest of the recovered image: the map's own interval
// invariants, the docid-tree tombstones (a tombstone with no matching
// closed interval is dangling; a tombstoned interval with no tombstone
// left the forest and the map disagreeing about a delete), and every
// superseded-record back-pointer, which must resolve to a decodable image
// or AS OF reads of that version would fail. Unversioned indexes (no blob)
// skip silently; open failures are already reported by the structural
// checks above.
func checkVersions(forestMem, docsMem *pager.MemFile, verbose bool, report func(int)) {
	store, err := docstore.Open(pager.NewBufferPool(docsMem, pager.DefaultPoolPages))
	if err != nil {
		return
	}
	enc := store.Blob(prix.VersionsBlobName)
	if enc == nil {
		return
	}
	m, err := mvcc.DecodeMap(enc)
	if err != nil {
		fmt.Printf("versions: map undecodable: %v\n", err)
		report(exitCorrupt)
		return
	}
	if err := m.Check(); err != nil {
		fmt.Printf("versions: %v\n", err)
		report(exitCorrupt)
		return
	}
	if m.Pending != nil {
		// A mutation crashed between its store and forest commits; the
		// cross-checks below would see the half-applied state. Recovery at
		// the next open redoes the forest side idempotently.
		fmt.Printf("versions: pending mutation of document %d (version %d); reopen the index to complete recovery\n",
			m.Pending.DocID, m.Pending.Version)
		return
	}

	forest, err := btree.Open(pager.NewBufferPool(forestMem, pager.DefaultPoolPages))
	if err != nil {
		return
	}
	// Lookup, not Tree: Tree would create the missing tree and the index
	// would check as clean but empty.
	docid := forest.Lookup("docid")
	if docid == nil {
		fmt.Println("versions: versioned index has no docid tree")
		report(exitCorrupt)
		return
	}
	tombs := map[uint32]uint64{}
	scanErr := docid.Scan(btree.KeyUint64(0), btree.KeyUint64(^uint64(0)), true, true, func(k, v []byte) bool {
		if id, ver, ok := prix.DecodeTombstone(v); ok {
			tombs[id] = ver
		}
		return true
	})
	if scanErr != nil {
		fmt.Printf("versions: docid scan: %v\n", scanErr)
		report(exitCorrupt)
		return
	}

	bad := 0
	flag := func(format string, args ...any) {
		bad++
		if verbose {
			fmt.Printf("versions: "+format+"\n", args...)
		}
		report(exitCorrupt)
	}
	for id, ver := range tombs {
		ivs := m.Docs[id]
		if len(ivs) == 0 {
			flag("dangling tombstone: document %d (version %d) has no version intervals", id, ver)
			continue
		}
		last := ivs[len(ivs)-1]
		if last.To == 0 || last.Marker() || last.To != ver {
			flag("dangling tombstone: document %d marked deleted at version %d but its map interval is [%d,%d)", id, ver, last.From, last.To)
		}
	}
	locs := 0
	for id, ivs := range m.Docs {
		if len(ivs) == 0 {
			continue
		}
		last := ivs[len(ivs)-1]
		if last.To != 0 && !last.Marker() {
			if _, ok := tombs[id]; !ok {
				// Sequence-less documents (no symbols) have no docid entry
				// to mark; their stored record carries an empty LPS.
				if rec, err := store.Get(id); err != nil || len(rec.LPS) > 0 {
					flag("missing tombstone: document %d deleted at version %d in the map but live in the docid tree", id, last.To)
				}
			}
		}
		for _, iv := range ivs {
			if iv.Loc.Zero() {
				continue
			}
			locs++
			loc := docstore.Loc{Page: pager.PageID(iv.Loc.Page), Off: iv.Loc.Off, Len: iv.Loc.Len}
			if _, err := store.GetAtLoc(id, loc); err != nil {
				flag("document %d version %d: superseded image unreachable at page %d: %v", id, iv.From, iv.Loc.Page, err)
			}
		}
	}
	if bad > 0 {
		fmt.Printf("versions: %d invariant violations (%d documents, %d tombstones)\n", bad, len(m.Docs), len(tombs))
		return
	}
	fmt.Printf("versions: %d documents at version %d, %d tombstones, %d superseded images, invariants ok\n",
		len(m.Docs), m.Counter, len(tombs), locs)
}

// sizeReport opens the recovered images as an index — the step that refuses a
// directory in an older layout — checks its two shape-dictionary copies
// against each other, and prints what its bytes are spent on. It runs last:
// Open may complete a pending mutation on the copies.
func sizeReport(dir string, forestMem, docsMem *pager.MemFile, report func(int)) {
	ix, err := prix.Open(dir, prix.Options{OpenFile: func(path string) (pager.File, error) {
		switch filepath.Base(path) {
		case prix.ForestFileName:
			return forestMem, nil
		case prix.DocsFileName:
			return docsMem, nil
		}
		return pager.NewMemFile(), nil // journals: the copies are rolled back already
	}})
	if err != nil {
		if errors.Is(err, prix.ErrOldLayout) {
			fmt.Printf("layout: %v\n", err)
		} else {
			fmt.Printf("index does not open: %v\n", err)
		}
		report(exitCorrupt)
		return
	}
	defer ix.Close()
	checkShapes(ix, report)

	var total int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			fmt.Printf("size: %-9s %10d bytes\n", e.Name(), info.Size())
			total += info.Size()
		}
	}
	// docs.db by what its pages hold. A page nothing references — bytes of
	// rewritten records, a replaced chain page — is what a repair sweep may
	// zero and a compaction reclaims.
	store := ix.Store()
	meta, unreferenced := 0, 0
	for _, sec := range store.MetaSections() {
		fmt.Printf("size: docs.db %-10s %4d pages, %8d bytes, fill %.1f%%\n",
			sec.Name, sec.Pages, sec.Bytes, 100*float64(sec.Bytes)/float64(sec.Pages*pager.PageSize))
		meta += sec.Pages
	}
	for id := uint32(1); id < docsMem.NumPages(); id++ {
		if !store.PageReferenced(pager.PageID(id)) {
			unreferenced++
		}
	}
	fmt.Printf("size: docs.db pages: 1 header, %d meta, %d record, %d unreferenced\n",
		meta, int(docsMem.NumPages())-1-meta-unreferenced, unreferenced)
	forest := ix.Forest()
	for _, name := range forest.Names() {
		sh, err := forest.Lookup(name).Shape()
		if err != nil {
			fmt.Printf("size: tree %q: %v\n", name, err)
			continue
		}
		levels := make([]string, len(sh.Pages))
		for i, n := range sh.Pages {
			levels[i] = fmt.Sprint(n)
		}
		// Bytes per entry: what the leaf pages cost for what they hold.
		perEntry := "-"
		if sh.Entries > 0 {
			perEntry = fmt.Sprintf("%.1f", float64(sh.Pages[len(sh.Pages)-1]*pager.PageDataSize)/float64(sh.Entries))
		}
		fmt.Printf("size: tree %-6q %8d entries, height %d, pages %s (root..leaves), leaf fill %.1f%%, %s cells, %s B per entry\n",
			name, sh.Entries, len(sh.Pages), strings.Join(levels, "/"), 100*sh.LeafFill, sh.LeafFormat, perEntry)
	}
	u := store.ShapeUsage()
	fmt.Printf("size: shapes %d shapes, %.1f documents per shape, %d NPS entries, %d bytes per copy, %d resident\n",
		u.Shapes, float64(u.Docs)/float64(max(u.Shapes, 1)), u.NPSEntries, u.Encoded, u.Resident)
	var xml int64
	live := 0
	for id := 0; id < ix.NumDocs(); id++ {
		if doc, err := ix.ReconstructDocument(uint32(id)); err == nil {
			xml += doc.XMLSize()
			live++
		}
	}
	if xml > 0 {
		fmt.Printf("size: directory %d bytes = %.2f per byte of XML (%d documents, %d bytes serialised)\n",
			total, float64(total)/float64(xml), live, xml)
	}
}

// checkShapes holds the shape dictionary's two copies against each other and
// resolves every directory entry's shape id; a mismatch is corruption.
func checkShapes(ix *prix.Index, report func(int)) {
	errs := ix.CheckShapes()
	if len(errs) == 0 {
		fmt.Printf("shapes: %d shapes, both copies agree\n", ix.Store().NumShapes())
		return
	}
	fmt.Printf("shapes: %d disagreements between the shapes section and the shape tree\n", len(errs))
	for _, e := range errs {
		fmt.Printf("shapes: %v\n", e)
	}
	report(exitCorrupt)
}

// checkDocs opens the document store over the recovered image and decodes
// every record.
func checkDocs(mem *pager.MemFile, verbose bool, report func(int)) {
	bp := pager.NewBufferPool(mem, pager.DefaultPoolPages)
	store, err := docstore.Open(bp)
	if err != nil {
		fmt.Printf("docs.db: store catalog: %v\n", err)
		report(exitCorrupt)
		return
	}
	bad := store.Verify()
	if len(bad) == 0 {
		fmt.Printf("docs.db: %d documents, records ok\n", store.NumDocs())
		return
	}
	ids := make([]uint32, 0, len(bad))
	for id := range bad {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Printf("docs.db: %d of %d documents fail to decode\n", len(bad), store.NumDocs())
	if verbose {
		for _, id := range ids {
			fmt.Printf("docs.db: document %d: %v\n", id, bad[id])
		}
	}
	report(exitCorrupt)
}
