package prix

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/btree"
	"repro/internal/docstore"
	"repro/internal/pager"
	"repro/internal/vtrie"
	"repro/internal/xmltree"
)

// The crash-sweep-over-repair property: a power cut at ANY write point of an
// online record repair (journal writes included) must recover, on reopen, to
// a committed image — the pre-repair state (with its corrupt page) or the
// state after some completed repair step — never a torn in-between.
//
// The harness mirrors internal/pager/crash_test.go: build an index over
// in-memory files, corrupt one record page, learn the repair's write count W
// and its per-step committed images on a reference run, then re-run the
// repair W times with a shared PowerClock cutting at write k (every third
// cut tearing the final page write), reopen the frozen images through
// journal recovery, and compare byte-for-byte.

func captureFile(t *testing.T, f pager.File) [][]byte {
	t.Helper()
	var img [][]byte
	buf := make([]byte, pager.PageSize)
	for id := uint32(0); id < f.NumPages(); id++ {
		if err := f.ReadPage(pager.PageID(id), buf); err != nil {
			t.Fatal(err)
		}
		img = append(img, append([]byte(nil), buf...))
	}
	return img
}

func cloneMem(t *testing.T, img [][]byte) *pager.MemFile {
	t.Helper()
	mem := pager.NewMemFile()
	for _, page := range img {
		id, err := mem.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.WritePage(id, page); err != nil {
			t.Fatal(err)
		}
	}
	return mem
}

func imagesEqual(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// crashIndexImages builds an index over MemFiles, flips one bit in its first
// record page, and returns the four file images (docs, docs journal, forest,
// forest journal) as the repair workload's starting state.
func crashIndexImages(t *testing.T) [4][][]byte {
	t.Helper()
	docsMem, docsJnl := pager.NewMemFile(), pager.NewMemFile()
	forestMem, forestJnl := pager.NewMemFile(), pager.NewMemFile()
	ix, err := openCrashIndex(docsMem, docsJnl, forestMem, forestJnl, true)
	if err != nil {
		t.Fatal(err)
	}
	b := &Builder{ix: ix, trie: vtrie.NewBuilder()}
	// Five records on the flipped page, so five repair commits: since a store
	// flush writes only the pages it changed, three no longer span the write
	// ordinals this sweep used to cover.
	docs := append(degradedDocs(),
		xmltree.MustFromSExpr(3, `(a (b (e)))`),
		xmltree.MustFromSExpr(4, `(a (d (c)))`))
	for _, doc := range docs {
		if err := b.Add(doc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
	pages := recordPages(ix)
	if len(pages) == 0 {
		t.Fatal("no record pages")
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pager.FlipBit(docsMem, pages[0], (pager.PageHeaderSize+5)*8); err != nil {
		t.Fatal(err)
	}
	return [4][][]byte{
		captureFile(t, docsMem), captureFile(t, docsJnl),
		captureFile(t, forestMem), captureFile(t, forestJnl),
	}
}

// openCrashIndex assembles an Index over explicit files, running the same
// journal-recovery open protocol as prix.Open. fresh selects NewStore (build)
// vs Open (reopen).
func openCrashIndex(docsF, docsJ, forestF, forestJ pager.File, fresh bool) (*Index, error) {
	fj, err := pager.NewJournal(forestJ)
	if err != nil {
		return nil, err
	}
	fbp, err := pager.NewJournaledPool(forestF, fj, 8)
	if err != nil {
		return nil, err
	}
	dj, err := pager.NewJournal(docsJ)
	if err != nil {
		return nil, err
	}
	dbp, err := pager.NewJournaledPool(docsF, dj, 8)
	if err != nil {
		return nil, err
	}
	forest, err := btree.Open(fbp)
	if err != nil {
		return nil, err
	}
	ix := &Index{opts: Options{}, forest: forest, maxGap: map[vtrie.Symbol]int64{}}
	if fresh {
		ix.store, err = docstore.NewStore(dbp, &docstore.Dict{})
	} else {
		ix.store, err = docstore.Open(dbp)
	}
	if err != nil {
		return nil, err
	}
	if fresh {
		err = ix.openTrees()
	} else {
		err = ix.loadCatalogs()
	}
	return ix, err
}

// runRepairSteps opens the index and performs the repair as a sequence of
// individually committed steps, stopping after stopAfter of them. It returns
// how many steps ran. The pools are abandoned, not closed: every step ends at
// a commit point, so there is nothing left to flush.
func runRepairSteps(docsF, docsJ, forestF, forestJ pager.File, stopAfter int) (int, error) {
	ix, err := openCrashIndex(docsF, docsJ, forestF, forestJ, false)
	if err != nil {
		return 0, err
	}
	performed := 0
	for id := 0; id < ix.store.NumDocs(); id++ {
		if verr := ix.VerifyDoc(uint32(id)); verr != nil {
			if _, err := ix.RepairDoc(uint32(id)); err != nil {
				return performed, err
			}
			performed++
			if performed >= stopAfter {
				return performed, nil
			}
		}
	}
	if _, err := ix.SweepStorePages(); err != nil {
		return performed, err
	}
	performed++
	return performed, nil
}

func TestCrashSweepOverRecordRepair(t *testing.T) {
	init := crashIndexImages(t)

	// Reference run: learn the step count and the committed image after each
	// step. snaps[0] is the pre-repair (corrupted) state.
	docsSnaps := [][][]byte{init[0]}
	forestSnaps := [][][]byte{init[2]}
	refDocs, refDocsJ := cloneMem(t, init[0]), cloneMem(t, init[1])
	refForest, refForestJ := cloneMem(t, init[2]), cloneMem(t, init[3])
	totalSteps, err := runRepairSteps(refDocs, refDocsJ, refForest, refForestJ, 1<<30)
	if err != nil {
		t.Fatalf("reference repair: %v", err)
	}
	if totalSteps < 2 {
		t.Fatalf("repair ran only %d steps; workload too small", totalSteps)
	}
	for j := 1; j <= totalSteps; j++ {
		d, dj := cloneMem(t, init[0]), cloneMem(t, init[1])
		f, fj := cloneMem(t, init[2]), cloneMem(t, init[3])
		if _, err := runRepairSteps(d, dj, f, fj, j); err != nil {
			t.Fatalf("prefix run %d: %v", j, err)
		}
		docsSnaps = append(docsSnaps, captureFile(t, d))
		forestSnaps = append(forestSnaps, captureFile(t, f))
	}
	if imagesEqual(docsSnaps[0], docsSnaps[totalSteps]) {
		t.Fatal("repair did not change the store file; nothing to crash-sweep")
	}

	// Counting run through FaultFiles to learn W.
	clock := pager.NewPowerClock(0)
	var cf [4]*pager.FaultFile
	cf[0], cf[1] = pager.NewFaultFile(cloneMem(t, init[0])), pager.NewFaultFile(cloneMem(t, init[1]))
	cf[2], cf[3] = pager.NewFaultFile(cloneMem(t, init[2])), pager.NewFaultFile(cloneMem(t, init[3]))
	for _, f := range cf {
		f.SetPowerClock(clock)
	}
	if _, err := runRepairSteps(cf[0], cf[1], cf[2], cf[3], 1<<30); err != nil {
		t.Fatalf("counting run: %v", err)
	}
	W := clock.Writes()
	if W < 5 {
		t.Fatalf("repair performs only %d writes; sweep would be vacuous", W)
	}

	for k := int64(1); k <= W; k++ {
		k := k
		t.Run(fmt.Sprintf("cut=%d", k), func(t *testing.T) {
			clock := pager.NewPowerClock(k)
			if k%3 == 0 {
				clock.SetTornBytes(int(k*509) % pager.PageSize)
			}
			docsMem, docsJnlMem := cloneMem(t, init[0]), cloneMem(t, init[1])
			forestMem, forestJnlMem := cloneMem(t, init[2]), cloneMem(t, init[3])
			ffD, ffDJ := pager.NewFaultFile(docsMem), pager.NewFaultFile(docsJnlMem)
			ffF, ffFJ := pager.NewFaultFile(forestMem), pager.NewFaultFile(forestJnlMem)
			for _, f := range []*pager.FaultFile{ffD, ffDJ, ffF, ffFJ} {
				f.SetPowerClock(clock)
			}
			if _, err := runRepairSteps(ffD, ffDJ, ffF, ffFJ, 1<<30); err == nil {
				t.Fatal("repair survived a power cut")
			}
			if !clock.DidCut() {
				t.Fatal("repair failed before the cut point")
			}

			// Reboot: journal recovery against the frozen images.
			for _, rec := range []struct {
				main, jnl *pager.MemFile
			}{{docsMem, docsJnlMem}, {forestMem, forestJnlMem}} {
				j, err := pager.NewJournal(rec.jnl)
				if err != nil {
					t.Fatalf("reopen journal: %v", err)
				}
				if _, err := pager.NewJournaledPool(rec.main, j, 8); err != nil {
					t.Fatalf("recovery: %v", err)
				}
			}

			docsImg := captureFile(t, docsMem)
			matched := false
			for _, s := range docsSnaps {
				if imagesEqual(docsImg, s) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("recovered docs.db (%d pages) matches no committed repair state", len(docsImg))
			}
			forestImg := captureFile(t, forestMem)
			matched = false
			for _, s := range forestSnaps {
				if imagesEqual(forestImg, s) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("recovered seq.idx (%d pages) matches no committed repair state", len(forestImg))
			}
		})
	}
}
