package prix

import (
	"bytes"
	"testing"

	"repro/internal/btree"
	"repro/internal/docstore"
	"repro/internal/pager"
	"repro/internal/pager/pagertest"
	"repro/internal/vtrie"
	"repro/internal/xmltree/xmltreetest"
)

// The crash-sweep-over-repair property: a power cut at ANY write point of an
// online record repair (journal writes included) must recover, on reopen, to
// a committed image — the pre-repair state (with its corrupt page) or the
// state after some completed repair step — never a torn in-between.
//
// The harness mirrors internal/pager/crash_test.go: build an index over
// in-memory files, corrupt one record page, learn the repair's per-step
// committed images on a reference run, then let pagertest.Sweep cut the
// repair at every write k (every third cut tearing the final page write),
// reopen the frozen images through journal recovery, and compare
// byte-for-byte.

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
// record page, and returns the three file images (docs, forest, journal) as
// the repair workload's starting state.
func crashIndexImages(t *testing.T) [3][][]byte {
	t.Helper()
	docsMem, forestMem, jnl := pager.NewMemFile(), pager.NewMemFile(), pager.NewMemFile()
	ix, err := openCrashIndex(docsMem, forestMem, jnl, true)
	if err != nil {
		t.Fatal(err)
	}
	b := &Builder{ix: ix, trie: vtrie.NewBuilder()}
	// Five records on the flipped page, so five repair commits: since a store
	// flush writes only the pages it changed, three no longer span the write
	// ordinals this sweep used to cover.
	docs := append(degradedDocs(),
		xmltreetest.MustFromSExpr(3, `(a (b (e)))`),
		xmltreetest.MustFromSExpr(4, `(a (d (c)))`))
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
	if err := pagertest.FlipBit(docsMem, pages[0], (pager.PageHeaderSize+5)*8); err != nil {
		t.Fatal(err)
	}
	return [3][][]byte{captureFile(t, docsMem), captureFile(t, forestMem), captureFile(t, jnl)}
}

// openCrashIndex assembles an Index over explicit files, running the same
// journal-recovery open protocol as prix.Open. fresh selects NewStore (build)
// vs Open (reopen).
func openCrashIndex(docsF, forestF, jnl pager.File, fresh bool) (*Index, error) {
	fbp, dbp, err := journaledPools(jnl, forestF, docsF, 8)
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
func runRepairSteps(docsF, forestF, jnl pager.File, stopAfter int) (int, error) {
	ix, err := openCrashIndex(docsF, forestF, jnl, false)
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
	forestSnaps := [][][]byte{init[1]}
	totalSteps, err := runRepairSteps(cloneMem(t, init[0]), cloneMem(t, init[1]), cloneMem(t, init[2]), 1<<30)
	if err != nil {
		t.Fatalf("reference repair: %v", err)
	}
	if totalSteps < 2 {
		t.Fatalf("repair ran only %d steps; workload too small", totalSteps)
	}
	for j := 1; j <= totalSteps; j++ {
		d, f := cloneMem(t, init[0]), cloneMem(t, init[1])
		if _, err := runRepairSteps(d, f, cloneMem(t, init[2]), j); err != nil {
			t.Fatalf("prefix run %d: %v", j, err)
		}
		docsSnaps = append(docsSnaps, captureFile(t, d))
		forestSnaps = append(forestSnaps, captureFile(t, f))
	}
	if imagesEqual(docsSnaps[0], docsSnaps[totalSteps]) {
		t.Fatal("repair did not change the store file; nothing to crash-sweep")
	}

	var mems [3]*pager.MemFile // docs, forest, journal
	run := func(t *testing.T, k int64, clock *pagertest.PowerClock) error {
		var ff [3]*pagertest.FaultFile
		for i := range mems {
			mems[i] = cloneMem(t, init[i])
			ff[i] = pagertest.NewFaultFile(mems[i])
			ff[i].SetPowerClock(clock)
		}
		_, err := runRepairSteps(ff[0], ff[1], ff[2], 1<<30)
		return err
	}
	pagertest.Sweep(t, 5, pagertest.TearEvery(3, 509), run, func(t *testing.T, k int64) {
		// Reboot: journal recovery against the frozen images.
		if _, err := pager.NewJournal(mems[2], mems[1], mems[0]); err != nil {
			t.Fatalf("recovery: %v", err)
		}
		// One repair step commits both files at once: the two images are
		// the same step's.
		docsImg, forestImg := captureFile(t, mems[0]), captureFile(t, mems[1])
		for j := range docsSnaps {
			if imagesEqual(docsImg, docsSnaps[j]) && imagesEqual(forestImg, forestSnaps[j]) {
				return
			}
		}
		t.Errorf("recovered docs.db (%d pages) and seq.idx (%d pages) match no committed repair state", len(docsImg), len(forestImg))
	})
}
