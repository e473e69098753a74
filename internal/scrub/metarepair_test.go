package scrub

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/docstore"
	"repro/internal/pager"
	"repro/internal/prix"
)

// metaImage is what an opened store decodes from its meta chains.
type metaImage struct {
	names    []string
	recs     []*docstore.Record
	maxGap   any
	layout   int64
	sections []docstore.SectionInfo
}

func decodedMeta(t *testing.T, ix *prix.Index) metaImage {
	t.Helper()
	st := ix.Store()
	img := metaImage{names: st.Dict().Names(), maxGap: st.Catalog("maxgap"), sections: st.MetaSections()}
	img.layout, _ = st.Stat("layout")
	for id := 0; id < ix.NumDocs(); id++ {
		rec, err := st.Get(uint32(id))
		if err != nil {
			t.Fatalf("document %d: %v", id, err)
		}
		img.recs = append(img.recs, rec)
	}
	return img
}

// corruptMetaHeads flips bit bit of the payload of the head page of every
// meta chain of an opened index's docs.db, none of which Open kept as a
// frame, and returns the pages.
func corruptMetaHeads(t *testing.T, ix *prix.Index, bit int) []pager.PageID {
	t.Helper()
	bp := ix.Store().BufferPool()
	var heads []pager.PageID
	for _, sec := range ix.Store().MetaSections() {
		if bp.Contains(sec.Head) {
			t.Fatalf("meta %s head page %d is resident: Open kept its frame", sec.Name, sec.Head)
		}
		if err := pager.FlipBit(bp.File(), sec.Head, pager.PageHeaderSize*8+bit); err != nil {
			t.Fatal(err)
		}
		heads = append(heads, sec.Head)
	}
	return heads
}

func verifyStoreFile(t *testing.T, ix *prix.Index, when string) {
	t.Helper()
	f := ix.Store().BufferPool().File()
	buf := make([]byte, pager.PageSize)
	for id := uint32(0); id < f.NumPages(); id++ {
		if err := f.ReadPage(pager.PageID(id), buf); err != nil {
			t.Fatal(err)
		}
		if err := pager.VerifyPage(pager.PageID(id), buf); err != nil {
			t.Errorf("%s: %v", when, err)
		}
	}
}

// TestRepairMetaWithoutFrames: Open decodes the dictionary, shapes, directory
// and catalog chains without keeping their pages, so a meta page corrupted
// under an open index has no cached frame to be re-sealed from. The store
// sweep re-encodes each from the decoded copy — directly, and again inside
// the scrubber's repair pass, with the header page — and the file then
// verifies clean and reopens to the same names, records and catalogs.
func TestRepairMetaWithoutFrames(t *testing.T) {
	dir := t.TempDir()
	built, err := prix.Build(datagen.DBLP(1, 1).Docs[:300], prix.Options{Dir: dir, Extended: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := prix.Open(dir, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := decodedMeta(t, ix)
	if len(want.names) == 0 || want.maxGap == nil || want.layout == 0 {
		t.Fatalf("the index holds no meta to compare: %d names, catalog %v, layout %d", len(want.names), want.maxGap, want.layout)
	}

	heads := corruptMetaHeads(t, ix, 40*8+3)
	n, err := ix.SweepStorePages()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(heads) {
		t.Errorf("SweepStorePages repaired %d pages, want the %d meta heads", n, len(heads))
	}
	verifyStoreFile(t, ix, "after the sweep")

	// Corrupt the heads again for the scrubber's repair pass, and the header
	// page too, once the pool has dropped the frame Open kept of it: the
	// header is rewritten from the meta state.
	ix.Store().BufferPool().DropClean()
	corruptMetaHeads(t, ix, 100*8+5)
	if err := pager.FlipBit(ix.Store().BufferPool().File(), 0, pager.PageHeaderSize*8+20); err != nil {
		t.Fatal(err)
	}
	rep, err := New(ix, Config{Throttle: -1}).RepairNow(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || rep.PagesRepaired < len(heads)+1 || rep.ForestRebuilt {
		t.Errorf("repair pass: clean %v, %d pages repaired, forest rebuilt %v; findings %v",
			rep.Clean, rep.PagesRepaired, rep.ForestRebuilt, rep.Findings)
	}
	verifyStoreFile(t, ix, "after the repair pass")
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := prix.Open(dir, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := decodedMeta(t, re)
	if !reflect.DeepEqual(got.names, want.names) {
		t.Error("the reopened dictionary differs")
	}
	if !reflect.DeepEqual(got.recs, want.recs) {
		t.Error("the reopened directory yields other records")
	}
	if !reflect.DeepEqual(got.maxGap, want.maxGap) || got.layout != want.layout {
		t.Error("the reopened catalogs differ")
	}
	if !reflect.DeepEqual(got.sections, want.sections) {
		t.Errorf("meta sections %+v, before the damage %+v", got.sections, want.sections)
	}
}
