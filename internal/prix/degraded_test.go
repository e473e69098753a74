package prix

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pager"
	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

func degradedDocs() []*xmltree.Document {
	return []*xmltree.Document{
		xmltreetest.MustFromSExpr(0, `(a (b (c)))`),
		xmltreetest.MustFromSExpr(1, `(a (b (c)) (d))`),
		xmltreetest.MustFromSExpr(2, `(a (d (e)))`),
	}
}

// flipByteInPage flips one payload bit of page id of an on-disk page file.
func flipByteInPage(t *testing.T, path string, page int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off := int64(page)*pager.PageSize + pager.PageHeaderSize + 37
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x04
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestBitFlipQuarantinesDocument is the end-to-end graceful-degradation
// property: flip one bit in each docstore page of a built on-disk index in
// turn, reopen, and query. Every outcome must be either a full answer, a
// degraded answer (corrupt document quarantined, healthy ones served), or a
// typed corruption error at open — never a panic and never a silently wrong
// full answer.
func TestBitFlipQuarantinesDocument(t *testing.T) {
	build := func(dir string) int {
		ix, err := Build(degradedDocs(), Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ms, _, err := ix.Match(twig.MustParse(`//a/b`), MatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		return len(ms)
	}
	probe := t.TempDir()
	fullCount := build(probe)
	if fullCount != 2 {
		t.Fatalf("baseline count = %d, want 2", fullCount)
	}
	fi, err := os.Stat(filepath.Join(probe, "docs.db"))
	if err != nil {
		t.Fatal(err)
	}
	numPages := int(fi.Size() / pager.PageSize)
	if numPages < 2 {
		t.Fatalf("docs.db has only %d pages", numPages)
	}

	sawDegraded := false
	for page := 0; page < numPages; page++ {
		dir := t.TempDir()
		build(dir)
		flipByteInPage(t, filepath.Join(dir, "docs.db"), page)

		ix, err := Open(dir, Options{})
		if err != nil {
			// The flipped page held catalog/dictionary state Open needs:
			// acceptable, but it must be the typed corruption error.
			if !errors.Is(err, pager.ErrCorrupt) {
				t.Errorf("page %d: Open failed untyped: %v", page, err)
			}
			continue
		}
		ms, stats, err := ix.Match(twig.MustParse(`//a/b`), MatchOptions{})
		if err != nil {
			t.Errorf("page %d: query error: %v", page, err)
			ix.Close()
			continue
		}
		if stats.Degraded {
			sawDegraded = true
			q := ix.Quarantined()
			if len(q) == 0 {
				t.Errorf("page %d: degraded but nothing quarantined", page)
			}
			// Healthy documents are still served: the full answer minus
			// the quarantined documents' contributions.
			quarantined := map[uint32]bool{}
			for _, d := range q {
				quarantined[d] = true
			}
			for _, m := range ms {
				if quarantined[m.DocID] {
					t.Errorf("page %d: match from quarantined doc %d", page, m.DocID)
				}
			}
			if len(ms) >= fullCount {
				t.Errorf("page %d: degraded answer not smaller: %d matches", page, len(ms))
			}
		} else if len(ms) != fullCount {
			t.Errorf("page %d: silent wrong answer: %d matches, want %d", page, len(ms), fullCount)
		}
		ix.Close()
	}
	if !sawDegraded {
		t.Error("no page flip produced a degraded (quarantined) query: detection path untested")
	}
}

// Once a document is quarantined, repeated queries skip it without touching
// the corrupt page again, and Verify reports it.
func TestQuarantineSticksAcrossQueries(t *testing.T) {
	ix, err := Build(degradedDocs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Store().Quarantine(1)
	for i := 0; i < 2; i++ {
		ms, stats, err := ix.Match(twig.MustParse(`//a/b`), MatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Degraded {
			t.Fatal("query over quarantined doc not marked degraded")
		}
		for _, m := range ms {
			if m.DocID == 1 {
				t.Error("match from quarantined doc")
			}
		}
		if len(ms) != 1 {
			t.Errorf("matches = %d, want 1 (doc 0 only)", len(ms))
		}
	}
	if q := ix.Quarantined(); len(q) != 1 || q[0] != 1 {
		t.Errorf("Quarantined() = %v", q)
	}
}
