package scrub

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pager"
	"repro/internal/prix"
	"repro/internal/twig"
	"repro/internal/xmltree"
)

// scrubDocs mirrors the prix degradation suite: `//a/b` matches docs 0 and 1
// but not 2, so a quarantined document visibly shrinks the result set.
func scrubDocs() []*xmltree.Document {
	return []*xmltree.Document{
		xmltree.MustFromSExpr(0, `(a (b (c)))`),
		xmltree.MustFromSExpr(1, `(a (b (c)) (d))`),
		xmltree.MustFromSExpr(2, `(a (d (e)))`),
	}
}

func buildMem(t *testing.T) *prix.Index {
	t.Helper()
	ix, err := prix.Build(scrubDocs(), prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// recordPage returns the first store page holding document records.
func recordPage(t *testing.T, ix *prix.Index) pager.PageID {
	t.Helper()
	f := ix.Store().BufferPool().File()
	for id := uint32(0); id < f.NumPages(); id++ {
		if len(ix.Store().DocsOnPage(pager.PageID(id))) > 0 {
			return pager.PageID(id)
		}
	}
	t.Fatal("no record pages")
	return 0
}

// resetIO drops the buffer pools so reads observe the on-disk (or in-MemFile)
// damage; retried because DropAll briefly fails while frames are pinned.
func resetIO(t *testing.T, ix *prix.Index) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := ix.ResetIOStats(); err == nil {
			return
		} else if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
}

func matchCount(t *testing.T, ix *prix.Index, q string, warm bool) int {
	t.Helper()
	ms, _, err := ix.Match(twig.MustParse(q), prix.MatchOptions{WarmCache: warm})
	if err != nil {
		t.Fatal(err)
	}
	return len(ms)
}

func TestScrubCleanPass(t *testing.T) {
	ix := buildMem(t)
	sc := New(ix, Config{Throttle: -1})
	rep, err := sc.RunPass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("clean index not clean: %+v", rep)
	}
	if rep.PagesScanned == 0 || rep.DocsScanned != ix.NumDocs() {
		t.Fatalf("scanned %d pages, %d docs (want >0, %d)", rep.PagesScanned, rep.DocsScanned, ix.NumDocs())
	}
	if len(rep.Findings) != 0 || len(rep.Repairs) != 0 || rep.ForestRebuilt {
		t.Fatalf("clean pass reported work: %+v", rep)
	}
	st := sc.Stats()
	if st.Passes != 1 || st.Findings != 0 || int(st.DocsScanned) != ix.NumDocs() {
		t.Fatalf("stats: %+v", st)
	}
	if lr := sc.LastReport(); lr == nil || lr.Pass != rep.Pass {
		t.Fatalf("LastReport = %+v, want pass %d", lr, rep.Pass)
	}
}

func TestScrubStopWithoutStart(t *testing.T) {
	sc := New(buildMem(t), Config{})
	done := make(chan struct{})
	go func() { sc.Stop(); sc.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop without Start hung")
	}
}

func TestScrubDetectsAndRepairsRecordDamage(t *testing.T) {
	ix := buildMem(t)
	page := recordPage(t, ix)
	if err := pager.FlipBit(ix.Store().BufferPool().File(), page, (pager.PageHeaderSize+9)*8+1); err != nil {
		t.Fatal(err)
	}
	resetIO(t, ix)

	// Detection pass (no repair): the damage is found and quarantined, and
	// queries degrade instead of failing.
	sc := New(ix, Config{Throttle: -1})
	rep, err := sc.RunPass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean {
		t.Fatal("pass over damaged index reported clean")
	}
	foundPage := false
	for _, f := range rep.Findings {
		if f.Kind == "page" && f.File == "docs.db" && f.Page == int64(page) {
			foundPage = true
		}
	}
	if !foundPage {
		t.Fatalf("no docs.db page finding for page %d: %+v", page, rep.Findings)
	}
	if len(rep.Quarantined) == 0 {
		t.Fatal("damaged documents not quarantined")
	}
	if n := matchCount(t, ix, `//a/b`, false); n > 2 {
		t.Fatalf("degraded query returned %d matches, want <= 2", n)
	}

	// Repair pass: records rewritten from the Prüfer sidecar, index clean,
	// full results restored.
	rep2, err := sc.RepairNow(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean {
		t.Fatalf("repair pass not clean: %+v", rep2)
	}
	rewritten := false
	for _, r := range rep2.Repairs {
		if r.Action == "record-rewritten" && r.Err == "" {
			rewritten = true
		}
	}
	if !rewritten {
		t.Fatalf("no successful record rewrite in %+v", rep2.Repairs)
	}
	if got := ix.Quarantined(); len(got) != 0 {
		t.Fatalf("still quarantined after repair: %v", got)
	}
	if n := matchCount(t, ix, `//a/b`, false); n != 2 {
		t.Fatalf("post-repair query = %d matches, want 2", n)
	}
	if st := sc.Stats(); st.RepairsDone == 0 {
		t.Fatalf("stats show no repairs: %+v", st)
	}
}

func TestScrubAutoRepairForestDamage(t *testing.T) {
	ix := buildMem(t)
	f := ix.Forest().BufferPool().File()
	if err := pager.FlipBit(f, pager.PageID(f.NumPages()-1), (pager.PageHeaderSize+3)*8); err != nil {
		t.Fatal(err)
	}
	resetIO(t, ix)

	sc := New(ix, Config{Throttle: -1, AutoRepair: true})
	rep, err := sc.RunPass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ForestRebuilt {
		t.Fatalf("forest damage did not trigger a rebuild: %+v", rep)
	}
	if !rep.Clean {
		t.Fatalf("auto-repair pass not clean: %+v", rep)
	}
	if n := matchCount(t, ix, `//a/b`, false); n != 2 {
		t.Fatalf("post-rebuild query = %d matches, want 2", n)
	}
}

// TestScrubConcurrentStress runs the scrubber's background loop against live
// queries and live inserts on a DynamicIndex, under -race. Nothing is
// corrupted; the point is that continuous scrubbing is invisible to the
// workload.
func TestScrubConcurrentStress(t *testing.T) {
	di, err := prix.NewDynamicIndex(scrubDocs(), prix.Options{}, prix.DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()

	sc := New(di.Index(), Config{
		Interval:   time.Millisecond,
		Throttle:   -1,
		AutoRepair: true,
	})
	sc.Start()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var queryErr, insertErr atomic.Value
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := twig.MustParse(`//a/b`)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := di.Match(q, prix.MatchOptions{WarmCache: true}); err != nil {
					queryErr.Store(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			doc := xmltree.MustFromSExpr(100+i, `(a (b (c)) (d))`)
			if err := di.Insert(doc); err != nil {
				insertErr.Store(err)
				return
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	sc.Stop()
	if err := queryErr.Load(); err != nil {
		t.Fatalf("query failed during scrub stress: %v", err)
	}
	if err := insertErr.Load(); err != nil {
		t.Fatalf("insert failed during scrub stress: %v", err)
	}
	rep, err := sc.RunPass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("index not clean after stress: %+v", rep)
	}
}

// TestScrubBackgroundHealingE2E is the acceptance demo: a bit flip lands on a
// record page of an on-disk index; the background scrub loop detects it,
// quarantines, and repairs it online from the Prüfer redundancy — while
// queries keep running, none of them failing.
func TestScrubBackgroundHealingE2E(t *testing.T) {
	dir := t.TempDir()
	bix, err := prix.Build(scrubDocs(), prix.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	page := recordPage(t, bix)
	if err := bix.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one bit in the record page, on disk, past the page header.
	path := filepath.Join(dir, "docs.db")
	fh, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pager.PageSize)
	off := int64(page) * pager.PageSize
	if _, err := fh.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	buf[pager.PageHeaderSize+13] ^= 0x10
	if _, err := fh.WriteAt(buf, off); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}

	ix, err := prix.Open(dir, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	sc := New(ix, Config{Interval: 2 * time.Millisecond, Throttle: -1, AutoRepair: true})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var queryErr atomic.Value
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := twig.MustParse(`//a/b`)
			for {
				select {
				case <-stop:
					return
				default:
				}
				ms, _, err := ix.Match(q, prix.MatchOptions{WarmCache: true})
				if err != nil {
					queryErr.Store(err)
					return
				}
				if len(ms) > 2 {
					queryErr.Store(fmt.Errorf("query returned %d matches, want <= 2", len(ms)))
					return
				}
			}
		}()
	}
	sc.Start()

	deadline := time.Now().Add(15 * time.Second)
	for {
		if rep := sc.LastReport(); rep != nil && rep.Clean {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrub loop never reached a clean pass; last report %+v", sc.LastReport())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	sc.Stop()

	if err := queryErr.Load(); err != nil {
		t.Fatalf("a query failed while the index self-healed: %v", err)
	}
	if st := sc.Stats(); st.RepairsDone == 0 && st.PagesRepaired == 0 {
		t.Fatalf("index became clean without any recorded repair: %+v", st)
	}
	if n := matchCount(t, ix, `//a/b`, false); n != 2 {
		t.Fatalf("post-heal query = %d matches, want 2", n)
	}
	for id := 0; id < ix.NumDocs(); id++ {
		if err := ix.VerifyDoc(uint32(id)); err != nil {
			t.Fatalf("doc %d still damaged: %v", id, err)
		}
	}
}
