package compact

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/docstore"
	"repro/internal/pager"
	"repro/internal/prix"
	"repro/internal/scrub"
	"repro/internal/xmltree/xmltreetest"
)

// TestRootCompactLive is the zero-downtime contract under -race: queries
// and inserts run concurrently with a full online compaction, no query
// ever errors or degrades, and when the dust settles the Root answers
// byte-identically to an uncompacted twin fed the same documents.
func TestRootCompactLive(t *testing.T) {
	dir := t.TempDir()
	docs := corpus(160)
	pre := docs[:100]
	post := docs[100:]
	buildDynamicDir(t, dir, pre)

	root, err := OpenRoot(dir, prix.Options{BufferPoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	// The twin grows by plain Insert only — never compacted — and is the
	// semantic oracle for the final comparison.
	twin, err := prix.NewDynamicIndex(pre[:8], prix.Options{BufferPoolPages: 256}, prix.DynamicOptions{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	for _, doc := range pre[8:] {
		if err := twin.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}

	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		queries atomic.Int64
	)
	// Queriers hammer the Root across the swap. Answers may grow as the
	// inserter lands documents, but must never error or degrade.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for !stop.Load() {
				qs := testQueries[(int(queries.Add(1)))%len(testQueries)]
				sig := querySig(t, root, qs) // querySig fails the test on error/degraded
				_ = sig
			}
		}(g)
	}
	// The inserter feeds both the Root and the twin, slowly enough that
	// inserts straddle the drain, catch-up and swap windows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, doc := range post {
			if err := root.Insert(doc); err != nil {
				t.Errorf("insert during compaction: %v", err)
				return
			}
			if err := twin.Insert(doc); err != nil {
				t.Errorf("twin insert: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	rep, err := root.Compact(context.Background(), CompactOptions{
		MemBudget: 32 << 10,
		Throttle:  200 * time.Microsecond,
	})
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 1 || root.Epoch() != 1 {
		t.Fatalf("epoch after swap: report %d, root %d, want 1", rep.Epoch, root.Epoch())
	}
	if rep.Pause <= 0 || rep.Pause > 5*time.Second {
		t.Fatalf("implausible pause window: %v", rep.Pause)
	}
	if queries.Load() == 0 {
		t.Fatal("no queries ran during the compaction")
	}

	// Drain the inserter's tail, then compare the Root against the twin.
	for root.NumDocs() != twin.NumDocs() {
		time.Sleep(time.Millisecond)
	}
	if root.NumDocs() != len(docs) {
		t.Fatalf("root has %d docs, want %d", root.NumDocs(), len(docs))
	}
	for _, qs := range testQueries {
		if got, want := querySig(t, root, qs), querySig(t, twin.Index(), qs); got != want {
			t.Fatalf("%s: compacted root answers differently from uncompacted twin", qs)
		}
	}
	// The old plain layout is gone; the epoch is the only index on disk.
	if _, err := os.Stat(filepath.Join(dir, prix.ForestFileName)); !os.IsNotExist(err) {
		t.Fatal("plain page files survived the online conversion")
	}
	// Inserts after the swap land in the new epoch.
	if err := root.Insert(xmltreetest.MustFromSExpr(0, `(post (swap))`)); err != nil {
		t.Fatalf("insert after swap: %v", err)
	}
	if got := querySig(t, root, `//post/swap`); got == "" {
		t.Fatal("post-swap insert not queryable")
	}
}

// TestRootCompactCancelAborts: a cancelled compaction returns *Aborted,
// leaves the old layout serving untouched, and a later attempt completes
// from scratch.
func TestRootCompactCancelAborts(t *testing.T) {
	dir := t.TempDir()
	docs := corpus(200) // enough documents that the pacer observes ctx
	buildDynamicDir(t, dir, docs)
	root, err := OpenRoot(dir, prix.Options{BufferPoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	want := map[string]string{}
	for _, qs := range testQueries {
		want[qs] = querySig(t, root, qs)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = root.Compact(ctx, CompactOptions{MemBudget: 32 << 10})
	var ab *Aborted
	if !errors.As(err, &ab) {
		t.Fatalf("cancelled compaction: err = %v, want *Aborted", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Aborted does not unwrap to the cause: %v", err)
	}
	if root.Epoch() != 0 || root.Compacting() {
		t.Fatalf("aborted compaction moved the root: epoch %d compacting %v", root.Epoch(), root.Compacting())
	}
	// Old layout still serving, byte-for-byte the same answers.
	for _, qs := range testQueries {
		if got := querySig(t, root, qs); got != want[qs] {
			t.Fatalf("%s answers differently after an aborted compaction", qs)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, CurrentFile)); !os.IsNotExist(err) {
		t.Fatal("aborted compaction committed a CURRENT pointer")
	}

	// Second attempt with a live context completes and swaps.
	rep, err := root.Compact(context.Background(), CompactOptions{MemBudget: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 1 || root.Epoch() != 1 {
		t.Fatalf("retry after abort: report epoch %d, root epoch %d", rep.Epoch, root.Epoch())
	}
	for _, qs := range testQueries {
		if got := querySig(t, root, qs); got != want[qs] {
			t.Fatalf("%s answers differently after the retried compaction", qs)
		}
	}
}

// TestRootCompactGuard: only one compaction can run at a time.
func TestRootCompactGuard(t *testing.T) {
	dir := t.TempDir()
	buildDynamicDir(t, dir, corpus(140))
	root, err := OpenRoot(dir, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	release := make(chan struct{})
	busy := func() bool {
		select {
		case <-release:
			return false
		default:
			return true
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := root.Compact(context.Background(), CompactOptions{
			MemBudget: 32 << 10, Busy: busy, BusyBackoff: time.Millisecond,
		})
		done <- err
	}()
	// Wait until the first compaction is parked on the busy hook.
	for !root.Compacting() {
		time.Sleep(time.Millisecond)
	}
	if _, err := root.Compact(context.Background(), CompactOptions{}); !errors.Is(err, ErrCompacting) {
		t.Fatalf("concurrent compaction: err = %v, want ErrCompacting", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if root.Epoch() != 1 {
		t.Fatalf("epoch = %d after the released compaction", root.Epoch())
	}
}

// TestScrubGateDuringCompaction is the scrub-vs-swap regression test: a
// scrubber wired through the Root's gate and source hook never inspects a
// mid-swap epoch — its passes either complete cleanly or are skipped and
// counted — while a full online compaction runs underneath.
func TestScrubGateDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	buildDynamicDir(t, dir, corpus(200))
	root, err := OpenRoot(dir, prix.Options{BufferPoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	sc := scrub.New(root.Index().Index(), scrub.Config{
		Throttle: -1,
		Source:   func() *prix.Index { return root.Index().Index() },
		Gate:     root.Gate(),
	})

	// Healthy pass before anything happens.
	rep, err := sc.RunPass(context.Background())
	if err != nil || rep.Skipped || !rep.Clean {
		t.Fatalf("baseline scrub pass: %+v err %v", rep, err)
	}

	// A pending swap makes passes skip instead of block or misfire.
	root.swapPending.Store(true)
	rep, err = sc.RunPass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Skipped {
		t.Fatal("scrub pass ran through a pending swap")
	}
	if got := sc.Stats().PassesSkipped; got != 1 {
		t.Fatalf("PassesSkipped = %d, want 1", got)
	}
	root.swapPending.Store(false)

	// Scrub continuously while a real compaction runs: every pass is
	// either clean (pre/post swap, gate free) or skipped (swap window).
	done := make(chan error, 1)
	go func() {
		_, err := root.Compact(context.Background(), CompactOptions{
			MemBudget: 32 << 10, Throttle: 100 * time.Microsecond,
		})
		done <- err
	}()
	var passes, skipped int
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			// One more pass against the committed epoch: the Source hook
			// must hand the scrubber the new index, not the closed old one.
			rep, err := sc.RunPass(context.Background())
			if err != nil || rep.Skipped || !rep.Clean {
				t.Fatalf("post-swap scrub pass: %+v err %v", rep, err)
			}
			if passes == 0 {
				t.Fatal("no scrub passes ran during the compaction")
			}
			t.Logf("scrub during compaction: %d passes, %d skipped", passes, skipped)
			return
		default:
			rep, err := sc.RunPass(context.Background())
			if err != nil {
				t.Fatalf("scrub during compaction: %v", err)
			}
			passes++
			if rep.Skipped {
				skipped++
			} else if !rep.Clean {
				t.Fatalf("scrub pass found damage mid-compaction: %+v", rep)
			}
		}
	}
}

// A directory written before the single postings tree carries no layout
// stamp, and one written before packed-only postings and Docid trees stamp
// 3; OpenRoot must refuse either with prix.ErrOldLayout instead of serving
// an index whose every query matches nothing, or whose leaves this build
// cannot read. The stamp is set here through the store's own API, on the
// files a fresh build left.
func TestOpenRootRefusesOldLayout(t *testing.T) {
	for _, stamp := range []int64{0, 3} {
		dir := t.TempDir()
		buildDynamicDir(t, dir, corpus(12))
		f, err := pager.OpenOSFile(filepath.Join(dir, prix.DocsFileName))
		if err != nil {
			t.Fatal(err)
		}
		bp := pager.NewBufferPool(f, 64)
		store, err := docstore.Open(bp)
		if err != nil {
			t.Fatal(err)
		}
		store.SetStat("layout", stamp)
		if err := store.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := bp.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenRoot(dir, prix.Options{}); !errors.Is(err, prix.ErrOldLayout) {
			t.Fatalf("stamp %d: OpenRoot = %v, want prix.ErrOldLayout", stamp, err)
		}
	}
}
