package shard

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pager"
	"repro/internal/prix"
	"repro/internal/twig"
	"repro/internal/xmltree"
)

// corpus is a mixed document set: the paper's running example, hand-written
// shapes with values, and random trees over a small alphabet so every query
// class has candidates spread across many documents (and therefore across
// shards at every shard count).
func corpus() []*xmltree.Document {
	docs := []*xmltree.Document{
		xmltree.PaperTree(0),
		xmltree.MustFromSExpr(1, `(a (b (c)) (d (e)))`),
		xmltree.MustFromSExpr(2, `(a (b (c "x")) (d))`),
		xmltree.MustFromSExpr(3, `(a (d (e)) (b (c)))`),
		xmltree.MustFromSExpr(4, `(a (a (b (c)) (d (e))))`),
		xmltree.MustFromSExpr(5, `(r)`),
	}
	rng := rand.New(rand.NewSource(7))
	for i := 6; i < 40; i++ {
		docs = append(docs, xmltree.RandomDocument(rng, i, xmltree.RandomConfig{
			Nodes:     30,
			Alphabet:  []string{"a", "b", "c", "d", "e"},
			MaxFanout: 4,
			ValueProb: 0.3,
			Values:    []string{"x", "y"},
		}))
	}
	return docs
}

var queries = []struct {
	src       string
	unordered bool
}{
	{`//A[./B/C]/D/E/F`, false},
	{`//a[./b/c]/d`, false},
	{`//a[./b/c]/d`, true},
	{`//a//d/e`, false},
	{`//a[./b][./d]//e`, true},
	{`//a[./b/c="x"]/d`, false},
	{`//a`, false},
	{`//b[./c]`, true},
	{`/a/b/c`, false},
}

func TestTopologyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	topo := &Topology{Version: 1, Shards: 4, Replicas: 2, Extended: true, Docs: 123, Epoch: 99}
	if err := topo.Save(pager.OSFS{}, dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTopology(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, topo) {
		t.Fatalf("round trip: got %+v want %+v", got, topo)
	}
	if _, err := LoadTopology(t.TempDir()); !errors.Is(err, ErrNoTopology) {
		t.Fatalf("empty dir: err = %v, want ErrNoTopology", err)
	}
	for _, bad := range []Topology{
		{Version: 2, Shards: 1, Replicas: 1},
		{Version: 1, Shards: 0, Replicas: 1},
		{Version: 1, Shards: 1, Replicas: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", bad)
		}
	}
}

// TestOwnerPlacement: ownership is pure, total, and spreads sequential
// docids reasonably evenly (hashing, not range partitioning).
func TestOwnerPlacement(t *testing.T) {
	const n, shards = 10000, 7
	counts := make([]int, shards)
	for g := uint32(0); g < n; g++ {
		s := Owner(g, shards)
		if s < 0 || s >= shards {
			t.Fatalf("Owner(%d, %d) = %d out of range", g, shards, s)
		}
		if s != Owner(g, shards) {
			t.Fatalf("Owner not deterministic at %d", g)
		}
		counts[s]++
	}
	want := n / shards
	for s, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("shard %d owns %d of %d docs (expected near %d): placement badly skewed", s, c, n, want)
		}
	}
}

// TestDocMapsPartition: the derived local→global maps are a partition of
// the docid space, each strictly ascending, and each owner agrees with them.
func TestDocMapsPartition(t *testing.T) {
	topo := &Topology{Version: 1, Shards: 5, Replicas: 1, Docs: 997}
	maps := topo.DocMaps()
	seen := map[uint32]bool{}
	for s, m := range maps {
		for local, g := range m {
			if local > 0 && m[local-1] >= g {
				t.Fatalf("shard %d docmap not ascending at %d", s, local)
			}
			if seen[g] {
				t.Fatalf("docid %d owned twice", g)
			}
			seen[g] = true
			if o := Owner(g, topo.Shards); o != s {
				t.Fatalf("Owner(%d) = %d, docmap says %d", g, o, s)
			}
		}
	}
	if len(seen) != int(topo.Docs) {
		t.Fatalf("maps cover %d of %d docs", len(seen), topo.Docs)
	}
}

// TestShardedMatchesSingleIndexDifferential is the tentpole contract: at
// every shard count the scatter-gather answer is byte-identical to one
// index over the same documents — matches, order, and the Degraded flag —
// on both index kinds and across every query class.
func TestShardedMatchesSingleIndexDifferential(t *testing.T) {
	docs := corpus()
	for _, extended := range []bool{false, true} {
		single, err := prix.Build(docs, prix.Options{Extended: extended})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 4, 7} {
			co, err := BuildMemory(docs, BuildConfig{Shards: shards, Extended: extended, Epoch: 1}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if n := co.Stats().Docs; n != single.NumDocs() {
				t.Fatalf("ext=%v n=%d: NumDocs = %d, single %d", extended, shards, n, single.NumDocs())
			}
			for _, qc := range queries {
				q := twig.MustParse(qc.src)
				opts := prix.MatchOptions{WarmCache: true, Unordered: qc.unordered}
				wantMS, wantStats, wantErr := single.Match(q, opts)
				gotMS, gotStats, gotErr := co.Match(q, opts)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("ext=%v n=%d %s: err = %v, single err = %v", extended, shards, qc.src, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if !reflect.DeepEqual(gotMS, wantMS) {
					t.Errorf("ext=%v n=%d %s: matches diverge from single index\n got %v\nwant %v",
						extended, shards, qc.src, gotMS, wantMS)
				}
				if gotStats.Matches != wantStats.Matches || gotStats.Degraded != wantStats.Degraded {
					t.Errorf("ext=%v n=%d %s: stats (matches=%d degraded=%v), single (matches=%d degraded=%v)",
						extended, shards, qc.src, gotStats.Matches, gotStats.Degraded,
						wantStats.Matches, wantStats.Degraded)
				}
				if len(gotStats.DegradedShards) != 0 {
					t.Errorf("ext=%v n=%d %s: healthy run reports DegradedShards %v",
						extended, shards, qc.src, gotStats.DegradedShards)
				}
			}
		}
	}
}

// corruptOneRecordPage flips a bit in the first record page of the index
// files in dir, returning the page corrupted. The caller reopens or resets
// pools so reads observe the damage.
func corruptOneRecordPage(t *testing.T, ix *prix.Index) {
	t.Helper()
	f := ix.Store().BufferPool().File()
	for id := uint32(0); id < f.NumPages(); id++ {
		if len(ix.Store().DocsOnPage(pager.PageID(id))) > 0 {
			if err := pager.FlipBit(f, pager.PageID(id), (pager.PageHeaderSize+7)*8); err != nil {
				t.Fatal(err)
			}
			if err := ix.ResetIOStats(); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("no record pages to corrupt")
}

// TestShardedDegradedCorruptPage is the fault-injected half of the
// differential: with one shard's only replica carrying a corrupt record
// page, the coordinator still answers — the result is exactly the single
// index's matches minus the quarantined documents', Degraded is set, and
// DegradedShards names the damaged shard alone.
func TestShardedDegradedCorruptPage(t *testing.T) {
	docs := corpus()
	single, err := prix.Build(docs, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if _, err := Build(root, docs, BuildConfig{Shards: 4, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	co, err := Open(root, prix.Options{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	const victim = 2
	corruptOneRecordPage(t, co.Indexes()[victim])

	for _, qc := range queries {
		q := twig.MustParse(qc.src)
		opts := prix.MatchOptions{WarmCache: true, Unordered: qc.unordered}
		wantMS, _, wantErr := single.Match(q, opts)
		gotMS, gotStats, gotErr := co.Match(q, opts)
		if wantErr != nil {
			if gotErr == nil {
				t.Fatalf("%s: sharded succeeded where single index errors (%v)", qc.src, wantErr)
			}
			continue
		}
		if gotErr != nil {
			t.Fatalf("%s: %v", qc.src, gotErr)
		}
		quarantined := map[uint32]bool{}
		for _, d := range co.Stats().Quarantined {
			quarantined[d] = true
		}
		var pruned []prix.Match
		for _, m := range wantMS {
			if !quarantined[m.DocID] {
				pruned = append(pruned, m)
			}
		}
		if !reflect.DeepEqual(gotMS, pruned) {
			t.Errorf("%s: degraded matches != single-index matches minus quarantined docs\n got %v\nwant %v",
				qc.src, gotMS, pruned)
		}
		if len(pruned) != len(wantMS) {
			// This query actually lost matches to the quarantine, so the
			// degradation must be visible and attributed.
			if !gotStats.Degraded {
				t.Errorf("%s: lost matches but Degraded not set", qc.src)
			}
			if !reflect.DeepEqual(gotStats.DegradedShards, []int{victim}) {
				t.Errorf("%s: DegradedShards = %v, want [%d]", qc.src, gotStats.DegradedShards, victim)
			}
		}
	}
	if st := co.Stats(); !reflect.DeepEqual(st.DegradedShards(), []int{victim}) {
		t.Fatalf("coordinator DegradedShards = %v, want [%d]", st.DegradedShards(), victim)
	}
}

// TestReplicaFailoverMasksCorruption: with two replicas per shard, damage
// to one replica's pages never degrades the shard — the failover retries
// the read on the healthy copy and the answer stays clean and complete.
func TestReplicaFailoverMasksCorruption(t *testing.T) {
	docs := corpus()
	single, err := prix.Build(docs, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if _, err := Build(root, docs, BuildConfig{Shards: 3, Replicas: 2, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	co, err := Open(root, prix.Options{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	// Indexes() is replica-major within shard order: corrupt shard 1's
	// replica 0 only.
	corruptOneRecordPage(t, co.Indexes()[2])

	q := twig.MustParse(`//a`)
	want, _, err := single.Match(q, prix.MatchOptions{WarmCache: true})
	if err != nil {
		t.Fatal(err)
	}
	// Several passes so round-robin rotation starts on the damaged replica
	// at least once.
	for i := 0; i < 4; i++ {
		got, stats, err := co.Match(q, prix.MatchOptions{WarmCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Degraded {
			t.Fatalf("pass %d: degraded despite a healthy replica", i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: matches diverge from single index", i)
		}
	}
	if st := co.Shard(1).Stats(); st.Failovers == 0 && st.Degraded == 0 {
		// The damaged replica must have been tried and routed around at
		// least once across the rotating passes.
		t.Fatalf("shard 1 never failed over: stats %+v", st)
	}
}

// stubBackend scripts one replica's behavior for failover/hedging tests.
type stubBackend struct {
	docs        int
	quarantined []uint32
	delay       time.Duration
	err         error
	degraded    bool
	calls       int
}

func (s *stubBackend) Match(q *twig.Query, opts prix.MatchOptions) ([]prix.Match, *prix.QueryStats, error) {
	s.calls++
	if s.delay > 0 {
		ctx := opts.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	if s.err != nil {
		return nil, nil, s.err
	}
	return []prix.Match{{DocID: 0, Positions: []int32{1}, Images: []int32{1}, Root: 1}},
		&prix.QueryStats{Matches: 1, Degraded: s.degraded}, nil
}
func (s *stubBackend) PagesRead() uint64  { return 0 }
func (s *stubBackend) Generation() uint64 { return 0 }
func (s *stubBackend) Stats() prix.SourceStats {
	return prix.SourceStats{Docs: s.docs, Quarantined: s.quarantined}
}

func stubShard(t *testing.T, hedge time.Duration, backends ...*stubBackend) *Shard {
	t.Helper()
	bs := make([]prix.Source, len(backends))
	for i, b := range backends {
		b.docs = 1
		bs[i] = b
	}
	sh, err := NewShard(0, []uint32{42}, bs, 0, hedge)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

func TestShardFailoverPrefersClean(t *testing.T) {
	q := twig.MustParse(`//a`)
	// First replica errors, second is degraded, third is clean: the clean
	// one must win, with two failovers recorded.
	bad := &stubBackend{err: errors.New("boom")}
	deg := &stubBackend{degraded: true}
	ok := &stubBackend{}
	sh := stubShard(t, 0, bad, deg, ok)
	ms, stats, err := sh.Match(context.Background(), q, prix.MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Degraded {
		t.Fatal("clean replica available but result degraded")
	}
	if len(ms) != 1 || ms[0].DocID != 42 {
		t.Fatalf("remap: got %v, want docid 42", ms)
	}
	if got := sh.Stats().Failovers; got != 2 {
		t.Fatalf("failovers = %d, want 2", got)
	}

	// Only damaged replicas: the degraded answer beats the error.
	sh = stubShard(t, 0, &stubBackend{err: errors.New("boom")}, &stubBackend{degraded: true})
	_, stats, err = sh.Match(context.Background(), q, prix.MatchOptions{})
	if err != nil || !stats.Degraded {
		t.Fatalf("want degraded success, got stats=%+v err=%v", stats, err)
	}

	// All replicas failing: the error surfaces and the shard latches down.
	sh = stubShard(t, 0, &stubBackend{err: errors.New("boom")}, &stubBackend{err: errors.New("boom")})
	if _, _, err = sh.Match(context.Background(), q, prix.MatchOptions{}); err == nil {
		t.Fatal("all replicas failed but Match succeeded")
	}
	if !sh.Stats().Down {
		t.Fatal("shard not marked down after total failure")
	}
}

func TestShardHedgedRead(t *testing.T) {
	q := twig.MustParse(`//a`)
	slow := &stubBackend{delay: 300 * time.Millisecond}
	fast := &stubBackend{}
	sh := stubShard(t, 5*time.Millisecond, slow, fast)
	sh.rr.Store(0) // pin rotation so the slow replica is tried first
	start := time.Now()
	ms, stats, err := sh.Match(context.Background(), q, prix.MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Degraded || len(ms) != 1 {
		t.Fatalf("hedged read: stats=%+v ms=%v", stats, ms)
	}
	if e := time.Since(start); e > 250*time.Millisecond {
		t.Fatalf("hedged read took %v: backup was not launched early", e)
	}
	if got := sh.Stats().Hedges; got != 1 {
		t.Fatalf("hedges = %d, want 1", got)
	}
	if fast.calls != 1 {
		t.Fatalf("backup replica called %d times, want 1", fast.calls)
	}
}

func TestShardAdmissionRespectsContext(t *testing.T) {
	q := twig.MustParse(`//a`)
	slow := &stubBackend{docs: 1, delay: time.Second}
	bs := []prix.Source{slow}
	sh, err := NewShard(0, []uint32{7}, bs, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	go func() {
		defer close(release)
		sh.Match(context.Background(), q, prix.MatchOptions{})
	}()
	// Wait for the slot to be taken.
	for i := 0; cap(sh.sem) != len(sh.sem); i++ {
		if i > 1000 {
			t.Fatal("first query never took the admission slot")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, _, err := sh.Match(ctx, q, prix.MatchOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("admission under full shard: err = %v, want deadline", err)
	}
	<-release
}

// TestQuarantineUnion: replicas quarantine independently, so a shard and
// the coordinator over it report the union of the replicas' lists — in
// global docids, ascending, each docid once — even when the lists overlap
// across thousands of documents.
func TestQuarantineUnion(t *testing.T) {
	topo := &Topology{Version: 1, Shards: 2, Replicas: 2, Docs: 12000, Epoch: 1}
	maps := topo.DocMaps()
	n := len(maps[0])
	// Descending local ids on one replica, ascending on the other: the
	// merge must sort, not just concatenate.
	var a, b []uint32
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			b = append(b, uint32(i))
		}
		if j := n - 1 - i; j%2 == 0 {
			a = append(a, uint32(j))
		}
	}
	var want []uint32
	for i, g := range maps[0] {
		if i%2 == 0 || i%3 == 0 {
			want = append(want, g)
		}
	}
	co, err := NewCoordinator(topo, [][]prix.Source{
		{&stubBackend{docs: n, quarantined: a}, &stubBackend{docs: n, quarantined: b}},
		{&stubBackend{docs: len(maps[1])}, &stubBackend{docs: len(maps[1])}},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := co.Shard(0).Quarantined(); !reflect.DeepEqual(got, want) {
		t.Fatalf("shard union: %d docids, want %d (sorted, deduplicated)", len(got), len(want))
	}
	st := co.Stats()
	if !reflect.DeepEqual(st.Quarantined, want) {
		t.Fatalf("coordinator union: %d docids, want %d", len(st.Quarantined), len(want))
	}
	if got := st.DegradedShards(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("DegradedShards = %v, want [0]", got)
	}
}

// TestCoordinatorShardDownPartial: a wholly failed shard degrades the
// answer, it does not fail it; only every shard failing is an error.
func TestCoordinatorShardDownPartial(t *testing.T) {
	q := twig.MustParse(`//a`)
	topo := &Topology{Version: 1, Shards: 2, Replicas: 1, Docs: 2, Epoch: 1}
	ok := &stubBackend{docs: 1}
	dead := &stubBackend{docs: 1, err: errors.New("disk gone")}
	co, err := NewCoordinator(topo, [][]prix.Source{{ok}, {dead}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ms, stats, err := co.Match(q, prix.MatchOptions{})
	if err != nil {
		t.Fatalf("partial failure must not error: %v", err)
	}
	if !stats.Degraded || !reflect.DeepEqual(stats.DegradedShards, []int{1}) {
		t.Fatalf("stats = %+v, want degraded with shard 1 named", stats)
	}
	if len(ms) != 1 {
		t.Fatalf("matches = %v, want the healthy shard's one", ms)
	}
	if st := co.Stats(); !reflect.DeepEqual(st.DegradedShards(), []int{1}) {
		t.Fatalf("DegradedShards = %v, want [1]", st.DegradedShards())
	}

	dead2 := &stubBackend{docs: 1, err: errors.New("disk gone")}
	co, err = NewCoordinator(topo, [][]prix.Source{{dead2}, {dead}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := co.Match(q, prix.MatchOptions{}); err == nil {
		t.Fatal("every shard failed but Match succeeded")
	}
}

// TestBuildOpenRoundTrip: the on-disk layout (topology + cloned replicas)
// reopens into a coordinator that answers like the in-memory build and
// reconstructs documents across the shard boundary.
func TestBuildOpenRoundTrip(t *testing.T) {
	docs := corpus()
	root := t.TempDir()
	topo, err := Build(root, docs, BuildConfig{Shards: 3, Replicas: 2, Extended: true, Epoch: 77})
	if err != nil {
		t.Fatal(err)
	}
	if topo.Epoch != 77 || topo.Shards != 3 || topo.Replicas != 2 || int(topo.Docs) != len(docs) {
		t.Fatalf("topology %+v", topo)
	}
	for s := 0; s < 3; s++ {
		for r := 0; r < 2; r++ {
			if _, err := filepath.Glob(ReplicaDir(root, s, r)); err != nil {
				t.Fatal(err)
			}
		}
	}
	co, err := Open(root, prix.Options{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if st := co.Stats(); st.Epoch != 77 || len(st.Shards) != 3 || !st.Extended {
		t.Fatalf("coordinator: epoch=%d shards=%d ext=%v", st.Epoch, len(st.Shards), st.Extended)
	}
	single, err := prix.Build(docs, prix.Options{Extended: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, qc := range queries {
		q := twig.MustParse(qc.src)
		opts := prix.MatchOptions{WarmCache: true, Unordered: qc.unordered}
		want, _, wantErr := single.Match(q, opts)
		got, _, gotErr := co.Match(q, opts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: err=%v single=%v", qc.src, gotErr, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reopened layout diverges from single index", qc.src)
		}
	}
	// Reconstruction crosses the global→(shard, local) mapping.
	doc, err := co.ReconstructDocument(3)
	if err != nil {
		t.Fatal(err)
	}
	if doc.ID != 3 {
		t.Fatalf("reconstructed doc ID = %d, want 3", doc.ID)
	}

	// OpenReplicas=1 serves from one copy per shard.
	co1, err := Open(root, prix.Options{}, Config{OpenReplicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer co1.Close()
	if n := len(co1.Indexes()); n != 3 {
		t.Fatalf("OpenReplicas=1 opened %d indexes, want 3", n)
	}
}

// TestCoordinatorLeavesIntoAlone: a lent prix.MatchBuf holds one answer, and a
// 2×2 layout answers from both shards at once (and, hedging, from both
// replicas of a shard), so the coordinator must let none of them pack into
// it. At Parallelism 1 and 4 an answer through Into equals the one without,
// and still does after the buffer has packed another answer.
func TestCoordinatorLeavesIntoAlone(t *testing.T) {
	docs := corpus()
	co, err := BuildMemory(docs, BuildConfig{Shards: 2, Replicas: 2, Extended: true, Epoch: 1}, Config{HedgeDelay: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	single, err := prix.Build(docs, prix.Options{Extended: true})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	scribble := twig.MustParse(`//a/b`)
	buf := prix.NewMatchBuf()
	defer buf.Release()
	for _, par := range []int{1, 4} {
		for _, qc := range queries {
			q := twig.MustParse(qc.src)
			opts := prix.MatchOptions{WarmCache: true, Parallelism: par, Unordered: qc.unordered}
			want, _, err := co.Match(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Into = buf
			got, _, err := co.Match(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := single.Match(scribble, prix.MatchOptions{WarmCache: true, Into: buf}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s unordered=%v par=%d: answer through Into\n %v\nwant\n %v", qc.src, qc.unordered, par, got, want)
			}
		}
	}
}

// TestCoordinatorLocate: the owner shard and a binary search of its docid
// map give every docid of a 3-shard layout the (shard, local) pair that
// counting the owner's docids below it gives, and reconstruction by global
// docid returns each document whole.
func TestCoordinatorLocate(t *testing.T) {
	docs := corpus()
	co, err := BuildMemory(docs, BuildConfig{Shards: 3, Extended: true, Epoch: 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	for g := uint32(0); g < uint32(len(docs)); g++ {
		shard := Owner(g, 3)
		var local uint32
		for h := uint32(0); h < g; h++ {
			if Owner(h, 3) == shard {
				local++
			}
		}
		if s, l := co.locate(g); s != shard || l != local {
			t.Fatalf("locate(%d) = (%d,%d), counting gives (%d,%d)", g, s, l, shard, local)
		}
		doc, err := co.ReconstructDocument(g)
		if err != nil {
			t.Fatal(err)
		}
		if doc.ID != int(g) || doc.Size() != docs[g].Size() {
			t.Fatalf("ReconstructDocument(%d): doc %d of %d nodes, want %d nodes", g, doc.ID, doc.Size(), docs[g].Size())
		}
	}
	if _, err := co.ReconstructDocument(uint32(len(docs))); err == nil {
		t.Error("a docid past the collection reconstructed")
	}
}

// TestNewShardRejectsUnorderedDocMap: a docid map that does not rise
// strictly would reorder a shard's answer under the coordinator's merge, so
// NewShard refuses it.
func TestNewShardRejectsUnorderedDocMap(t *testing.T) {
	for _, m := range [][]uint32{{3, 1}, {2, 2}, {0, 5, 4}} {
		b := &stubBackend{docs: len(m)}
		if _, err := NewShard(0, m, []prix.Source{b}, 0, 0); err == nil {
			t.Errorf("NewShard accepted docmap %v", m)
		}
	}
	if _, err := NewShard(0, []uint32{0, 4, 9}, []prix.Source{&stubBackend{docs: 3}}, 0, 0); err != nil {
		t.Errorf("NewShard refused a rising docmap: %v", err)
	}
}

// coordinatorMatchAllocsBound is what one traced query through a warmed 2×2
// coordinator costs in heap objects: 8, the measured 7 plus one (43 while
// each shard packed its answer into fresh memory, the merge appended and
// sorted them, and the fan-out's spans and attributes past the trace's
// inline ones came from the heap). What is left is the result slots, the
// WaitGroup, one goroutine closure a shard, the merged QueryStats and the
// merged answer's block and []Match.
const coordinatorMatchAllocsBound = 8

// TestCoordinatorMatchAllocs bounds the heap objects of one traced query
// through a warmed 2×2 coordinator (sequential failover, Parallelism 1): the
// shards answer into pooled buffers and the trace's spans and attributes come
// from its kept slabs, so what is left is the fan-out's own bookkeeping and
// the one merged answer.
func TestCoordinatorMatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds pooled values under the race detector")
	}
	co, err := BuildMemory(corpus(), BuildConfig{Shards: 2, Replicas: 2, Extended: true, Epoch: 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	q := twig.MustParse(`//a[./b/c]/d`)
	run := func() {
		tr := obs.NewTrace("query")
		ms, _, err := co.Match(q, prix.MatchOptions{WarmCache: true, Parallelism: 1, Trace: tr})
		if err != nil || len(ms) == 0 {
			t.Fatalf("%d matches, %v", len(ms), err)
		}
		tr.Finish()
		tr.Release()
	}
	for i := 0; i < 10; i++ {
		run()
	}
	got := testing.AllocsPerRun(200, run)
	t.Logf("a traced 2x2 Coordinator.Match allocates %.1f objects", got)
	if got > coordinatorMatchAllocsBound {
		t.Errorf("a traced 2x2 Coordinator.Match allocates %.1f objects, want <= %d", got, coordinatorMatchAllocsBound)
	}
}
