package hot

import (
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/docstore"
	"repro/internal/pager"
	"repro/internal/vtrie"
)

type tripleEntry struct {
	left, right uint64
	level       uint32
}

// refScan is the oracle: linear filtering with B+-tree Scan bound
// semantics over the uncompressed entries.
func refScan(entries []tripleEntry, lo, hi uint64, loIncl, hiIncl bool) []tripleEntry {
	var out []tripleEntry
	for _, e := range entries {
		if e.left < lo || (e.left == lo && !loIncl) {
			continue
		}
		if e.left > hi || (e.left == hi && !hiIncl) {
			continue
		}
		out = append(out, e)
	}
	return out
}

func TestPostingsScanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Sorted lefts with duplicate runs, some crossing block boundaries.
	var entries []tripleEntry
	left := uint64(0)
	for len(entries) < 1000 {
		left += uint64(rng.Intn(5)) // 0 creates duplicates
		entries = append(entries, tripleEntry{
			left:  left,
			right: left + uint64(rng.Intn(1000)),
			level: uint32(rng.Intn(64)),
		})
	}
	b := NewPostingsBuilder()
	for _, e := range entries {
		b.Add(e.left, e.right, e.level)
	}
	p := b.Build()
	if int(p.n) != len(entries) {
		t.Fatalf("%d entries, want %d", p.n, len(entries))
	}
	maxLeft := entries[len(entries)-1].left
	for trial := 0; trial < 500; trial++ {
		lo := uint64(rng.Intn(int(maxLeft) + 2))
		hi := lo + uint64(rng.Intn(int(maxLeft)+2))
		loIncl, hiIncl := rng.Intn(2) == 0, rng.Intn(2) == 0
		want := refScan(entries, lo, hi, loIncl, hiIncl)
		var got []tripleEntry
		p.Scan(lo, hi, loIncl, hiIncl, func(l, r uint64, lvl uint32) bool {
			got = append(got, tripleEntry{l, r, lvl})
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("scan (%d,%d] incl(%v,%v): %d entries, want %d", lo, hi, loIncl, hiIncl, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("scan (%d,%d]: entry %d = %+v, want %+v", lo, hi, i, got[i], want[i])
			}
		}
	}
	// Early stop.
	n := 0
	p.Scan(0, math.MaxUint64, true, true, func(l, r uint64, lvl uint32) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("early stop visited %d", n)
	}
	// Empty list.
	NewPostingsBuilder().Build().Scan(0, math.MaxUint64, true, true, func(l, r uint64, lvl uint32) bool {
		t.Fatal("empty list emitted")
		return false
	})
}

func TestPostingsFullRange(t *testing.T) {
	b := NewPostingsBuilder()
	b.Add(1, math.MaxUint64, 1)
	b.Add(math.MaxUint64, math.MaxUint64, 2)
	p := b.Build()
	var got []tripleEntry
	p.Scan(0, math.MaxUint64, false, true, func(l, r uint64, lvl uint32) bool {
		got = append(got, tripleEntry{l, r, lvl})
		return true
	})
	if len(got) != 2 || got[0] != (tripleEntry{1, math.MaxUint64, 1}) || got[1] != (tripleEntry{math.MaxUint64, math.MaxUint64, 2}) {
		t.Fatalf("got %+v", got)
	}
}

// docEntry is one Docid-tree entry: a terminal LeftPos, a docID and, for a
// tombstone, the version the document was deleted at.
type docEntry struct {
	left  uint64
	docID uint32
	tomb  uint64
}

// docidRun loads entries, in key order, into a Docid tree of their own,
// preloads its leaves into a tier and returns the tier's run of the whole
// tree and the number of leaves.
func docidRun(t testing.TB, entries []docEntry) (Run, int) {
	t.Helper()
	f, err := btree.Open(pager.NewBufferPool(pager.NewMemFile(), 64))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := f.PackedDocIDTree("docid")
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	err = tree.BulkLoad(btree.Fill{}, func() ([]byte, []byte, error) {
		if next == len(entries) {
			return nil, nil, io.EOF
		}
		e := entries[next]
		next++
		return btree.KeyUint64(e.left), btree.DocIDValue(e.docID, e.tomb), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTier(1 << 30)
	if !tr.Preload(tree, KindDocIDs) {
		t.Fatal("docid leaves not admitted")
	}
	run, ok := tr.Run(KindDocIDs, Key{}, maxKey, nil)
	if !ok {
		t.Fatal("docid run not resident")
	}
	return run, tr.Stats().Items
}

// scanDocIDs is what Run.ScanDocIDs visits over [lo, hi].
func scanDocIDs(r Run, lo, hi uint64, loIncl, hiIncl bool) []docEntry {
	var got []docEntry
	r.ScanDocIDs(Key{Left: lo}, Key{Left: hi}, loIncl, hiIncl, func(l uint64, id uint32, tomb uint64) bool {
		got = append(got, docEntry{l, id, tomb})
		return true
	})
	return got
}

// refDocIDs is the oracle: linear filtering with B+-tree Scan bound
// semantics.
func refDocIDs(entries []docEntry, lo, hi uint64, loIncl, hiIncl bool) []docEntry {
	var out []docEntry
	for _, e := range entries {
		if (e.left > lo || e.left == lo && loIncl) && (e.left < hi || e.left == hi && hiIncl) {
			out = append(out, e)
		}
	}
	return out
}

// A run of Docid leaf images scans like the tree it was copied from: over
// several leaves, with a tombstone after some live entries under the same
// key, every range returns exactly the oracle's entries in key order.
func TestDocIDsScanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var entries []docEntry
	left := uint64(0)
	for len(entries) < 20000 {
		left += 1 + uint64(rng.Intn(4))
		e := docEntry{left: left, docID: uint32(rng.Intn(1 << 20))}
		entries = append(entries, e)
		if rng.Intn(8) == 0 {
			e.tomb = 1 + uint64(rng.Intn(1000))
			entries = append(entries, e)
		}
	}
	run, leaves := docidRun(t, entries)
	if leaves < 3 || len(run) != leaves {
		t.Fatalf("%d entries in %d leaves, a run of %d: want a run over several", len(entries), leaves, len(run))
	}
	maxLeft := entries[len(entries)-1].left
	for trial := 0; trial < 300; trial++ {
		lo := uint64(rng.Intn(int(maxLeft) + 2))
		hi := lo + uint64(rng.Intn(int(maxLeft)/(1+rng.Intn(100))+2))
		loIncl, hiIncl := rng.Intn(2) == 0, rng.Intn(2) == 0
		if got, want := scanDocIDs(run, lo, hi, loIncl, hiIncl), refDocIDs(entries, lo, hi, loIncl, hiIncl); !slices.Equal(got, want) {
			t.Fatalf("scan %d..%d incl(%v,%v): %d entries, want %d", lo, hi, loIncl, hiIncl, len(got), len(want))
		}
	}
	if got := scanDocIDs(run, 0, math.MaxUint64, true, true); !slices.Equal(got, entries) {
		t.Fatalf("full scan: %d entries, want %d", len(got), len(entries))
	}
	empty, _ := docidRun(t, nil)
	if got := scanDocIDs(empty, 0, math.MaxUint64, true, true); len(got) != 0 {
		t.Fatalf("empty tree scanned %d entries", len(got))
	}
}

// chainRecord builds the record of a path a/b/c/... with n nodes: node i's
// parent is i+1, leaves is node 1 only.
func chainRecord(docID uint32, n int32, syms []vtrie.Symbol) *docstore.Record {
	rec := &docstore.Record{DocID: docID, NumNodes: n}
	for i := int32(1); i < n; i++ {
		rec.NPS = append(rec.NPS, i+1)
		rec.LPS = append(rec.LPS, syms[i]) // label of node i+1
	}
	rec.Leaves = []docstore.Leaf{{Post: 1, Sym: syms[0]}}
	return rec
}

func TestSummaryRoundTrip(t *testing.T) {
	recs := []*docstore.Record{
		// A small bushy tree: root 5 with children 2 and 4; 2's child 1;
		// 4's child 3. NPS[i] is parent of node i+1... indices: node 1→2,
		// 2→5, 3→4, 4→5.
		{
			DocID: 3, NumNodes: 5,
			NPS:    []int32{2, 5, 4, 5},
			LPS:    []vtrie.Symbol{7, 9, 8, 9},
			Leaves: []docstore.Leaf{{Post: 1, Sym: 4}, {Post: 3, Sym: 5}},
		},
		chainRecord(1, 6, []vtrie.Symbol{3, 1, 4, 1, 5, 9}),
		// Single node: empty NPS/LPS.
		{DocID: 9, NumNodes: 1, Leaves: []docstore.Leaf{{Post: 1, Sym: 2}}},
		// Wide: root 4 with leaf children 1..3.
		{
			DocID: 2, NumNodes: 4,
			NPS:    []int32{4, 4, 4},
			LPS:    []vtrie.Symbol{6, 6, 6},
			Leaves: []docstore.Leaf{{Post: 1, Sym: 1}, {Post: 2, Sym: 2}, {Post: 3, Sym: 3}},
		},
	}
	for _, rec := range recs {
		s := NewSummary(rec)
		if s == nil {
			t.Fatalf("doc %d: not encodable", rec.DocID)
		}
		if s.docID != rec.DocID {
			t.Fatalf("doc %d: bookkeeping", rec.DocID)
		}
		got := s.Record()
		if !s.matches(rec) || got.NumNodes != rec.NumNodes {
			t.Fatalf("doc %d: round trip mismatch: %+v vs %+v", rec.DocID, got, rec)
		}
	}
}

func TestSummaryRejectsDamage(t *testing.T) {
	bad := []*docstore.Record{
		nil,
		{DocID: 1, NumNodes: 0},
		// NPS length wrong.
		{DocID: 1, NumNodes: 3, NPS: []int32{3}, LPS: []vtrie.Symbol{1}},
		// Parent not after child in postorder.
		{DocID: 1, NumNodes: 3, NPS: []int32{1, 3}, LPS: []vtrie.Symbol{1, 2},
			Leaves: []docstore.Leaf{{Post: 2, Sym: 3}}},
		// Parent out of range.
		{DocID: 1, NumNodes: 3, NPS: []int32{9, 3}, LPS: []vtrie.Symbol{1, 2},
			Leaves: []docstore.Leaf{{Post: 1, Sym: 3}}},
		// Conflicting labels for one node.
		{DocID: 1, NumNodes: 3, NPS: []int32{3, 3}, LPS: []vtrie.Symbol{1, 2},
			Leaves: []docstore.Leaf{{Post: 1, Sym: 5}, {Post: 2, Sym: 5}}},
		// Leaf list missing a leaf: encodable shape but the round trip
		// must catch the difference.
		{DocID: 1, NumNodes: 3, NPS: []int32{3, 3}, LPS: []vtrie.Symbol{2, 2}},
		// Leaf entry pointing at an internal node.
		{DocID: 1, NumNodes: 3, NPS: []int32{2, 3}, LPS: []vtrie.Symbol{4, 2},
			Leaves: []docstore.Leaf{{Post: 1, Sym: 3}, {Post: 2, Sym: 4}}},
	}
	for i, rec := range bad {
		if s := NewSummary(rec); s != nil {
			t.Fatalf("case %d admitted: %+v", i, rec)
		}
	}
}

// fuzzList turns fuzz bytes into a sorted posting list and four scan
// bounds. Each entry takes three bytes, and each byte picks its field's
// shift as well as its value, so one input can spread Left over all 64 bits
// (a zero gap repeats the previous Left), make Right − Left 64 bits wide and
// Level 32, or keep every field narrow: cells of every width from 0 bits (a
// list of identical entries) to 160. The bounds land on, or one past, the
// Lefts of entries the input picks.
func fuzzList(data []byte) (entries []tripleEntry, lo, hi uint64, loIncl, hiIncl bool) {
	if len(data) < 4 {
		return nil, 0, 0, true, true
	}
	loIncl, hiIncl = data[0]&1 == 0, data[0]&2 == 0
	left := uint64(data[1]) << (data[0] >> 2) // small and huge key spaces
	for e := data[4:]; len(e) >= 3; e = e[3:] {
		gap := uint64(e[0]%4) << (e[0] / 4)
		if left+gap < left {
			break // past 2^64: the list would no longer be sorted
		}
		left += gap
		entries = append(entries, tripleEntry{
			left:  left,
			right: left + uint64(e[1])<<(e[1]%57),
			level: uint32(e[2]) << (e[2] % 25),
		})
	}
	bound := func(b byte) uint64 {
		if len(entries) == 0 {
			return uint64(b)
		}
		return entries[int(b&0x7f)%len(entries)].left + uint64(b>>7)
	}
	lo, hi = bound(data[2]), bound(data[3])
	if data[0]&0x80 != 0 {
		hi = math.MaxUint64
	}
	return entries, lo, hi, loIncl, hiIncl
}

// fuzzSeeds are inputs for both list fuzzers: narrow fields, a one-entry
// list, a list of identical entries (zero-width cells) and a
// dynamic-label-like list whose Lefts, scopes and levels spread over 64, 64
// and 32 bits.
var fuzzSeeds = [][]byte{
	{0, 0, 0, 255, 1, 0, 0, 2, 0, 3},
	{3, 9, 128, 10, 0, 0, 0, 0, 1, 1, 0, 0},
	{0x81, 255, 255, 255, 3, 3, 3},
	{0, 5, 0, 255, 9, 9, 9},
	{0, 7, 0, 255, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	{0x7c, 1, 1, 0x83, 0x00, 0xaa, 0x95, 0xfd, 0xff, 0x1f, 0xf1, 0x11, 0x07, 0x01, 0xf8, 0xf8},
}

// TestFuzzSeedWidths pins what the last three seeds are for: one entry, cells
// of no bits, and fields of 64, 64 and 32 bits.
func TestFuzzSeedWidths(t *testing.T) {
	for i, want := range map[int]struct {
		n int
		w [3]uint8
	}{3: {1, [3]uint8{0, 13, 0}}, 4: {4, [3]uint8{}}, 5: {4, [3]uint8{64, 64, 32}}} {
		entries, _, _, _, _ := fuzzList(fuzzSeeds[i])
		b := NewPostingsBuilder()
		for _, e := range entries {
			b.Add(e.left, e.right, e.level)
		}
		if p := b.Build(); int(p.n) != want.n || p.w != want.w {
			t.Errorf("seed %d: %d entries in cells of %v bits, want %d in %v", i, p.n, p.w, want.n, want.w)
		}
	}
}

// FuzzPostingsScan checks Scan against the naive filter on random sorted
// lists with duplicate runs, random bounds and both inclusivities.
func FuzzPostingsScan(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, lo, hi, loIncl, hiIncl := fuzzList(data)
		b := NewPostingsBuilder()
		for _, e := range entries {
			b.Add(e.left, e.right, e.level)
		}
		var got []tripleEntry
		b.Build().Scan(lo, hi, loIncl, hiIncl, func(l, r uint64, lvl uint32) bool {
			got = append(got, tripleEntry{l, r, lvl})
			return true
		})
		want := refScan(entries, lo, hi, loIncl, hiIncl)
		if len(got) != len(want) {
			t.Fatalf("scan %d..%d incl(%v,%v) over %d entries: %d hits, want %d", lo, hi, loIncl, hiIncl, len(entries), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("hit %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}

// FuzzDocIDsScan is FuzzPostingsScan for a run of Docid leaf images: the
// entries' Levels, up to 32 bits wide, stand in as DocIDs, every third Right
// marks a tombstone, and every hit must match.
func FuzzDocIDsScan(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Add([]byte{0x82, 1, 7, 7, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		list, lo, hi, loIncl, hiIncl := fuzzList(data)
		entries := make([]docEntry, len(list))
		for i, e := range list {
			entries[i] = docEntry{left: e.left, docID: e.level}
			if e.right%3 == 0 {
				entries[i].tomb = e.right | 1
			}
		}
		run, _ := docidRun(t, entries)
		got, want := scanDocIDs(run, lo, hi, loIncl, hiIncl), refDocIDs(entries, lo, hi, loIncl, hiIncl)
		if !slices.Equal(got, want) {
			t.Fatalf("scan %d..%d incl(%v,%v) over %d entries: %d hits, want %d", lo, hi, loIncl, hiIncl, len(entries), len(got), len(want))
		}
	})
}

// randomRecord draws a random tree of n nodes in postorder (every parent
// numbered after its children) with labels below maxSym.
func randomRecord(rng *rand.Rand, docID uint32, n int, maxSym uint32) *docstore.Record {
	rec := &docstore.Record{DocID: docID, NumNodes: int32(n)}
	labels := make([]vtrie.Symbol, n+1)
	for i := range labels {
		labels[i] = vtrie.Symbol(rng.Int63n(int64(maxSym) + 1))
	}
	internal := make([]bool, n+1)
	for i := 1; i < n; i++ {
		p := i + 1 + rng.Intn(min(n-i, 4))
		rec.NPS = append(rec.NPS, int32(p))
		rec.LPS = append(rec.LPS, labels[p])
		internal[p] = true
	}
	for i := 1; i <= n; i++ {
		if !internal[i] {
			rec.Leaves = append(rec.Leaves, docstore.Leaf{Post: int32(i), Sym: labels[i]})
		}
	}
	return rec
}

// checkNavigation asserts the summary answers Nodes, ParentOf and LabelOf
// exactly like the record, for every node and for numbers outside the tree.
func checkNavigation(t *testing.T, s *Summary, rec *docstore.Record) {
	t.Helper()
	if s.Nodes() != rec.Nodes() {
		t.Fatalf("doc %d: Nodes = %d, want %d", rec.DocID, s.Nodes(), rec.Nodes())
	}
	for post := int32(-1); post <= rec.NumNodes+2; post++ {
		if got, want := s.ParentOf(post), rec.ParentOf(post); got != want {
			t.Fatalf("doc %d: ParentOf(%d) = %d, want %d", rec.DocID, post, got, want)
		}
		gotSym, gotOK := s.LabelOf(post)
		wantSym, wantOK := rec.LabelOf(post)
		if gotSym != wantSym || gotOK != wantOK {
			t.Fatalf("doc %d: LabelOf(%d) = %d,%v, want %d,%v", rec.DocID, post, gotSym, gotOK, wantSym, wantOK)
		}
	}
}

// TestSummaryNavigation pins the O(1) accessors against the record on
// random trees whose packed fields straddle word boundaries at every
// alignment (label widths 1 to 32 bits), and the admission path: a record
// the vector cannot reproduce is rejected, never approximated.
func TestSummaryNavigation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(300)
		maxSym := uint32(1)<<uint(rng.Intn(32)) - 1 + uint32(rng.Intn(2))
		rec := randomRecord(rng, uint32(trial), n, maxSym)
		s := NewSummary(rec)
		if s == nil {
			t.Fatalf("trial %d: valid tree of %d nodes not admitted", trial, n)
		}
		checkNavigation(t, s, rec)
		if n < 3 {
			continue
		}
		// Damage one field the round trip must notice.
		bad := *rec
		switch trial % 3 {
		case 0: // a leaf missing from the leaf list
			bad.Leaves = bad.Leaves[1:]
		case 1: // an LPS entry disagreeing with its node's other occurrences
			bad.LPS = append([]vtrie.Symbol(nil), rec.LPS...)
			bad.LPS[0]++
			bad.Leaves = append([]docstore.Leaf{{Post: bad.NPS[0], Sym: rec.LPS[0]}}, rec.Leaves...)
		case 2: // a parent pointing below its child
			bad.NPS = append([]int32(nil), rec.NPS...)
			bad.NPS[n-2] = 1
		}
		if NewSummary(&bad) != nil {
			t.Fatalf("trial %d: damaged record (case %d) admitted", trial, trial%3)
		}
	}
}

// seekList is a 4,096-entry list with Lefts 8 apart, and 512 scan lower
// bounds spread over it; each scan covers 3 entries, the descent's typical
// narrow range.
func seekList() (lefts []uint64, los []uint64) {
	for i := 0; i < 4096; i++ {
		lefts = append(lefts, uint64(i)*8+1<<40)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 512; i++ {
		los = append(los, lefts[rng.Intn(len(lefts)-4)]-1)
	}
	return lefts, los
}

// TestScanAllocs: a scan of a packed list decodes in place and allocates
// nothing, with cells that fit one load (24 bits) and cells that do not (a
// 64-bit Left field, 73-bit cells).
func TestScanAllocs(t *testing.T) {
	for _, shift := range []uint{3, 52} {
		pb := NewPostingsBuilder()
		for i := 0; i < 4096; i++ {
			l := uint64(i) << shift
			pb.Add(l, l+7, uint32(i%40))
		}
		p := pb.Build()
		hits, k := 0, 0
		n := testing.AllocsPerRun(100, func() {
			k = k%4000 + 1
			lo := uint64(k)<<shift - 1
			p.Scan(lo, lo+3<<shift, false, true, func(uint64, uint64, uint32) bool { hits++; return true })
		})
		if n != 0 || hits != 3*101 {
			t.Errorf("shift %d: a scan allocates %.0f objects (%d hits, want %d), want 0", shift, n, hits, 3*101)
		}
	}
}

func BenchmarkPostingsSeek(b *testing.B) {
	lefts, los := seekList()
	pb := NewPostingsBuilder()
	for i, l := range lefts {
		pb.Add(l, l+7, uint32(i%40))
	}
	p := pb.Build()
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		lo := los[i%len(los)]
		p.Scan(lo, lo+24, false, true, func(uint64, uint64, uint32) bool { hits++; return true })
	}
	if hits != 3*b.N {
		b.Fatalf("%d hits over %d scans", hits, b.N)
	}
}

// BenchmarkSummaryRefine is Algorithm 2's access pattern on a resident
// 20-node path document (the deepest shape, so the longest chases): a chase
// to the root from each of five matched positions, and three labels.
func BenchmarkSummaryRefine(b *testing.B) {
	syms := make([]vtrie.Symbol, 20)
	for i := range syms {
		syms[i] = vtrie.Symbol(1000*i + 7)
	}
	s := NewSummary(chainRecord(0, 20, syms))
	b.ReportAllocs()
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		for post := int32(1); post <= 5; post++ {
			for cur := s.ParentOf(post); cur != 0; cur = s.ParentOf(cur) {
				sink += cur
			}
		}
		for post := int32(6); post <= 8; post++ {
			sym, _ := s.LabelOf(post)
			sink += int32(sym)
		}
	}
	if sink == 0 {
		b.Fatal("nothing navigated")
	}
}
