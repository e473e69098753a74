package docstore

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/pager"
	"repro/internal/vtrie"
)

func newStore(t testing.TB) *Store {
	t.Helper()
	s, err := NewStore(pager.NewBufferPool(pager.NewMemFile(), 64), &Dict{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDictIntern(t *testing.T) {
	d := &Dict{}
	a := d.Intern("author")
	b := d.Intern("book")
	if a == b {
		t.Fatal("distinct strings share a symbol")
	}
	if d.Intern("author") != a {
		t.Error("re-intern changed symbol")
	}
	if d.Name(a) != "author" || d.Name(b) != "book" {
		t.Error("Name round trip failed")
	}
	if sym, ok := d.Lookup("book"); !ok || sym != b {
		t.Error("Lookup failed")
	}
	if _, ok := d.Lookup("absent"); ok {
		t.Error("Lookup invented a symbol")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
}

func randomRecord(rng *rand.Rand, id uint32, size int) *Record {
	r := &Record{DocID: id, NumNodes: int32(size)}
	for i := 1; i < size; i++ {
		r.NPS = append(r.NPS, int32(i+1+rng.Intn(size-i)))
		r.LPS = append(r.LPS, vtrie.Symbol(rng.Intn(50)))
	}
	for i := 0; i < size/3; i++ {
		r.Leaves = append(r.Leaves, Leaf{Post: int32(rng.Intn(size) + 1), Sym: vtrie.Symbol(rng.Intn(50))})
	}
	return r
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newStore(t)
	rng := rand.New(rand.NewSource(1))
	var want []*Record
	for i := 0; i < 200; i++ {
		r := randomRecord(rng, uint32(i), 2+rng.Intn(100))
		want = append(want, r)
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if s.NumDocs() != 200 {
		t.Fatalf("NumDocs = %d", s.NumDocs())
	}
	// Random access order.
	for _, i := range rng.Perm(200) {
		got, err := s.Get(uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
	if _, err := s.Get(999); err == nil {
		t.Error("Get of absent record succeeded")
	}
}

func TestPutOutOfOrderRejected(t *testing.T) {
	s := newStore(t)
	if err := s.Put(&Record{DocID: 5}); err == nil {
		t.Error("out-of-order Put accepted")
	}
}

func TestLargeRecordSpansPages(t *testing.T) {
	s := newStore(t)
	rng := rand.New(rand.NewSource(2))
	// ~40k nodes: several pages of varints.
	big := randomRecord(rng, 0, 40000)
	if err := s.Put(big); err != nil {
		t.Fatal(err)
	}
	small := randomRecord(rng, 1, 5)
	if err := s.Put(small); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, big) {
		t.Error("big record mangled")
	}
	got, err = s.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, small) {
		t.Error("record after big record mangled")
	}
}

// ScanNoFill hands over, in docid order, every record GetInto would return —
// one-page and spanning ones, through one reused Record — reads each page of
// small records once, and leaves no page resident. Quarantined documents and
// records on a corrupt page are skipped, and fn returning false stops it.
func TestScanNoFill(t *testing.T) {
	s := newStore(t)
	rng := rand.New(rand.NewSource(3))
	var want []*Record
	for i := 0; i < 300; i++ {
		want = append(want, randomRecord(rng, uint32(i), 2+rng.Intn(40)))
	}
	for _, r := range want {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	bp := s.BufferPool()
	scan := func() []*Record {
		if err := bp.DropAll(); err != nil {
			t.Fatal(err)
		}
		var got []*Record
		var rec Record
		s.ScanNoFill(&rec, func(r *Record) bool {
			// append to nil: an empty slice copies as nil, as Put's records hold it
			got = append(got, &Record{DocID: r.DocID, NumNodes: r.NumNodes, NPS: append([]int32(nil), r.NPS...),
				LPS: append([]vtrie.Symbol(nil), r.LPS...), Leaves: append([]Leaf(nil), r.Leaves...)})
			return true
		})
		if st := bp.Stats(); st.Resident != 0 {
			t.Errorf("ScanNoFill left %d pages resident", st.Resident)
		}
		return got
	}
	pages := map[pager.PageID]bool{}
	for _, e := range s.dir {
		pages[e.page] = true
	}
	before := bp.Stats().NoFillReads
	if got := scan(); !reflect.DeepEqual(got, want) {
		t.Fatalf("scanned %d records, want the %d stored", len(got), len(want))
	}
	if reads := bp.Stats().NoFillReads - before; reads != uint64(len(pages)) {
		t.Errorf("%d no-fill reads for %d records on %d pages, want one per page", reads, len(want), len(pages))
	}

	big := randomRecord(rng, 300, 20000) // spans pages
	for _, r := range []*Record{big, randomRecord(rng, 301, 7)} {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	s.Quarantine(5)
	victim := s.dir[100].page
	if err := pager.FlipBit(bp.File(), victim, (pager.PageHeaderSize+10)*8); err != nil {
		t.Fatal(err)
	}
	var kept []*Record
	for _, r := range want {
		if r.DocID != 5 && !slices.Contains(s.DocsOnPage(victim), r.DocID) {
			kept = append(kept, r)
		}
	}
	if got := scan(); !reflect.DeepEqual(got, kept) {
		t.Errorf("scanned %d records, want the %d neither quarantined nor on corrupt page %d", len(got), len(kept), victim)
	}
	n := 0
	var rec Record
	s.ScanNoFill(&rec, func(*Record) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("fn returning false after 3 records saw %d", n)
	}
	if st := bp.Stats(); st.Resident != 0 {
		t.Errorf("a stopped scan left %d pages resident", st.Resident)
	}
}

func TestParentOf(t *testing.T) {
	// Chain 1<-2<-3: NPS = [2, 3].
	r := &Record{NumNodes: 3, NPS: []int32{2, 3}}
	if r.ParentOf(1) != 2 || r.ParentOf(2) != 3 {
		t.Error("ParentOf wrong for chain")
	}
	if r.ParentOf(3) != 0 {
		t.Error("root must have parent 0")
	}
	if r.ParentOf(0) != 0 || r.ParentOf(99) != 0 {
		t.Error("out-of-range posts must return 0")
	}
}

func TestCatalogsAndStats(t *testing.T) {
	s := newStore(t)
	s.SetCatalog("maxgap", map[vtrie.Symbol]int64{1: 6, 2: 0})
	s.SetStat("elements", 12345)
	if m := s.Catalog("maxgap"); m[1] != 6 || m[2] != 0 {
		t.Errorf("catalog = %v", m)
	}
	if s.Catalog("nope") != nil {
		t.Error("absent catalog not nil")
	}
	if v, ok := s.Stat("elements"); !ok || v != 12345 {
		t.Errorf("stat = %d %v", v, ok)
	}
	if _, ok := s.Stat("nope"); ok {
		t.Error("absent stat reported present")
	}
}

func TestFlushOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	file, err := pager.OpenOSFile(filepath.Join(dir, "docs.db"))
	if err != nil {
		t.Fatal(err)
	}
	dict := &Dict{}
	bp := pager.NewBufferPool(file, 32)
	s, err := NewStore(bp, dict)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var want []*Record
	for i := 0; i < 50; i++ {
		r := randomRecord(rng, uint32(i), 2+rng.Intn(300))
		want = append(want, r)
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		dict.Intern(fmt.Sprintf("tag%02d", i))
	}
	s.SetCatalog("maxgap", map[vtrie.Symbol]int64{3: 42})
	s.SetStat("docs", 50)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	file.Close()

	file2, err := pager.OpenOSFile(filepath.Join(dir, "docs.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer file2.Close()
	s2, err := Open(pager.NewBufferPool(file2, 32))
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumDocs() != 50 {
		t.Fatalf("NumDocs after reopen = %d", s2.NumDocs())
	}
	for i := range want {
		got, err := s2.Get(uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("record %d mismatch after reopen", i)
		}
	}
	if s2.Dict().Name(s2.mustLookup(t, "tag42")) != "tag42" {
		t.Error("dictionary lost")
	}
	if m := s2.Catalog("maxgap"); m[3] != 42 {
		t.Errorf("catalog lost: %v", m)
	}
	if v, _ := s2.Stat("docs"); v != 50 {
		t.Errorf("stat lost: %d", v)
	}
}

func (s *Store) mustLookup(t *testing.T, name string) vtrie.Symbol {
	t.Helper()
	sym, ok := s.Dict().Lookup(name)
	if !ok {
		t.Fatalf("symbol %q missing", name)
	}
	return sym
}

func TestOpenRejectsGarbage(t *testing.T) {
	bp := pager.NewBufferPool(pager.NewMemFile(), 8)
	p, _ := bp.NewPage()
	copy(p.Data, "NOTADOCS")
	p.Unpin(true)
	if _, err := Open(bp); err == nil {
		t.Error("Open accepted garbage header")
	}
}

func TestIOAccountingThroughPool(t *testing.T) {
	s := newStore(t)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		if err := s.Put(randomRecord(rng, uint32(i), 200)); err != nil {
			t.Fatal(err)
		}
	}
	bp := s.bp
	if err := bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	bp.ResetStats()
	if _, err := s.Get(50); err != nil {
		t.Fatal(err)
	}
	st := bp.Stats()
	if st.PhysicalReads == 0 {
		t.Error("cold Get performed no physical reads")
	}
	if _, err := s.Get(50); err != nil {
		t.Fatal(err)
	}
	st2 := bp.Stats()
	if st2.PhysicalReads != st.PhysicalReads {
		t.Error("warm Get re-read pages physically")
	}
}

// The quarantine list is the public face of degradation (query responses,
// /healthz, scrub reports): it must come back ascending and deduplicated no
// matter the order or multiplicity of Quarantine calls, so reports and tests
// can compare it directly.
func TestQuarantinedSortedDeduped(t *testing.T) {
	s := newStore(t)
	if got := s.Quarantined(); got != nil {
		t.Fatalf("fresh store quarantined = %v, want nil", got)
	}
	for _, id := range []uint32{9, 2, 7, 2, 9, 9, 0, 7} {
		s.Quarantine(id)
	}
	want := []uint32{0, 2, 7, 9}
	got := s.Quarantined()
	if len(got) != len(want) {
		t.Fatalf("Quarantined() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Quarantined() = %v, want %v", got, want)
		}
	}
	s.Unquarantine(2)
	s.Unquarantine(42) // absent: no-op
	got = s.Quarantined()
	if len(got) != 3 || got[0] != 0 || got[1] != 7 || got[2] != 9 {
		t.Fatalf("after unquarantine: %v, want [0 7 9]", got)
	}
	if !s.IsQuarantined(9) || s.IsQuarantined(2) {
		t.Fatal("IsQuarantined out of sync with the list")
	}
	for _, id := range got {
		s.Unquarantine(id)
	}
	if got := s.Quarantined(); got != nil {
		t.Fatalf("emptied quarantine = %v, want nil", got)
	}
}

// Records must occupy contiguous pages (readRecord walks page+1), but Flush
// extends a meta chain by a page at the file tail. A record appended after
// such a Flush that continued on the pre-flush partial page and spilled would
// land on non-contiguous pages and read back as garbage. Regression:
// interleave flushes with appends, including one spanning append per round.
func TestAppendAfterFlushStaysContiguous(t *testing.T) {
	s := newStore(t)
	rng := rand.New(rand.NewSource(3))
	var want []*Record
	id := uint32(0)
	for round := 0; round < 4; round++ {
		// A few small records leave the append page partially filled.
		for i := 0; i < 5; i++ {
			r := randomRecord(rng, id, 20+rng.Intn(30))
			if err := s.Put(r); err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
			id++
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		// One record big enough to cross at least one page boundary.
		big := randomRecord(rng, id, 6000)
		if err := s.Put(big); err != nil {
			t.Fatal(err)
		}
		want = append(want, big)
		id++
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		got, err := s.Get(uint32(i))
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("record %d corrupted by post-flush append", i)
		}
	}
}

// Flush writes each meta section over the chain pages it already has, so
// committing again costs no file growth; a section that outgrows its chain
// takes pages at the tail for the growth alone, and the store reads back
// identically either way — including records appended between flushes on
// the page that was open before them.
func TestFlushReusesMetaRegion(t *testing.T) {
	bp := pager.NewBufferPool(pager.NewMemFile(), 64)
	s, err := NewStore(bp, &Dict{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var want []*Record
	put := func(n int) {
		for i := 0; i < n; i++ {
			r := randomRecord(rng, uint32(len(want)), 10+rng.Intn(20))
			if err := s.Put(r); err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
	}
	put(8)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// The first flush put its chains at the tail, so the next record opens a
	// fresh page; from there on the file must not grow.
	put(1)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	pages := bp.File().NumPages()
	for i := 0; i < 20; i++ {
		s.SetStat("round", int64(i))
		put(1) // lands on the append page the flushes leave open
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := bp.File().NumPages(); got != pages {
		t.Errorf("20 small commits grew the file from %d to %d pages", pages, got)
	}
	// Outgrow the dictionary's one page: its chain grows, the rest stays put.
	for i := 0; i < 600; i++ {
		s.Dict().Intern(fmt.Sprintf("a-rather-long-label-%04d", i))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	grown := bp.File().NumPages()
	if grown <= pages {
		t.Fatalf("a %d-label dictionary still fits %d pages", s.Dict().Len(), pages)
	}
	put(3)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := bp.File().NumPages(); got > grown+1 {
		t.Errorf("commit after the growth grew the file from %d to %d pages", grown, got)
	}
	re, err := Open(pager.NewBufferPool(bp.File(), 64))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := re.Stat("round"); v != 19 || re.Dict().Len() != s.Dict().Len() {
		t.Errorf("reopened store: round %d, %d labels; want 19, %d", v, re.Dict().Len(), s.Dict().Len())
	}
	for i, w := range want {
		got, err := re.Get(uint32(i))
		if err != nil || !reflect.DeepEqual(got, w) {
			t.Fatalf("record %d after reopen: %v", i, err)
		}
	}
}
