package docstore

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/pager"
	"repro/internal/pager/pagertest"
	"repro/internal/vtrie"
)

// storeImage is everything a reopened store must give back.
type storeImage struct {
	Records  []*Record
	Names    []string
	Catalogs map[string]map[vtrie.Symbol]int64
	Stats    map[string]int64
	Blobs    map[string][]byte
}

func imageOf(t testing.TB, s *Store) storeImage {
	t.Helper()
	img := storeImage{
		Names:    s.Dict().Names(),
		Catalogs: map[string]map[vtrie.Symbol]int64{},
		Stats:    maps.Clone(s.stats),
		Blobs:    map[string][]byte{},
	}
	for id := 0; id < s.NumDocs(); id++ {
		rec, err := s.GetAny(uint32(id))
		if err != nil {
			t.Fatalf("record %d: %v", id, err)
		}
		img.Records = append(img.Records, rec)
	}
	for name, m := range s.catalogs {
		img.Catalogs[name] = maps.Clone(m)
	}
	for name := range s.blobs {
		img.Blobs[name] = s.Blob(name)
	}
	return img
}

func openJournaled(t testing.TB, main, journalFile pager.File, fresh bool) *Store {
	t.Helper()
	s, err := tryOpenJournaled(main, journalFile, fresh)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func tryOpenJournaled(main, journalFile pager.File, fresh bool) (*Store, error) {
	j, err := pager.NewJournal(journalFile, main)
	if err != nil {
		return nil, err
	}
	bp, err := pager.NewJournaledPool(main, j, 64)
	if err != nil {
		return nil, err
	}
	if fresh {
		return NewStore(bp, &Dict{})
	}
	return Open(bp)
}

func randomName(rng *rand.Rand) string {
	b := make([]byte, 1+rng.Intn(60))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return fmt.Sprintf("%s-%d", b, rng.Int63())
}

func sectionPages(s *Store) (dict, dir, small int) {
	secs := s.MetaSections()
	return secs[secDict].Pages, secs[secDir].Pages, secs[secSmall].Pages
}

// The model test: random Put/Rewrite/RewriteKeepOld/Intern/SetCatalog/SetStat/
// SetBlob/quarantine steps against an in-memory model, with the store reopened
// after every Flush — half the time to carry on from the reopened store, so the
// state Open rebuilds (chains, directory blocks, dictionary tail) is flushed
// from as well as read. Long enough that every section grows by whole pages
// and the dictionary crosses several page boundaries.
func TestStoreModel(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			main, journalFile := pager.NewMemFile(), pager.NewMemFile()
			s := openJournaled(t, main, journalFile, true)
			model := storeImage{
				Catalogs: map[string]map[vtrie.Symbol]int64{},
				Stats:    map[string]int64{},
				Blobs:    map[string][]byte{},
			}
			quarantined := map[uint32]bool{}
			randomDoc := func() (uint32, bool) {
				if len(model.Records) == 0 {
					return 0, false
				}
				return uint32(rng.Intn(len(model.Records))), true
			}
			newRecord := func(id uint32) *Record {
				size := 2 + rng.Intn(60)
				if rng.Intn(50) == 0 {
					size = 3000 + rng.Intn(3000) // spans pages
				}
				return randomRecord(rng, id, size)
			}
			flushes := 0
			for step := 0; step < 500; step++ {
				switch op := rng.Intn(12); {
				case op < 3:
					for n := 1 + rng.Intn(40); n > 0; n-- {
						rec := newRecord(uint32(len(model.Records)))
						if err := s.Put(rec); err != nil {
							t.Fatal(err)
						}
						model.Records = append(model.Records, rec)
					}
				case op == 3:
					if id, ok := randomDoc(); ok {
						rec := newRecord(id)
						if err := s.Rewrite(rec); err != nil {
							t.Fatal(err)
						}
						model.Records[id] = rec
					}
				case op == 4:
					if id, ok := randomDoc(); ok {
						rec := newRecord(id)
						loc, err := s.RewriteKeepOld(rec)
						if err != nil {
							t.Fatal(err)
						}
						old, err := s.GetAtLoc(id, loc)
						if err != nil || !reflect.DeepEqual(old, model.Records[id]) {
							t.Fatalf("step %d: superseded image of %d at %+v: %v", step, id, loc, err)
						}
						model.Records[id] = rec
					}
				case op == 5:
					for n := 1 + rng.Intn(120); n > 0; n-- {
						name := randomName(rng)
						if int(s.Dict().Intern(name)) != len(model.Names) {
							t.Fatalf("step %d: %q interned out of order", step, name)
						}
						model.Names = append(model.Names, name)
					}
				case op == 6:
					name := fmt.Sprint("cat", rng.Intn(3))
					m := map[vtrie.Symbol]int64{}
					for n := rng.Intn(40); n > 0; n-- {
						m[vtrie.Symbol(rng.Intn(500))] = rng.Int63n(1 << 20)
					}
					s.SetCatalog(name, m)
					model.Catalogs[name] = m
				case op == 7:
					name := fmt.Sprint("stat", rng.Intn(5))
					v := rng.Int63n(1 << 40)
					s.SetStat(name, v)
					model.Stats[name] = v
				case op == 8:
					name := fmt.Sprint("blob", rng.Intn(3))
					var b []byte
					switch rng.Intn(4) {
					case 0: // delete
					case 1:
						b = make([]byte, 1+rng.Intn(3*pager.PageSize)) // spans pages
					default:
						b = make([]byte, 1+rng.Intn(200))
					}
					rng.Read(b)
					s.SetBlob(name, b)
					if len(b) == 0 {
						delete(model.Blobs, name)
					} else {
						model.Blobs[name] = b
					}
				case op == 9:
					if id, ok := randomDoc(); ok {
						if quarantined[id] = !quarantined[id]; quarantined[id] {
							s.Quarantine(id)
						} else {
							s.Unquarantine(id)
						}
						if _, err := s.Get(id); errors.Is(err, ErrQuarantined) != quarantined[id] {
							t.Fatalf("step %d: Get(%d) = %v with quarantine %v", step, id, err, quarantined[id])
						}
					}
				default:
					if err := s.Flush(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					flushes++
					re := openJournaled(t, main, journalFile, false)
					if got := imageOf(t, re); !reflect.DeepEqual(got, model) {
						t.Fatalf("step %d (flush %d): reopened store differs from the model (%d/%d docs, %d/%d names)",
							step, flushes, len(got.Records), len(model.Records), len(got.Names), len(model.Names))
					}
					if len(re.Quarantined()) != 0 {
						t.Fatalf("step %d: quarantine survived a reopen", step)
					}
					if rng.Intn(2) == 0 {
						s, quarantined = re, map[uint32]bool{}
					}
				}
			}
			dict, dir, small := sectionPages(s)
			if dict < 4 || dir < 2 || small < 2 {
				t.Errorf("sections ended at %d/%d/%d pages (dictionary/directory/catalogs); the run was meant to grow each", dict, dir, small)
			}
			t.Logf("%d docs, %d names, %d flushes; sections %d/%d/%d pages", len(model.Records), len(model.Names), flushes, dict, dir, small)
		})
	}
}

// writeCounter counts the page writes that reach a file.
type writeCounter struct {
	pager.File
	writes int
}

func (f *writeCounter) WritePage(id pager.PageID, buf []byte) error {
	f.writes++
	return f.File.WritePage(id, buf)
}

// bigStore builds a store of docs records and names dictionary entries, with a
// catalog and a blob, and commits it.
func bigStore(t testing.TB, main, journalFile pager.File, docs, names int) *Store {
	t.Helper()
	s := openJournaled(t, main, journalFile, true)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < docs; i++ {
		if err := s.Put(randomRecord(rng, uint32(i), 8+rng.Intn(40))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < names; i++ {
		s.Dict().Intern(fmt.Sprintf("a-rather-long-label-%05d", i))
	}
	s.SetCatalog("maxgap", map[vtrie.Symbol]int64{1: 2, 3: 4})
	s.SetBlob("mvcc", make([]byte, 3000))
	s.SetStat("docs", int64(docs))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s
}

// A commit costs what it changed: on a store of 5,000 documents and 5,000
// names (a directory of several pages, a dictionary of a dozen), re-pointing
// one document writes its record page, its directory block, and nothing of
// the dictionary; with a stat changed too, the small section and nothing else.
// The single-run meta this replaced rewrote all of it — 13+ pages — per
// commit. A Flush with nothing to say writes nothing.
func TestFlushWritesWhatChanged(t *testing.T) {
	main := &writeCounter{File: pager.NewMemFile()}
	s := bigStore(t, main, pager.NewMemFile(), 5000, 5000)
	dict, dir, small := sectionPages(s)
	if dict+dir+small < 13 {
		t.Fatalf("meta of only %d+%d+%d pages; the test needs a large one", dict, dir, small)
	}
	rng := rand.New(rand.NewSource(8))
	rewrite := func(id uint32) {
		t.Helper()
		if err := s.Rewrite(randomRecord(rng, id, 8+rng.Intn(40))); err != nil {
			t.Fatal(err)
		}
	}
	// The first record after the build opens a fresh append page behind the
	// meta chains; from then on commits are in place.
	rewrite(0)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	pages := main.NumPages()
	for i, id := range []uint32{0, 2500, 4999, 1234, 1235, 3777} {
		main.writes = 0
		rewrite(id)
		s.SetStat("round", int64(i))
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		// Record page, directory block, small section, header: 4. A record
		// that spills onto a second page makes 5.
		if main.writes > 6 {
			t.Errorf("re-pointing document %d wrote %d pages of docs.db, want <= 6", id, main.writes)
		}
	}
	if got := main.NumPages(); got > pages+1 {
		t.Errorf("six one-document commits grew the file from %d to %d pages", pages, got)
	}
	main.writes = 0
	s.SetStat("round", 5)                       // no change
	s.SetBlob("mvcc", make([]byte, 3000))       // no change
	s.SetCatalog("maxgap", s.Catalog("maxgap")) // no change
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if main.writes != 0 {
		t.Errorf("a Flush with nothing changed wrote %d pages", main.writes)
	}
	// Names alone: the dictionary's tail page and the header.
	s.Dict().Intern("one-more-label")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if main.writes != 2 {
		t.Errorf("interning one name wrote %d pages, want 2 (dictionary tail, header)", main.writes)
	}
}

// Entries that grow wider than their block's slack force a re-layout of the
// directory from that block on; entries and order must survive it, and the
// blocks behind it stay where they are.
func TestDirectoryBlockOverflow(t *testing.T) {
	main, journalFile := pager.NewMemFile(), pager.NewMemFile()
	s := bigStore(t, main, journalFile, 6000, 10)
	_, dir, _ := sectionPages(s)
	if dir < 3 {
		t.Fatalf("directory of %d pages; want a block between two others", dir)
	}
	// Widen 200 entries of the middle block: records of several pages have
	// lengths that take more varint bytes.
	rng := rand.New(rand.NewSource(9))
	want := imageOf(t, s)
	first, headPage := uint32(s.meta.blockStart[1]), s.meta.sections[secDir].pages[0]
	nextBlock := s.meta.blockStart[2]
	headBefore := memImage(t, main)[headPage]
	for id := first; id < first+200; id++ {
		rec := randomRecord(rng, id, 3000)
		if err := s.Rewrite(rec); err != nil {
			t.Fatal(err)
		}
		want.Records[id] = rec
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.meta.blockStart[2] >= nextBlock {
		t.Errorf("the middle block still ends at document %d after 200 of its entries grew; the test meant to overflow it", nextBlock)
	}
	if !bytes.Equal(memImage(t, main)[headPage], headBefore) {
		t.Error("the block before the overflowing one was rewritten")
	}
	re := openJournaled(t, main, journalFile, false)
	if got := imageOf(t, re); !reflect.DeepEqual(got, want) {
		t.Fatal("store differs after a directory re-layout")
	}
}

func memImage(t testing.TB, f pager.File) [][]byte {
	t.Helper()
	var img [][]byte
	for id := uint32(0); id < f.NumPages(); id++ {
		buf := make([]byte, pager.PageSize)
		if err := f.ReadPage(pager.PageID(id), buf); err != nil {
			t.Fatal(err)
		}
		img = append(img, buf)
	}
	return img
}

func memFromImage(t testing.TB, img [][]byte) *pager.MemFile {
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

// The crash sweep over a sectioned flush: one commit that touches every
// section — two directory blocks, a new record, a dictionary that grows onto a
// new chain page, the small section — cut at every write ordinal. The
// reopened store is the pre-image or the post-image as a whole: never new
// directory entries with the old dictionary, or a header that counts names
// the chain does not hold.
func TestCrashSweepSectionedFlush(t *testing.T) {
	baseMain, baseJournal := pager.NewMemFile(), pager.NewMemFile()
	bigStore(t, baseMain, baseJournal, 3000, 1500)
	mainImg, journalImg := memImage(t, baseMain), memImage(t, baseJournal)

	mutate := func(s *Store) error {
		rng := rand.New(rand.NewSource(10))
		for _, id := range []uint32{3, 2990} {
			if err := s.Rewrite(randomRecord(rng, id, 30)); err != nil {
				return err
			}
		}
		if err := s.Put(randomRecord(rng, uint32(s.NumDocs()), 30)); err != nil {
			return err
		}
		for i := 0; i < 700; i++ {
			s.Dict().Intern(fmt.Sprintf("grown-label-%05d", i))
		}
		s.SetBlob("mvcc", []byte("shorter now"))
		s.SetStat("docs", 3001)
		return s.Flush()
	}

	pre := imageOf(t, openJournaled(t, memFromImage(t, mainImg), memFromImage(t, journalImg), false))
	var post storeImage
	var main, journalFile *pager.MemFile
	run := func(t *testing.T, k int64, clock *pager.PowerClock) error {
		main, journalFile = memFromImage(t, mainImg), memFromImage(t, journalImg)
		ffMain, ffJournal := pager.NewFaultFile(main), pager.NewFaultFile(journalFile)
		ffMain.SetPowerClock(clock)
		ffJournal.SetPowerClock(clock)
		s, err := tryOpenJournaled(ffMain, ffJournal, false)
		if err != nil {
			return err
		}
		// The store is closed after its commit, so the sweep has a write
		// point past the commit's last sync: the cut there finds the post
		// image.
		if k > 0 {
			if err := mutate(s); err != nil {
				return err
			}
			return s.BufferPool().Close()
		}
		before, _, _ := sectionPages(s)
		if err := mutate(s); err != nil {
			return err
		}
		if after, _, _ := sectionPages(s); after <= before {
			t.Fatalf("dictionary chain stayed at %d pages; the commit was meant to grow it", after)
		}
		post = imageOf(t, s)
		return s.BufferPool().Close()
	}
	sawPre, sawPost := false, false
	pagertest.Sweep(t, 20, pagertest.TearEvery(3, 509), run, func(t *testing.T, k int64) {
		re, err := tryOpenJournaled(main, journalFile, false)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		switch got := imageOf(t, re); {
		case reflect.DeepEqual(got, pre):
			sawPre = true
		case reflect.DeepEqual(got, post):
			sawPost = true
		default:
			t.Fatalf("reopened store (%d docs, %d names) is neither the pre- nor the post-image", len(got.Records), len(got.Names))
		}
	})
	if !sawPre || !sawPost {
		t.Errorf("sweep saw pre=%v post=%v; want both", sawPre, sawPost)
	}
}

// A chain page that no longer reads is replaced in its chain by the flush
// that rewrites it, instead of refusing every later commit.
func TestFlushReplacesUnreadableChainPage(t *testing.T) {
	main, journalFile := pager.NewMemFile(), pager.NewMemFile()
	s := bigStore(t, main, journalFile, 3000, 10)
	want := imageOf(t, s)
	victim := s.meta.sections[secDir].pages[1]
	if err := s.bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	if err := pager.FlipBit(main, victim, (pager.PageHeaderSize+9)*8); err != nil {
		t.Fatal(err)
	}
	first := uint32(s.meta.blockStart[1])
	rec := randomRecord(rand.New(rand.NewSource(11)), first, 20)
	if err := s.Rewrite(rec); err != nil {
		t.Fatal(err)
	}
	want.Records[first] = rec
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.PageReferenced(victim) {
		t.Errorf("corrupt page %d is still referenced", victim)
	}
	re := openJournaled(t, main, journalFile, false)
	if got := imageOf(t, re); !reflect.DeepEqual(got, want) {
		t.Fatal("store differs after a chain page was replaced")
	}
}

func BenchmarkStoreFlushOneDoc(b *testing.B) {
	main := &writeCounter{File: pager.NewMemFile()}
	s := bigStore(b, main, pager.NewMemFile(), 5000, 5000)
	rng := rand.New(rand.NewSource(12))
	recs := make([]*Record, 64)
	for i := range recs {
		recs[i] = randomRecord(rng, uint32(rng.Intn(5000)), 8+rng.Intn(40))
	}
	main.writes = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Rewrite(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(main.writes)/float64(b.N), "pages/op")
}

// RepairMetaPage rewrites a corrupt header or meta chain page of an opened
// store, which keeps no frame of its chain pages, from what the store holds
// decoded: a middle page of every chain and then the header, each repaired
// back to exactly the bytes it had. A record page is not its to repair.
func TestRepairMetaPage(t *testing.T) {
	main, journalFile := pager.NewMemFile(), pager.NewMemFile()
	bigStore(t, main, journalFile, 5000, 5000)
	s := openJournaled(t, main, journalFile, false)
	if got := s.bp.Stats().Resident; got != 1 {
		t.Fatalf("Open keeps %d frames, want the header alone", got)
	}
	pageImage := func(id pager.PageID) []byte {
		buf := make([]byte, pager.PageSize)
		if err := main.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	victims := []pager.PageID{0}
	for i := range s.meta.sections {
		pages := s.meta.sections[i].pages
		if len(pages) < 2 && i != secShapes && i != secSmall {
			t.Fatalf("meta %s has %d pages; the test wants a middle one", sectionNames[i], len(pages))
		}
		victims = append(victims, pages[len(pages)/2])
	}
	for _, id := range victims {
		want := pageImage(id)
		s.bp.DropClean()
		if err := pager.FlipBit(main, id, (pager.PageHeaderSize+30)*8+1); err != nil {
			t.Fatal(err)
		}
		if ok, err := s.RepairMetaPage(id); !ok || err != nil {
			t.Fatalf("RepairMetaPage(%d) = %v, %v", id, ok, err)
		}
		if err := s.bp.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if got := pageImage(id); !bytes.Equal(got, want) {
			t.Errorf("page %d repaired to other bytes", id)
		}
	}
	rec := s.dir[0].page
	if ok, err := s.RepairMetaPage(rec); ok || err != nil {
		t.Errorf("RepairMetaPage of record page %d = %v, %v", rec, ok, err)
	}
}
