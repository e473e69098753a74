package prix

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/btree"
	"repro/internal/datagen"
	"repro/internal/docstore"
	"repro/internal/hot"
	"repro/internal/pager"
	"repro/internal/twig"
	"repro/internal/vtrie"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

// Tests of the single postings tree: key-prefix ranges at their boundaries,
// the one build path, the size it buys, the layout stamp, and the posted set
// that keeps empty levels free.

// levelScan runs one Algorithm-1 range query (ql, qr] for sym exactly as a
// query level would, hot leaf images or paged tree, serial or with readahead.
func levelScan(t *testing.T, ix *Index, sym vtrie.Symbol, ql, qr uint64, par int) []hit {
	t.Helper()
	p := &plan{levels: []levelSource{{tree: ix.postings, sym: sym}}}
	lo, hi := symRange(sym)
	p.levels[0].run, p.levels[0].resident = ix.hotRun(ix.postings, hot.KindPostings, lo, hi, &p.images)
	sc := getScratch()
	sc.levels(1)
	defer putScratch(sc)
	hits, err := scanLevel(p, 0, ql, qr, &QueryStats{}, sc, par, nil)
	if err != nil {
		t.Fatal(err)
	}
	return append([]hit(nil), hits...)
}

// plantPostings replaces ix's postings tree with a fresh packed one holding
// its postings plus planted: a static index's postings are bulk-loaded once
// and take no inserts.
func plantPostings(t *testing.T, ix *Index, planted []vtrie.Posting) {
	t.Helper()
	var all []vtrie.Posting
	err := ix.postings.ScanPostings(nil, nil, true, true, func(sym uint32, left, right uint64, level uint32) bool {
		all = append(all, vtrie.Posting{Symbol: vtrie.Symbol(sym), Left: left, Right: right, Level: level})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, planted...)
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Symbol != all[j].Symbol {
			return all[i].Symbol < all[j].Symbol
		}
		return all[i].Left < all[j].Left
	})
	tree, err := ix.forest.PackedTree("post-planted")
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	err = tree.BulkLoad(btree.Fill{}, func() ([]byte, []byte, error) {
		if next == len(all) {
			return nil, nil, io.EOF
		}
		p := all[next]
		next++
		key := postingKey(p.Symbol, p.Left)
		var val [postingValLen]byte
		putPosting(&val, p.Right, p.Level)
		return key[:], val[:], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ix.postings = tree
	for _, p := range planted {
		ix.markPosted(p.Symbol)
	}
	ix.hotInvalidateAll()
}

// One symbol's list is a key-prefix range, so the neighbours in key order are
// other symbols' entries: (s, MaxUint64) sits directly before (s+1, 0). Every
// symbol of a real corpus — the first interned, the last, each adjacent pair
// — plus planted postings at LeftPos 0 and MaxUint64 must scan to exactly the
// model's answer, the same from the hot list and the paged tree, serial and
// with the spawning descent's prefetch.
func TestPostingRangesAtPrefixBoundaries(t *testing.T) {
	docs := parallelCorpus()
	cold := build(t, true, docs...)
	hotIx := buildHot(t, true, 16<<20, docs...)
	defer cold.Close()
	defer hotIx.Close()
	last := vtrie.Symbol(cold.store.Dict().Len() - 1)
	var planted []vtrie.Posting
	for _, sym := range []vtrie.Symbol{0, 1, 2, last - 1, last} {
		for _, left := range []uint64{0, 1, math.MaxUint64 - 1, math.MaxUint64} {
			planted = append(planted, vtrie.Posting{Symbol: sym, Left: left, Right: left, Level: 99})
		}
	}
	for _, ix := range []*Index{cold, hotIx} {
		plantPostings(t, ix, planted)
	}
	model := map[vtrie.Symbol][]hit{}
	err := cold.postings.ScanPostings(nil, nil, true, true, func(sym uint32, left, right uint64, level uint32) bool {
		model[vtrie.Symbol(sym)] = append(model[vtrie.Symbol(sym)], hit{left, right, level})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	posted := 0
	for sym := vtrie.Symbol(0); sym <= last; sym++ {
		if cold.posted.has(sym) {
			posted++
		}
	}
	if len(model) != posted {
		t.Fatalf("%d symbols have postings, posted set says %d", len(model), posted)
	}
	for sym := vtrie.Symbol(0); sym <= last; sym++ {
		ranges := [][2]uint64{{0, math.MaxUint64}, {0, 0}, {0, 1}, {math.MaxUint64 - 1, math.MaxUint64}, {math.MaxUint64, math.MaxUint64}}
		for _, h := range model[sym] {
			ranges = append(ranges, [2]uint64{h.left, h.right})
			if h.left > 0 {
				ranges = append(ranges, [2]uint64{h.left - 1, h.left})
			}
		}
		for _, r := range ranges {
			var want []hit
			for _, h := range model[sym] {
				if r[0] < h.left && h.left <= r[1] {
					want = append(want, h)
				}
			}
			for _, par := range []int{1, 4} {
				if got := levelScan(t, cold, sym, r[0], r[1], par); !reflect.DeepEqual(got, want) {
					t.Fatalf("paged sym %d (%d, %d] par %d: %d hits, model %d", sym, r[0], r[1], par, len(got), len(want))
				}
				if got := levelScan(t, hotIx, sym, r[0], r[1], par); !reflect.DeepEqual(got, want) {
					t.Fatalf("hot sym %d (%d, %d] par %d: %d hits, model %d", sym, r[0], r[1], par, len(got), len(want))
				}
			}
		}
	}
}

// Finalize is FinalizeBulk with its chunks in memory, so an Add-built index
// and an AddSeq stream merged from many tiny spilled chunks are the same
// files byte for byte.
func TestFinalizeEqualsFinalizeBulk(t *testing.T) {
	ds := datagen.DBLP(1, 42)
	base := t.TempDir()
	plain, err := Build(ds.Docs, Options{Extended: true, Dir: filepath.Join(base, "a")})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(Options{Extended: true, Dir: filepath.Join(base, "b")})
	if err != nil {
		t.Fatal(err)
	}
	for i, doc := range ds.Docs {
		seq, err := Transform(uint32(i), doc, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.AddSeq(seq); err != nil {
			t.Fatal(err)
		}
	}
	bulk, err := b.FinalizeBulk(BulkOptions{MemBudget: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []*Index{plain, bulk} {
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{ForestFileName, DocsFileName} {
		a, err := os.ReadFile(filepath.Join(base, "a", name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(base, "b", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between Finalize (%d bytes) and FinalizeBulk (%d bytes)", name, len(a), len(b))
		}
	}
}

// With one tree per symbol every EPIndex value symbol cost a page: seq.idx
// was ~80x the XML on these corpora. One dense tree with packed leaves and
// fixed-width 24-byte cells brought seq.idx to DBLP 2.68x, SWISSPROT 3.68x
// and TREEBANK 3.23x; the whole directory (seq.idx + docs.db) stood at
// 3.32x, 4.48x and 4.12x while every document kept its NPS and leaves in
// its record and again in a forest sidecar. Storing each distinct shape
// once brought the directory to 2.89x, 4.24x and 4.12x (TREEBANK's deep
// trees rarely share a shape). Dense labels bit-packed into the postings
// leaves bring it to 1.14x, 1.78x and 2.12x, and the Docid tree's terminals
// bit-packed too to 0.991x, 1.658x and 2.117x (1.137x, 1.781x and 2.117x
// with slotted Docid leaves; TREEBANK's fit one leaf either way). Each bound
// is that ratio plus 5 %.
func TestIndexSizeBound(t *testing.T) {
	for _, c := range []struct {
		ds    *datagen.Dataset
		bound float64
	}{{datagen.DBLP(1, 1), 1.04}, {datagen.SwissProt(1, 1), 1.74}, {datagen.Treebank(1, 1), 2.22}} {
		ds, dir := c.ds, t.TempDir()
		ix, err := Build(ds.Docs, Options{Extended: true, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		var size int64
		for _, name := range []string{ForestFileName, DocsFileName} {
			info, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			size += info.Size()
		}
		xml := ds.Summarize().XMLBytes
		ratio := float64(size) / float64(xml)
		t.Logf("%s: %.3fx the XML", ds.Name, ratio)
		if ratio > c.bound {
			t.Errorf("%s: %s + %s are %d bytes for %d bytes of XML (%.2fx, want <= %.2fx)",
				ds.Name, ForestFileName, DocsFileName, size, xml, ratio, c.bound)
		}
	}
}

// A directory in the per-symbol layout has no layout stamp and no postings
// tree; one in layout 2 carries stamp 2 and a PRIXDOC2 docs.db (records with
// their own NPS and leaves, a per-document structure sidecar); one in layout
// 3 carries stamp 3 and may hold fixed-width or slotted postings and Docid
// leaves. A dynamic index of layout 4 that an older build wrote carries the
// stats its labeler was replayed with, spread labels in its postings and a
// label order in its version map. Each is reproduced here from a fresh build
// and must fail Open and OpenDynamic with ErrOldLayout, not open as an index
// that matches nothing or chains onto labels it does not own, and Open's
// error names a stamp it refuses.
func TestOldLayoutRefused(t *testing.T) {
	tamper := map[string]func(ix *Index){
		"no stamp": func(ix *Index) {
			ix.store.SetStat(layoutStatName, 0)
		},
		"layout 2": func(ix *Index) {
			ix.store.SetStat(layoutStatName, 2)
		},
		"layout 3": func(ix *Index) {
			ix.store.SetStat(layoutStatName, 3)
		},
		"labeler stats": func(ix *Index) {
			ix.store.SetStat("alpha", 2)
			ix.store.SetStat("spread", 1<<20)
			ix.store.SetStat("prepared", 6)
		},
		"no postings tree": func(ix *Index) {
			ix.forest.Reset()
			for _, name := range []string{docidTreeName, shapeTreeName, "s0", "s1"} {
				if _, err := ix.forest.Tree(name); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	for name, damage := range tamper {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			di, err := NewDynamicIndex(parallelCorpus()[:6], Options{Extended: true, Dir: dir}, DynamicOptions{Alpha: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := di.Flush(); err != nil { // stamps the layout
				t.Fatal(err)
			}
			damage(di.ix)
			if err := di.ix.store.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := di.ix.forest.Flush(); err != nil {
				t.Fatal(err)
			}
			// The bare Index's Close: DynamicIndex.Close restages the
			// catalogs, the stamp with them.
			if err := di.ix.Close(); err != nil {
				t.Fatal(err)
			}
			_, err = Open(dir, Options{})
			if !errors.Is(err, ErrOldLayout) {
				t.Fatalf("Open = %v, want ErrOldLayout", err)
			}
			if n := strings.Count(err.Error(), "prix:"); n != 1 {
				t.Errorf("Open = %q, want the prix: prefix once, not %d times", err, n)
			}
			if stamp, ok := strings.CutPrefix(name, "layout "); ok && !strings.Contains(err.Error(), "layout "+stamp+", this build reads 4") {
				t.Errorf("Open = %v, want the error to name stamp %s and this build's 4", err, stamp)
			}
			if _, err := OpenDynamic(dir, Options{}); !errors.Is(err, ErrOldLayout) {
				t.Errorf("OpenDynamic = %v, want ErrOldLayout", err)
			}
		})
	}
	t.Run("PRIXDOC2 store", func(t *testing.T) {
		dir := buildOnDisk(t, true, parallelCorpus()[:6])
		path := filepath.Join(dir, DocsFileName)
		f, err := pager.OpenOSFile(path)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, pager.PageSize)
		if err := f.ReadPage(0, buf); err != nil {
			t.Fatal(err)
		}
		copy(buf[pager.PageHeaderSize:], "PRIXDOC2")
		pager.SealPage(0, buf)
		if err := f.WritePage(0, buf); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); !errors.Is(err, ErrOldLayout) {
			t.Errorf("Open = %v, want ErrOldLayout", err)
		}
		if _, err := OpenDynamic(dir, Options{}); !errors.Is(err, ErrOldLayout) {
			t.Errorf("OpenDynamic = %v, want ErrOldLayout", err)
		}
	})
}

// closeCounter is a pager.File that counts its Close calls in closed.
type closeCounter struct {
	pager.File
	closed *int
}

func (f closeCounter) Close() error {
	*f.closed++
	return f.File.Close()
}

// An Open that fails after it opened its page files must close every one of
// them, the two page files and their journal: a forest directory page that
// fails its checksum (btree.Open), a version map that does not decode, and a
// layout stamp this build does not read. Each is done to a fresh dynamic
// index with a delete in its version map.
func TestFailedOpenClosesFiles(t *testing.T) {
	damage := map[string]func(t *testing.T, dir string){
		"forest directory": func(t *testing.T, dir string) {
			f, err := pager.OpenOSFile(filepath.Join(dir, ForestFileName))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			buf := make([]byte, pager.PageSize)
			if err := f.ReadPage(0, buf); err != nil {
				t.Fatal(err)
			}
			buf[pager.PageHeaderSize+len("PRIXFST1")] ^= 0xFF
			if err := f.WritePage(0, buf); err != nil {
				t.Fatal(err)
			}
		},
		"version map": func(t *testing.T, dir string) {
			editStore(t, dir, func(store *docstore.Store) { store.SetBlob(VersionsBlobName, []byte("not a version map")) })
		},
		"layout 3": func(t *testing.T, dir string) {
			editStore(t, dir, func(store *docstore.Store) { store.SetStat(layoutStatName, 3) })
		},
	}
	for name, damage := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			di, err := NewDynamicIndex(parallelCorpus()[:6], Options{Extended: true, Dir: dir}, DynamicOptions{Alpha: 2})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := di.Delete(1); err != nil {
				t.Fatal(err)
			}
			if err := di.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := di.Close(); err != nil {
				t.Fatal(err)
			}
			damage(t, dir)
			opened, closed := 0, 0
			_, err = Open(dir, Options{OpenFile: func(path string) (pager.File, error) {
				f, err := pager.OpenOSFilePadded(path)
				if err != nil {
					return nil, err
				}
				opened++
				return closeCounter{f, &closed}, nil
			}})
			if err == nil {
				t.Fatal("Open of the damaged index succeeded")
			}
			if opened != 3 || closed != opened {
				t.Errorf("Open = %v: opened %d files, closed %d, want 3 and 3", err, opened, closed)
			}
		})
	}
}

// editStore applies edit to the closed index in dir's document store and
// commits it.
func editStore(t *testing.T, dir string, edit func(store *docstore.Store)) {
	t.Helper()
	f, err := pager.OpenOSFile(filepath.Join(dir, DocsFileName))
	if err != nil {
		t.Fatal(err)
	}
	bp := pager.NewBufferPool(f, 64)
	store, err := docstore.Open(bp)
	if err != nil {
		t.Fatal(err)
	}
	edit(store)
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bp.Close(); err != nil {
		t.Fatal(err)
	}
}

// A docs.db written before the sectioned meta carries the magic PRIXDOC1 and
// one re-encoded run of meta pages this build has no reader for. The magic is
// what Open goes by: stamped onto a fresh store, it must surface as
// ErrOldLayout, not as a corrupt header.
func TestOldStoreMagicRefused(t *testing.T) {
	dir := t.TempDir()
	di, err := NewDynamicIndex(parallelCorpus()[:6], Options{Extended: true, Dir: dir}, DynamicOptions{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := di.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := pager.OpenOSFile(filepath.Join(dir, DocsFileName))
	if err != nil {
		t.Fatal(err)
	}
	bp := pager.NewBufferPool(f, 4)
	p, err := bp.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	copy(p.Data, "PRIXDOC1")
	p.Unpin(true)
	if err := bp.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrOldLayout) {
		t.Errorf("Open = %v, want ErrOldLayout", err)
	}
	if _, err := OpenDynamic(dir, Options{}); !errors.Is(err, ErrOldLayout) {
		t.Errorf("OpenDynamic = %v, want ErrOldLayout", err)
	}
}

// A query level whose symbol heads no posting is known empty from the posted
// set: it issues no range query (the per-symbol layout knew from the missing
// tree). The set must survive a reopen, and a symbol first posted by an
// Update must be in it after that mutation's own commits — without a Flush —
// or the reopened index would skip a list the tree holds.
func TestUnpostedLevelIssuesNoRangeQuery(t *testing.T) {
	dir := t.TempDir()
	docs := []*xmltree.Document{
		xmltreetest.MustFromSExpr(0, `(a (b (c)))`),
		xmltreetest.MustFromSExpr(1, `(a (c))`),
	}
	di, err := NewDynamicIndex(docs, Options{Dir: dir}, DynamicOptions{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := di.Flush(); err != nil {
		t.Fatal(err)
	}
	check := func(di *DynamicIndex, src string, wantMatches int, wantRangeQueries bool) {
		t.Helper()
		ms, stats, err := di.Match(twig.MustParse(src), MatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != wantMatches || (stats.RangeQueries > 0) != wantRangeQueries {
			t.Errorf("%s: %d matches, %d range queries; want %d matches, range queries: %v",
				src, len(ms), stats.RangeQueries, wantMatches, wantRangeQueries)
		}
	}
	// c only ever labels leaves of a Regular-Prüfer tree: in the dictionary,
	// never in an LPS.
	check(di, `//c/b`, 0, false)
	check(di, `//b/c`, 1, true)
	if _, err := di.Update(1, xmltreetest.MustFromSExpr(1, `(a (c (b)))`)); err != nil {
		t.Fatal(err)
	}
	check(di, `//c/b`, 1, true)
	if err := di.Close(); err != nil { // no Flush: the Update's commits alone
		t.Fatal(err)
	}
	di, err = OpenDynamic(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	check(di, `//c/b`, 1, true)
	check(di, `//b/a`, 0, true)
	if sym, ok := LookupSymbol(di.ix.store.Dict(), "b", false); !ok || !di.ix.posted.has(sym) {
		t.Error("posted set lost b across the reopen")
	}
}

// BenchmarkMatchPaged is BenchmarkMatchResident without the tier: the two
// planted SWISSPROT twigs with real descents (Q5, Q6) through a warm 64-page
// pool, where every range query pins pages of the one postings tree.
func BenchmarkMatchPaged(b *testing.B) {
	ix, queries := pagedSwissprot(b)
	for _, qs := range queries[1:3] {
		q := qs.Query()
		b.Run(qs.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ms, _, err := ix.Match(q, residentOpts)
				if err != nil || len(ms) != qs.Want {
					b.Fatalf("matches = %d, %v; want %d", len(ms), err, qs.Want)
				}
			}
		})
	}
}
