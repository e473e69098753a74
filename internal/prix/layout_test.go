package prix

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/pager"
	"repro/internal/twig"
	"repro/internal/vtrie"
	"repro/internal/xmltree"
)

// Tests of the single postings tree: key-prefix ranges at their boundaries,
// the one build path, the size it buys, the layout stamp, and the posted set
// that keeps empty levels free.

// levelScan runs one Algorithm-1 range query (ql, qr] for sym exactly as a
// query level would, hot list or paged tree, serial or with readahead.
func levelScan(t *testing.T, ix *Index, sym vtrie.Symbol, ql, qr uint64, par int) []hit {
	t.Helper()
	p := &plan{levels: []levelSource{{tree: ix.postings, sym: sym}}}
	p.levels[0].hot, p.levels[0].resident = ix.hotPostings(sym)
	sc := getScratch()
	sc.levels(1)
	defer putScratch(sc)
	hits, err := scanLevel(p, 0, ql, qr, &QueryStats{}, sc, par, nil)
	if err != nil {
		t.Fatal(err)
	}
	return append([]hit(nil), hits...)
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
	for _, ix := range []*Index{cold, hotIx} {
		for _, sym := range []vtrie.Symbol{0, 1, 2, last - 1, last} {
			for _, left := range []uint64{0, 1, math.MaxUint64 - 1, math.MaxUint64} {
				if err := ix.insertPosting(vtrie.Posting{Symbol: sym, Left: left, Right: left, Level: 99}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	model := map[vtrie.Symbol][]hit{}
	err := cold.postings.Scan(nil, nil, true, true, func(k, v []byte) bool {
		sym, left := decodePostingKey(k)
		right, level := decodePosting(v)
		model[sym] = append(model[sym], hit{left, right, level})
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
// once brings the directory to 2.89x, 4.24x and 4.12x (TREEBANK's deep
// trees rarely share a shape). Each bound is that ratio plus 10 %.
func TestIndexSizeBound(t *testing.T) {
	for _, c := range []struct {
		ds    *datagen.Dataset
		bound float64
	}{{datagen.DBLP(1, 1), 3.17}, {datagen.SwissProt(1, 1), 4.66}, {datagen.Treebank(1, 1), 4.54}} {
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
		if ratio := float64(size) / float64(xml); ratio > c.bound {
			t.Errorf("%s: %s + %s are %d bytes for %d bytes of XML (%.2fx, want <= %.2fx)",
				ds.Name, ForestFileName, DocsFileName, size, xml, ratio, c.bound)
		}
	}
}

// A directory in the per-symbol layout has no layout stamp and no postings
// tree; one in layout 2 carries stamp 2 and a PRIXDOC2 docs.db (records with
// their own NPS and leaves, a per-document structure sidecar). Each is
// reproduced here from a fresh build and must fail Open and OpenDynamic with
// ErrOldLayout, not open as an index that matches nothing.
func TestOldLayoutRefused(t *testing.T) {
	tamper := map[string]func(ix *Index){
		"no stamp": func(ix *Index) {
			ix.store.SetStat(layoutStatName, 0)
		},
		"layout 2": func(ix *Index) {
			ix.store.SetStat(layoutStatName, 2)
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
			if err := di.Close(); err != nil {
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

// slotPostings rewrites the closed index in dir with every tree slotted, the
// postings tree as builds wrote it before fixed-width leaves: each tree's
// entries are copied out and bulk-loaded into a reset forest.
func slotPostings(t *testing.T, dir string) {
	t.Helper()
	ix, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := ix.forest.Names()
	entries := make([][][2][]byte, len(names))
	for i, name := range names {
		err := ix.forest.Lookup(name).Scan(nil, nil, true, true, func(k, v []byte) bool {
			entries[i] = append(entries[i], [2][]byte{bytes.Clone(k), bytes.Clone(v)})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ix.forest.Reset()
	for i, name := range names {
		tr, err := ix.forest.Tree(name)
		if err != nil {
			t.Fatal(err)
		}
		rest := entries[i]
		err = tr.BulkLoad(func() ([]byte, []byte, error) {
			if len(rest) == 0 {
				return nil, nil, io.EOF
			}
			e := rest[0]
			rest = rest[1:]
			return e[0], e[1], nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.forest.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

// diffAnswers runs every differential shape on ix, ordered: Match for the
// exact shapes, MatchExhaustive for the others.
func diffAnswers(t *testing.T, ix *Index) [][]Match {
	t.Helper()
	var out [][]Match
	for _, sh := range diffShapes {
		match := ix.Match
		if !sh.exact {
			match = ix.MatchExhaustive
		}
		ms, _, err := match(twig.MustParse(sh.src), MatchOptions{WarmCache: true})
		if err != nil {
			t.Fatalf("%s: %v", sh.src, err)
		}
		out = append(out, ms)
	}
	return out
}

// A directory written before fixed-width postings leaves has a slotted `post`
// tree. Pages name their own codec, so it needs no layout change to serve:
// twin dynamic indexes, one of them rewritten that way, must answer every
// differential shape identically through Open, OpenDynamic, dynamic inserts
// that split slotted leaves, and a RepairForest (which rebuilds the postings
// fixed-width).
func TestSlottedPostingsTreeStillServes(t *testing.T) {
	docs := parallelCorpus()
	dirs := [2]string{t.TempDir(), t.TempDir()} // fixed, then slotted
	for _, dir := range dirs {
		di, err := NewDynamicIndex(docs[:25], Options{Extended: true, Dir: dir}, DynamicOptions{Alpha: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := di.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := di.Close(); err != nil {
			t.Fatal(err)
		}
	}
	slotPostings(t, dirs[1])
	leaves := func(ix *Index) (string, int) {
		s, err := ix.postings.Shape()
		if err != nil {
			t.Fatal(err)
		}
		return s.LeafFormat, s.Pages[len(s.Pages)-1]
	}
	same := func(stage string, fixed, slotted *Index, wantFormat string) {
		t.Helper()
		if f, _ := leaves(fixed); f != "fixed 12+12" {
			t.Fatalf("%s: fresh index has %q postings leaves", stage, f)
		}
		if f, _ := leaves(slotted); f != wantFormat {
			t.Fatalf("%s: rewritten index has %q postings leaves, want %q", stage, f, wantFormat)
		}
		if errs := slotted.forest.Check(); len(errs) > 0 {
			t.Fatalf("%s: %v", stage, errs[0])
		}
		if !reflect.DeepEqual(diffAnswers(t, fixed), diffAnswers(t, slotted)) {
			t.Fatalf("%s: answers differ between the fixed and the slotted postings tree", stage)
		}
	}

	var ixs [2]*Index
	for i, dir := range dirs {
		ix, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ixs[i] = ix
	}
	same("Open", ixs[0], ixs[1], "slotted")
	for _, ix := range ixs {
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}

	var dis [2]*DynamicIndex
	for i, dir := range dirs {
		di, err := OpenDynamic(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer di.Close()
		dis[i] = di
	}
	same("OpenDynamic", dis[0].Index(), dis[1].Index(), "slotted")
	_, before := leaves(dis[1].Index())
	for _, doc := range docs[25:] {
		for _, di := range dis {
			if err := di.Insert(doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, after := leaves(dis[1].Index()); after <= before {
		t.Fatalf("inserts split no slotted leaf (%d leaves before, %d after)", before, after)
	}
	same("Insert", dis[0].Index(), dis[1].Index(), "slotted")
	for _, di := range dis {
		if _, err := di.RepairForest(); err != nil {
			t.Fatal(err)
		}
	}
	same("RepairForest", dis[0].Index(), dis[1].Index(), "fixed 12+12")
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
		xmltree.MustFromSExpr(0, `(a (b (c)))`),
		xmltree.MustFromSExpr(1, `(a (c))`),
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
	if _, err := di.Update(1, xmltree.MustFromSExpr(1, `(a (c (b)))`)); err != nil {
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
