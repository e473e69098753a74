package prix

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/pager"
	"repro/internal/pager/pagertest"
	"repro/internal/twig"
	"repro/internal/vtrie"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

// residencyCorpus is parallelCorpus's alphabet over enough documents that the
// index spans a few hundred pages, so a pool that kept what the tier's builds
// read would be unmistakable next to the handful Open decodes.
func residencyCorpus() []*xmltree.Document {
	rng := rand.New(rand.NewSource(11))
	docs := make([]*xmltree.Document, 4000)
	for i := range docs {
		docs[i] = xmltreetest.RandomDocument(rng, i, xmltreetest.RandomConfig{
			Nodes:     30,
			Alphabet:  []string{"a", "b", "c", "d", "e"},
			MaxFanout: 4,
			ValueProb: 0.3,
			Values:    []string{"x", "y"},
		})
	}
	return docs
}

// buildOnDisk builds an index into a fresh directory and closes it.
func buildOnDisk(t *testing.T, extended bool, docs []*xmltree.Document) string {
	t.Helper()
	dir := t.TempDir()
	ix, err := Build(docs, Options{Extended: extended, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func openT(t *testing.T, dir string, opts Options) *Index {
	t.Helper()
	ix, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// poolResident is the frames both of an index's pools hold.
func poolResident(ix *Index) uint64 {
	return ix.Forest().BufferPool().Stats().Resident + ix.Store().BufferPool().Stats().Resident
}

// openDecodedPages is what a tier-less Open of a built index leaves in its
// pools: the forest directory page and the docs.db header page. The meta
// chains behind the header — dictionary, shapes, directory, catalogs — are
// decoded into resident form as they are walked, without keeping their pages.
const openDecodedPages = 2

// pageReadCounter counts the physical reads of each page of one file.
type pageReadCounter struct {
	pager.File
	mu    sync.Mutex
	reads map[pager.PageID]int
}

func (f *pageReadCounter) ReadPage(id pager.PageID, buf []byte) error {
	f.mu.Lock()
	f.reads[id]++
	f.mu.Unlock()
	return f.File.ReadPage(id, buf)
}

// TestOpenReadsMetaOnce pins the one-read rule for docs.db: Open reads the
// header, every meta chain page and every record page from disk exactly once
// — a chain is decoded while it is walked, not walked and then read again —
// and keeps only the header as a frame.
func TestOpenReadsMetaOnce(t *testing.T) {
	dir := buildOnDisk(t, true, residencyCorpus())
	docs := &pageReadCounter{reads: map[pager.PageID]int{}}
	ix := openT(t, dir, Options{OpenFile: func(path string) (pager.File, error) {
		f, err := pager.OpenOSFilePadded(path)
		if err != nil || filepath.Base(path) != DocsFileName {
			return f, err
		}
		docs.File = f
		return docs, nil
	}})
	meta := 0
	for _, sec := range ix.Store().MetaSections() {
		if sec.Pages < 1 {
			t.Errorf("meta %s has no pages", sec.Name)
		}
		meta += sec.Pages
	}
	// A fresh build leaves no unreferenced page, so every page of the file is
	// the header, a meta page or a record page.
	if n := docs.NumPages(); len(docs.reads) != int(n) || meta < 4 {
		t.Errorf("Open read %d distinct pages of %d (%d meta pages)", len(docs.reads), n, meta)
	}
	for id, n := range docs.reads {
		if n != 1 {
			t.Errorf("Open read docs.db page %d %d times", id, n)
		}
	}
	if got := ix.Store().BufferPool().Stats().Resident; got != 1 {
		t.Errorf("Open keeps %d docs.db frames, want the header alone", got)
	}
}

// TestHotBuildsLeaveNoFrames pins the no-fill rule: an index opened with a
// hot-tier budget above its size holds in its pools only the pages Open itself
// decodes — every page the tier's preload read was copied into the tier and
// not also kept as a frame — and it answers the differential shapes with zero
// physical reads, byte-identical to a tier-less Open and to a tier built the
// way it was before the rule (from frames holding every page).
func TestHotBuildsLeaveNoFrames(t *testing.T) {
	dir := buildOnDisk(t, true, residencyCorpus())
	plain := openT(t, dir, Options{})
	tiered := openT(t, dir, Options{HotBudget: 1 << 30})

	// The tier as it was built when every build read through Get: open
	// tier-less, pull every page of both files into the pools, then preload.
	filled := openT(t, dir, Options{})
	for _, bp := range []*pager.BufferPool{filled.Forest().BufferPool(), filled.Store().BufferPool()} {
		for id := uint32(0); id < bp.File().NumPages(); id++ {
			p, err := bp.Get(pager.PageID(id))
			if err != nil {
				t.Fatal(err)
			}
			p.Unpin(false)
		}
	}
	filled.opts.HotBudget = 1 << 30
	filled.initHot()
	filled.PreloadHot()

	pages := tiered.Forest().BufferPool().File().NumPages() + tiered.Store().BufferPool().File().NumPages()
	if pages < 200 {
		t.Fatalf("index spans %d pages; too small to tell residency apart", pages)
	}
	if got := poolResident(plain); got != openDecodedPages {
		t.Fatalf("tier-less Open leaves %d pages resident, want %d", got, openDecodedPages)
	}
	if got := poolResident(tiered); got != openDecodedPages {
		t.Errorf("Open with a whole-index tier leaves %d of %d pages resident, want the %d Open decodes",
			got, pages, openDecodedPages)
	}
	if n := tiered.Forest().BufferPool().Stats().NoFillReads; n == 0 {
		t.Error("the preload made no no-fill reads")
	}
	// Records share docs.db pages and a symbol's list shares post leaves:
	// the preload still reads each page at most once.
	if n := tiered.PagesRead(); n > uint64(pages) {
		t.Errorf("Open read %d pages from disk; the index has %d", n, pages)
	}
	if got, want := tiered.HotStats().Tier.Bytes, filled.HotStats().Tier.Bytes; got != want || got == 0 {
		t.Errorf("tier holds %d bytes, the frame-built tier %d", got, want)
	}

	before := tiered.PagesRead()
	for _, sh := range diffShapes {
		if raceEnabled && !raceResidencyShapes[sh.src] {
			continue
		}
		q := twig.MustParse(sh.src)
		opts := MatchOptions{WarmCache: true, Parallelism: 1}
		wantMS, wantStats, err := plain.Match(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		gotMS, gotStats, err := tiered.Match(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		fillMS, fillStats, err := filled.Match(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotMS, wantMS) || !reflect.DeepEqual(gotMS, fillMS) {
			t.Errorf("%s: matches diverge: tier %d, tier-less %d, frame-built tier %d",
				sh.src, len(gotMS), len(wantMS), len(fillMS))
		}
		if got, want := hotComparable(gotStats), hotComparable(wantStats); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stats %+v, tier-less %+v", sh.src, got, want)
		}
		gotStats.Elapsed, fillStats.Elapsed = 0, 0
		if !reflect.DeepEqual(gotStats, fillStats) {
			t.Errorf("%s: stats %+v, frame-built tier %+v", sh.src, gotStats, fillStats)
		}
	}
	if n := tiered.PagesRead() - before; n != 0 {
		t.Errorf("queries on a fully resident tier read %d pages from disk", n)
	}
	if got := poolResident(tiered); got != openDecodedPages {
		t.Errorf("after the queries %d pages are resident, want %d", got, openDecodedPages)
	}
}

// raceResidencyShapes are the diffShapes TestHotBuildsLeaveNoFrames queries
// under the race detector: one path, one value twig, one branch and one
// descendant edge, the four of smallest answer. The queries run one at a
// time (Parallelism 1), so the detector has nothing to race in them, only
// every load of the descent and its scans to check: the other five take
// ≈ 3 minutes under it on the 4,000-document corpus, ≈ 8 s without it.
var raceResidencyShapes = map[string]bool{`//a/b`: true, `//a[./b/c="x"]/d`: true, `//b[./c]`: true, `//a//d/e`: true}

// TestHotLazyRebuildLeavesNoFrames is the rule on the dynamic path: an Insert
// invalidates the lists it touched, and the query that rebuilds them reads the
// postings tree without filling the forest pool, while answering exactly like
// a tier-less twin that took the same Insert.
func TestHotLazyRebuildLeavesNoFrames(t *testing.T) {
	docs := residencyCorpus()[:400]
	// Each twin writes, so each gets its own copy of the files.
	dirs := []string{t.TempDir(), t.TempDir()}
	di, err := NewDynamicIndex(docs, Options{Extended: true, Dir: dirs[0]}, DynamicOptions{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := di.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := di.Index().Snapshot(dirs[1]); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	open := func(dir string, opts Options) *DynamicIndex {
		di, err := OpenDynamic(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { di.Close() })
		return di
	}
	// Both twins take the same Insert; the tiered one's clean frames are
	// then dropped, so a rebuild that filled the pool would show.
	plain, tiered := open(dirs[0], Options{}), open(dirs[1], Options{HotBudget: 1 << 30})
	extra := xmltreetest.MustFromSExpr(0, `(a (b (c "x")) (d (e)) (b (c)))`)
	for _, d := range []*DynamicIndex{plain, tiered} {
		if err := d.Insert(extra); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	tiered.Index().DropCaches()
	forest := tiered.Index().Forest().BufferPool()
	if got := forest.Stats().Resident; got != 0 {
		t.Fatalf("%d forest pages resident after dropping clean frames", got)
	}
	noFill := forest.Stats().NoFillReads
	for _, q := range hotE2EQueries() {
		wantMS, wantStats, err := plain.Match(q, MatchOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		gotMS, gotStats, err := tiered.Match(q, MatchOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotMS, wantMS) {
			t.Errorf("%s: tier %d matches, tier-less %d", q, len(gotMS), len(wantMS))
		}
		if got, want := hotComparable(gotStats), hotComparable(wantStats); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stats %+v, tier-less %+v", q, got, want)
		}
	}
	if forest.Stats().NoFillReads == noFill {
		t.Error("no list was rebuilt from disk; the Insert invalidated nothing the queries read")
	}
	if got := forest.Stats().Resident; got != 0 {
		t.Errorf("the lazy rebuilds left %d forest pages resident, want 0", got)
	}
}

// TestPreloadHotStopsAtCorruptLeaf: a post leaf that fails its checksum in the
// middle of one symbol's list must not leave the leaves before it admitted as
// that symbol's whole list. A query over the symbol then takes the tree path
// and reports the corruption instead of answering from a short list.
func TestPreloadHotStopsAtCorruptLeaf(t *testing.T) {
	// An RPIndex: its postings are tags only, and a two-node twig //s/c scans
	// s's whole list at the first level of the descent.
	dir := buildOnDisk(t, false, residencyCorpus())
	f, err := pager.OpenOSFile(filepath.Join(dir, ForestFileName))
	if err != nil {
		t.Fatal(err)
	}
	// Walk the raw post leaves (packed: kind 4, next-leaf id in bytes 3..7,
	// field widths in bytes 7..10, the minimum symbol in bytes 11..14 and
	// the bit-packed cells after the 27-byte header, each opening with its
	// symbol's delta) for a leaf whose first key continues the previous
	// leaf's last symbol.
	type leaf struct {
		first, last vtrie.Symbol
		next        pager.PageID
	}
	leaves := map[pager.PageID]leaf{}
	var ids []pager.PageID
	buf := make([]byte, pager.PageSize)
	for id := pager.PageID(1); uint32(id) < f.NumPages(); id++ {
		if err := f.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		data := buf[pager.PageHeaderSize:]
		n := int(binary.LittleEndian.Uint16(data[1:3]))
		if data[0] != 4 || n == 0 {
			continue
		}
		width := int(data[7]) + int(data[8]) + int(data[9]) + int(data[10])
		sym := func(i int) vtrie.Symbol {
			s := binary.LittleEndian.Uint32(data[11:15])
			for b, off := 0, i*width; b < int(data[7]); b++ {
				if bit := off + b; data[27+bit/8]>>(bit%8)&1 != 0 {
					s += 1 << b
				}
			}
			return vtrie.Symbol(s)
		}
		leaves[id] = leaf{first: sym(0), last: sym(n - 1), next: pager.PageID(binary.LittleEndian.Uint32(data[3:7]))}
		ids = append(ids, id)
	}
	victim, sym := pager.InvalidPage, vtrie.Symbol(0)
	for _, id := range ids {
		l := leaves[id]
		if nl, ok := leaves[l.next]; ok && l.next != 0 && nl.first == l.last {
			victim, sym = l.next, l.last
			break
		}
	}
	if victim == pager.InvalidPage {
		t.Fatal("no symbol's list spans two leaves")
	}
	if err := pagertest.FlipBit(f, victim, (pager.PageHeaderSize+100)*8); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ix := openT(t, dir, Options{HotBudget: 1 << 30})
	name := ix.Store().Dict().Name(sym)
	for _, child := range []string{"a", "b", "c", "d", "e"} {
		q := twig.MustParse("//" + name + "/" + child)
		_, _, err := ix.Match(q, MatchOptions{WarmCache: true, Parallelism: 1})
		if !errors.Is(err, pager.ErrCorrupt) {
			t.Errorf("%s over a corrupt leaf of %q's list: err %v, want a corrupt-page error", q, name, err)
		}
	}
}
