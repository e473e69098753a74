package docstore

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/datagen"
	"repro/internal/pager"
	"repro/internal/prufer"
	"repro/internal/vtrie"
)

// mixRecords is the benchmark's MIX corpus (datagen DBLP ∪ SWISSPROT ∪
// TREEBANK at scale 2, seed 1) as EPIndex records, labels interned in s's
// dictionary.
func mixRecords(tb testing.TB, s *Store) []*Record {
	tb.Helper()
	sym := func(label string, value bool) vtrie.Symbol {
		if value {
			return s.Dict().InternBytes(append([]byte{0}, label...))
		}
		return s.Dict().Intern(label)
	}
	var recs []*Record
	for _, name := range datagen.Names() {
		ds, err := datagen.ByName(name, 2, 1)
		if err != nil {
			tb.Fatal(err)
		}
		for _, doc := range ds.Docs {
			ext := prufer.ExtendTree(doc)
			seq := prufer.Build(ext)
			r := &Record{DocID: uint32(len(recs)), NumNodes: int32(ext.Size())}
			for _, num := range seq.Numbers {
				parent := ext.Node(num)
				r.NPS = append(r.NPS, int32(num))
				r.LPS = append(r.LPS, sym(parent.Label, parent.IsValue))
			}
			for _, n := range ext.Nodes {
				if n.IsLeaf() {
					r.Leaves = append(r.Leaves, Leaf{Post: int32(n.Post), Sym: sym(n.Label, n.IsValue)})
				}
			}
			recs = append(recs, r)
		}
	}
	return recs
}

// Interning a shape the dictionary already holds, and reading a document's
// shape, allocate nothing: a Put of a known shape costs its record bytes,
// not a new dictionary entry.
func TestShapeInternAllocs(t *testing.T) {
	s := newStore(t)
	recs := []*Record{
		{DocID: 0, NumNodes: 6, NPS: []int32{6, 6, 5, 5, 6}, LPS: []vtrie.Symbol{1, 1, 2, 2, 1},
			Leaves: []Leaf{{Post: 1, Sym: 3}, {Post: 2, Sym: 4}, {Post: 3, Sym: 5}}},
		{DocID: 1, NumNodes: 2, NPS: []int32{2}, LPS: []vtrie.Symbol{7}, Leaves: []Leaf{{Post: 1, Sym: 3}}},
	}
	for _, r := range recs {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	shapes := s.NumShapes()
	var v View
	run := func() {
		s.mu.Lock()
		for _, r := range recs {
			if id, err := s.shapes.intern(r); err != nil || int(id) >= shapes {
				t.Fatalf("intern of a known shape: id %d of %d, %v", id, shapes, err)
			}
		}
		s.mu.Unlock()
		if err := s.ViewOf(1, &v); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, run); got != 0 {
		t.Errorf("interning known shapes and reading one allocates %.0f objects per run, want 0", got)
	}
	// A Put of a known shape grows nothing but the directory, the resident
	// LPS and the heap.
	s.dir = slices.Grow(s.dir, 64)
	s.lps = slices.Grow(s.lps, 64*len(recs[1].LPS)+64)
	next := *recs[1]
	put := func() {
		next.DocID = uint32(s.NumDocs())
		if err := s.Put(&next); err != nil {
			t.Fatal(err)
		}
	}
	put()
	if got := testing.AllocsPerRun(50, put); got != 0 {
		t.Errorf("a Put of a known shape allocates %.0f objects per run, want 0", got)
	}
	if s.NumShapes() != shapes {
		t.Errorf("Puts of known shapes grew the dictionary from %d to %d shapes", shapes, s.NumShapes())
	}
}

// The shape dictionary costs what it holds: on MIX's 6,000 EPIndex documents
// it interns 787 shapes in a handful of objects, its accounted bytes
// (ShapeBytes) match the heap it takes, and a directory entry — which now
// names its document's shape and locates its resident LPS — stays 20 bytes.
// The resident LPS costs its record encoding, a count and one uvarint per
// entry: under 1.8 bytes an entry.
func TestShapeBytesPerShape(t *testing.T) {
	s := newStore(t)
	recs := mixRecords(t, s)
	var ms runtime.MemStats
	before := liveHeap()
	runtime.ReadMemStats(&ms)
	objects0 := ms.HeapObjects
	var d shapeDict
	for _, r := range recs {
		if _, err := d.intern(r); err != nil {
			t.Fatal(err)
		}
	}
	d.trim() // as Open leaves it
	d.hdrs, d.pack = slices.Clone(d.hdrs), nil
	heap := liveHeap() - before
	runtime.ReadMemStats(&ms)
	objects := int64(ms.HeapObjects) - int64(objects0)
	runtime.KeepAlive(&d)
	runtime.KeepAlive(recs)
	runtime.KeepAlive(s)
	n := len(d.hdrs)
	var nps int
	for _, h := range d.hdrs {
		nps += int(h.n) - 1
	}
	t.Logf("%d documents, %d shapes holding %d NPS entries: %d B resident (%.1f B per shape, %.2f per NPS entry), %d B heap in %d objects, %d B per directory entry",
		len(recs), n, nps, d.bytes(), float64(d.bytes())/float64(n), float64(d.bytes())/float64(nps), heap, objects, unsafe.Sizeof(dirEntry{}))
	if n != 787 {
		t.Errorf("MIX has %d EPIndex shapes, want 787", n)
	}
	if per := float64(d.bytes()) / float64(n); per > 100 {
		t.Errorf("a shape costs %.1f resident bytes, want <= 100", per)
	}
	if objects > 8 {
		t.Errorf("the dictionary is %d heap objects, want <= 8", objects)
	}
	if heap < int64(d.bytes())*9/10 || heap > int64(d.bytes())*11/10 {
		t.Errorf("ShapeBytes says %d, measured heap %d: more than 10 %% apart", d.bytes(), heap)
	}
	if sz := unsafe.Sizeof(dirEntry{}); sz > 20 {
		t.Errorf("a directory entry is %d bytes, want <= 20", sz)
	}
	var entries int
	for _, r := range recs {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
		entries += len(r.LPS)
	}
	per := float64(len(s.lps)) / float64(entries)
	t.Logf("resident LPS: %d B for %d entries (%.2f B per entry)", len(s.lps), entries, per)
	if per > 1.8 {
		t.Errorf("the resident LPS costs %.2f B per entry, want <= 1.8", per)
	}
}

// shapeFuzzStore is a flushed store of records over a few dozen shapes,
// enough to fill more than one shapes page, plus one record spanning pages.
func shapeFuzzStore(tb testing.TB) (*pager.MemFile, *Store) {
	tb.Helper()
	mem := pager.NewMemFile()
	s, err := NewStore(pager.NewBufferPool(mem, 64), &Dict{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		n := 2 + i%23
		r := &Record{DocID: uint32(i), NumNodes: int32(n)}
		for j := 1; j < n; j++ {
			r.NPS = append(r.NPS, int32(n))
			r.LPS = append(r.LPS, vtrie.Symbol(i))
		}
		for j := 1; j < n; j += 1 + i%3 {
			r.Leaves = append(r.Leaves, Leaf{Post: int32(j), Sym: vtrie.Symbol(1000 + i*j)})
		}
		if err := s.Put(r); err != nil {
			tb.Fatal(err)
		}
	}
	big := &Record{DocID: 60, NumNodes: 3000}
	for j := 1; j < 3000; j++ {
		big.NPS, big.LPS = append(big.NPS, 3000), append(big.LPS, vtrie.Symbol(j))
	}
	if err := s.Put(big); err != nil {
		tb.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		tb.Fatal(err)
	}
	return mem, s
}

// FuzzDecodeShape overwrites bytes of a flushed store's shapes section — the
// resync headers, node and leaf counts, NPS entries — or of a record page —
// shape ids and LPS lengths — re-seals the page so its checksum passes, and
// opens the result. Open must refuse the store or load it, and every Get and
// ViewOf must refuse its document or return a self-consistent one: never a
// panic, never an allocation sized by a length nothing checked.
func FuzzDecodeShape(f *testing.F) {
	mem, s := shapeFuzzStore(f)
	img := memImage(f, mem)
	var shapesHead pager.PageID
	for _, sec := range s.MetaSections() {
		if sec.Name == "shapes" {
			shapesHead = sec.Head
		}
	}
	rec := s.dir[5].page
	big := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	f.Add(false, uint16(0), []byte{0xff, 0xff})                       // no shape starts here
	f.Add(false, uint16(0), []byte{2, 0, 0xff, 0xff, 0xff, 0x7f})     // first shape id past the count
	f.Add(false, uint16(shapeHead), big(1<<40))                       // node count
	f.Add(false, uint16(shapeHead+1), big(1<<31))                     // an NPS entry
	f.Add(false, uint16(shapeHead+3), []byte{0xff, 0xff, 0xff, 0x0f}) // a leaf count
	f.Add(false, uint16(shapeHead), []byte{0})                        // a lost-shape marker
	f.Add(true, uint16(s.dir[5].offset+1), big(1<<35))                // shape id
	f.Add(true, uint16(s.dir[5].offset+2), big(1<<40))                // LPS length

	f.Fuzz(func(t *testing.T, onRecord bool, off uint16, data []byte) {
		id := shapesHead
		if onRecord {
			id = rec
		}
		buf := bytes.Clone(img[id])
		base := pager.PageHeaderSize + chainHeader
		if onRecord {
			base = pager.PageHeaderSize
		}
		at := base + int(off)%(pager.PageDataSize-chainHeader)
		copy(buf[at:min(len(buf), at+len(data))], data)
		pager.SealPage(id, buf)
		mutated := slices.Clone(img)
		mutated[id] = buf
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		re, err := Open(pager.NewBufferPool(memFromImage(t, mutated), 64))
		if err == nil {
			var got, filled Record
			var v View
			for d := uint32(0); d < uint32(re.NumDocs()); d++ {
				if re.GetInto(&got, d) == nil {
					if got.NumNodes < 1 || len(got.NPS) != int(got.NumNodes-1) || len(got.LPS) != len(got.NPS) ||
						!slices.IsSortedFunc(got.Leaves, func(a, b Leaf) int { return int(a.Post - b.Post) }) {
						t.Fatalf("document %d decodes inconsistent: %d nodes, %d NPS, %d LPS", d, got.NumNodes, len(got.NPS), len(got.LPS))
					}
				}
				if re.ViewOf(d, &v) == nil {
					for post := int32(0); post <= v.Nodes()+1; post++ {
						v.ParentOf(post)
						v.LabelOf(post)
					}
					if v.Fill(&filled) == nil && len(filled.LPS) != len(filled.NPS) {
						t.Fatalf("document %d views inconsistent: %d NPS, %d LPS", d, len(filled.NPS), len(filled.LPS))
					}
				}
			}
			re.MetaSections()
			re.ShapeUsage()
		}
		runtime.ReadMemStats(&after)
		// The file is a few hundred KB; its pool frames and the store's
		// decoded state account for about as much again.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Fatalf("Open and reads allocated %d bytes over a %d-page file (err %v)", grew, len(img), err)
		}
	})
}
