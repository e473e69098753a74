package prix

import (
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/docstore"
	"repro/internal/vtrie"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

// The compaction drain derives a document's DocSeq straight from its stored
// record. These tests hold it to the detour it replaced — ReconstructDocument,
// then Transform of the rebuilt tree — and to the round trip that defines it:
// interning the derived DocSeq gives back the record it came from.

// detourDocSeq is the oracle: the record rebuilt into a tree and transformed.
func detourDocSeq(ix *Index, id uint32, rec *docstore.Record) (*DocSeq, error) {
	doc, err := ix.reconstructRecord(id, rec)
	if err != nil {
		return nil, err
	}
	return Transform(id, doc, ix.opts.Extended)
}

// TestRecordDocSeqMatchesTransform: every document of the three generated
// corpora, regular and extended, drains to exactly the DocSeq the detour
// produces.
func TestRecordDocSeqMatchesTransform(t *testing.T) {
	for _, name := range datagen.Names() {
		ds, err := datagen.ByName(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, extended := range []bool{false, true} {
			ix, err := Build(ds.Docs, Options{Extended: extended})
			if err != nil {
				t.Fatal(err)
			}
			d := ix.NewDrain()
			for id := uint32(0); int(id) < len(ds.Docs); id++ {
				got, err := d.DocSeq(id)
				if err != nil {
					t.Fatalf("%s extended=%v doc %d: %v", name, extended, id, err)
				}
				doc, err := ix.ReconstructDocument(id)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Transform(id, doc, extended)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s extended=%v doc %d:\n drain  %+v\n detour %+v", name, extended, id, got, want)
				}
				// And it is what the document was built from in the first place.
				if direct, err := Transform(id, ds.Docs[id], extended); err != nil || !reflect.DeepEqual(got, direct) {
					t.Fatalf("%s extended=%v doc %d: drain differs from Transform of the original (err %v)", name, extended, id, err)
				}
			}
			ix.Close()
		}
	}
}

// drainFixture is a small index whose dictionary the hand-made records below
// are written against: symbols by name, so a record can say what it means.
type drainFixture struct {
	ix  *Index
	sym map[string]vtrie.Symbol
}

func newDrainFixture(t testing.TB, extended bool) *drainFixture {
	t.Helper()
	ix, err := Build([]*xmltree.Document{xmltreetest.MustFromSExpr(0, `(a (b (c "v")) (d))`)}, Options{Extended: extended})
	if err != nil {
		t.Fatal(err)
	}
	f := &drainFixture{ix: ix, sym: map[string]vtrie.Symbol{}}
	dict := ix.store.Dict()
	for _, l := range []string{"a", "b", "c", "d"} {
		f.sym[l] = SymbolFor(dict, l, false)
	}
	f.sym["v"] = SymbolFor(dict, "v", true)
	f.sym["dummy"] = SymbolFor(dict, "", true)
	return f
}

// checkAgainstDetour is the property every record must satisfy, well formed
// or not: the drain answers with an error or with a DocSeq that interns back
// to the record and equals the detour's — never a panic, never another answer.
// The one licensed difference is an empty value under an EPIndex: it is
// indistinguishable from an extension dummy, so the detour's stripDummies
// drops it (and its own dummy) while the drain keeps the stored sequence.
func (f *drainFixture) checkAgainstDetour(t *testing.T, rec *docstore.Record) (accepted bool) {
	t.Helper()
	got, err := f.ix.NewDrain().recordDocSeq(rec.DocID, rec)
	if err != nil {
		return false
	}
	var back docstore.Record
	syms := f.ix.internDocSeq(rec.DocID, got, &back)
	if back.NumNodes != rec.NumNodes || !equalOrEmpty(back.NPS, rec.NPS) || !equalOrEmpty(syms, rec.LPS) || !equalOrEmpty(back.Leaves, rec.Leaves) {
		t.Fatalf("record %+v drained to %+v, which interns back to %+v", rec, got, back)
	}
	want, err := detourDocSeq(f.ix, rec.DocID, rec)
	if err == nil && reflect.DeepEqual(got, want) {
		return true
	}
	if f.ix.opts.Extended {
		for _, s := range rec.LPS {
			if s == f.sym["dummy"] {
				return true // an empty value the detour mistakes for a dummy
			}
		}
	}
	t.Fatalf("record %+v:\n drain  %+v\n detour %+v (err %v)", rec, got, want, err)
	return false
}

func equalOrEmpty[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRecordDocSeqRejectsMalformed walks the checks the detour made one by
// one, plus docstore's FuzzDecodeRecord seed corpus (the decodable ones, as
// the records they decode to).
func TestRecordDocSeqRejectsMalformed(t *testing.T) {
	long := &docstore.Record{DocID: 99, NumNodes: 41, Leaves: make([]docstore.Leaf, 23)}
	for i := 0; i < 40; i++ {
		long.NPS, long.LPS = append(long.NPS, 41), append(long.LPS, vtrie.Symbol(1000+i))
	}
	fuzzCorpus := []*docstore.Record{
		{DocID: 0, NumNodes: 1},
		{DocID: 7, NumNodes: 4, NPS: []int32{4, 4, 4}, LPS: []vtrie.Symbol{1, 2, 1}, Leaves: []docstore.Leaf{{Post: 1, Sym: 2}, {Post: 2, Sym: 3}}},
		long,
		{DocID: 3, NumNodes: 2, NPS: []int32{2}, LPS: []vtrie.Symbol{5}, Leaves: []docstore.Leaf{{Post: 1, Sym: 6}}},
	}
	for _, extended := range []bool{false, true} {
		f := newDrainFixture(t, extended)
		for _, rec := range fuzzCorpus {
			f.checkAgainstDetour(t, rec)
		}
		a, b, c, d, v, dummy := f.sym["a"], f.sym["b"], f.sym["c"], f.sym["d"], f.sym["v"], f.sym["dummy"]
		type tc struct {
			name string
			rec  docstore.Record
			ok   bool
		}
		var cases []tc
		if !extended {
			cases = []tc{
				{"chain", docstore.Record{NumNodes: 3, NPS: []int32{2, 3}, LPS: []vtrie.Symbol{b, a}, Leaves: []docstore.Leaf{{Post: 1, Sym: c}}}, true},
				{"single node", docstore.Record{NumNodes: 1, Leaves: []docstore.Leaf{{Post: 1, Sym: a}}}, true},
				{"value leaf", docstore.Record{NumNodes: 2, NPS: []int32{2}, LPS: []vtrie.Symbol{a}, Leaves: []docstore.Leaf{{Post: 1, Sym: v}}}, true},
				{"no nodes", docstore.Record{NumNodes: 0}, false},
				{"short sequence", docstore.Record{NumNodes: 3, NPS: []int32{3}, LPS: []vtrie.Symbol{a}, Leaves: []docstore.Leaf{{Post: 1, Sym: b}}}, false},
				{"parent before child", docstore.Record{NumNodes: 3, NPS: []int32{1, 3}, LPS: []vtrie.Symbol{a, a}, Leaves: []docstore.Leaf{{Post: 1, Sym: b}}}, false},
				{"parent beyond N", docstore.Record{NumNodes: 3, NPS: []int32{3, 9}, LPS: []vtrie.Symbol{a, a}, Leaves: []docstore.Leaf{{Post: 1, Sym: b}, {Post: 2, Sym: c}}}, false},
				{"not a postorder", docstore.Record{NumNodes: 4, NPS: []int32{3, 4, 4}, LPS: []vtrie.Symbol{b, a, a}, Leaves: []docstore.Leaf{{Post: 1, Sym: c}, {Post: 2, Sym: d}}}, false},
				{"two labels", docstore.Record{NumNodes: 3, NPS: []int32{3, 3}, LPS: []vtrie.Symbol{a, b}, Leaves: []docstore.Leaf{{Post: 1, Sym: c}, {Post: 2, Sym: d}}}, false},
				{"leaf unlisted", docstore.Record{NumNodes: 3, NPS: []int32{3, 3}, LPS: []vtrie.Symbol{a, a}, Leaves: []docstore.Leaf{{Post: 1, Sym: c}}}, false},
				{"inner node listed as leaf", docstore.Record{NumNodes: 2, NPS: []int32{2}, LPS: []vtrie.Symbol{a}, Leaves: []docstore.Leaf{{Post: 1, Sym: c}, {Post: 2, Sym: d}}}, false},
				{"value with children", docstore.Record{NumNodes: 2, NPS: []int32{2}, LPS: []vtrie.Symbol{v}, Leaves: []docstore.Leaf{{Post: 1, Sym: c}}}, false},
				{"unknown symbol", docstore.Record{NumNodes: 2, NPS: []int32{2}, LPS: []vtrie.Symbol{9999}, Leaves: []docstore.Leaf{{Post: 1, Sym: c}}}, false},
			}
		} else {
			cases = []tc{
				{"element leaf", docstore.Record{NumNodes: 3, NPS: []int32{2, 3}, LPS: []vtrie.Symbol{b, a}, Leaves: []docstore.Leaf{{Post: 1, Sym: dummy}}}, true},
				{"value leaf", docstore.Record{NumNodes: 3, NPS: []int32{2, 3}, LPS: []vtrie.Symbol{v, a}, Leaves: []docstore.Leaf{{Post: 1, Sym: dummy}}}, true},
				{"empty value leaf", docstore.Record{NumNodes: 3, NPS: []int32{2, 3}, LPS: []vtrie.Symbol{dummy, a}, Leaves: []docstore.Leaf{{Post: 1, Sym: dummy}}}, true},
				{"lone dummy", docstore.Record{NumNodes: 1, Leaves: []docstore.Leaf{{Post: 1, Sym: dummy}}}, false},
				{"leaf not a dummy", docstore.Record{NumNodes: 2, NPS: []int32{2}, LPS: []vtrie.Symbol{a}, Leaves: []docstore.Leaf{{Post: 1, Sym: c}}}, false},
				{"two element leaves", docstore.Record{NumNodes: 5, NPS: []int32{2, 5, 4, 5}, LPS: []vtrie.Symbol{b, a, a, a}, Leaves: []docstore.Leaf{{Post: 1, Sym: dummy}, {Post: 3, Sym: dummy}}}, true},
				{"dummy beside a subtree", docstore.Record{NumNodes: 4, NPS: []int32{2, 4, 4}, LPS: []vtrie.Symbol{b, a, a}, Leaves: []docstore.Leaf{{Post: 1, Sym: dummy}, {Post: 3, Sym: dummy}}}, false},
				{"value over a subtree", docstore.Record{NumNodes: 3, NPS: []int32{2, 3}, LPS: []vtrie.Symbol{b, v}, Leaves: []docstore.Leaf{{Post: 1, Sym: dummy}}}, false},
			}
		}
		for _, c := range cases {
			rec := c.rec
			if got := f.checkAgainstDetour(t, &rec); got != c.ok {
				t.Errorf("extended=%v %s: accepted = %v, want %v", extended, c.name, got, c.ok)
			}
		}
		f.ix.Close()
	}
}

// FuzzRecordDocSeq throws arbitrary parent arrays, label choices and leaf lists
// at the drain: an error or the detour's answer, never a panic.
func FuzzRecordDocSeq(f *testing.F) {
	f.Add(true, []byte{2, 3}, []byte{1, 0}, []byte{1, 5})
	f.Add(false, []byte{2, 3}, []byte{1, 0}, []byte{1, 2})
	f.Add(false, []byte{4, 4, 4}, []byte{0, 0, 0}, []byte{1, 1, 2, 2, 3, 3})
	f.Add(true, []byte{2, 5, 4, 5}, []byte{1, 0, 3, 0}, []byte{1, 5, 3, 5})
	f.Add(false, []byte{3, 4, 4}, []byte{1, 0, 0}, []byte{1, 2, 2, 3})
	f.Add(true, []byte{}, []byte{}, []byte{1, 5})
	fixtures := map[bool]*drainFixture{}
	f.Fuzz(func(t *testing.T, extended bool, nps, lps, leaves []byte) {
		fx := fixtures[extended]
		if fx == nil {
			fx = newDrainFixture(t, extended)
			fixtures[extended] = fx
		}
		// Bytes pick from the fixture's six symbols plus one the dictionary
		// does not have.
		syms := []vtrie.Symbol{fx.sym["a"], fx.sym["b"], fx.sym["c"], fx.sym["d"], fx.sym["v"], fx.sym["dummy"], 9999}
		rec := &docstore.Record{DocID: 1, NumNodes: int32(len(nps) + 1)}
		for i, p := range nps {
			rec.NPS = append(rec.NPS, int32(p))
			s := byte(0)
			if i < len(lps) {
				s = lps[i]
			}
			rec.LPS = append(rec.LPS, syms[int(s)%len(syms)])
		}
		for i := 0; i+1 < len(leaves); i += 2 {
			rec.Leaves = append(rec.Leaves, docstore.Leaf{Post: int32(leaves[i]), Sym: syms[int(leaves[i+1])%len(syms)]})
		}
		fx.checkAgainstDetour(t, rec)
	})
}

// TestDrainKeepsEmptyValues: an empty attribute value is a real node of the
// document. Under an EPIndex it looks exactly like an extension dummy, and the
// ReconstructDocument detour stripped it on the way through a compaction; the
// drain hands back the sequence the document was built from.
func TestDrainKeepsEmptyValues(t *testing.T) {
	doc, err := xmltree.ParseString(0, `<a x=""><b>v</b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, extended := range []bool{false, true} {
		ix, err := Build([]*xmltree.Document{doc}, Options{Extended: extended})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.NewDrain().DocSeq(0)
		if err != nil {
			t.Fatalf("extended=%v: %v", extended, err)
		}
		want, err := Transform(0, doc, extended)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("extended=%v:\n drain     %+v\n transform %+v", extended, got, want)
		}
		ix.Close()
	}
}

// TestCompactDrainAllocs: draining one document allocates nothing. The
// record, its decode, the parent-array pass and the DocSeq handed out all run
// in the Drain's own reused scratch (a fresh DocSeq and its four slices were
// five objects a document).
func TestCompactDrainAllocs(t *testing.T) {
	ds := datagen.DBLP(1, 1)
	ix, err := Build(ds.Docs, Options{Extended: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	d := ix.NewDrain()
	n := uint32(len(ds.Docs))
	id := uint32(0)
	drainOne := func() {
		if _, err := d.DocSeq(id % n); err != nil {
			t.Fatal(err)
		}
		id++
	}
	for i := uint32(0); i < n; i++ {
		drainOne() // grow the scratch to the largest document first
	}
	if got := testing.AllocsPerRun(500, drainOne); got > 0 {
		t.Fatalf("draining one document allocates %.1f objects, want 0", got)
	}
}
