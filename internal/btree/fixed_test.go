package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/pager"
)

// Tests of the fixed-width leaf codec beyond the shared model and allocation
// suites in leafops_test.go: what a fixed-width tree accepts, how full
// BulkLoad packs its leaves, and what Check says about a damaged one. No
// constructor creates such a tree any more; directories written before
// packed postings leaves hold one, and fixedTree builds one as they did.

// fixedTree returns the named tree, creating it with fixed-width leaves of
// kw+vw-byte cells if it does not exist.
func fixedTree(f *Forest, name string, kw, vw int) (*Tree, error) {
	return f.tree(name, &nodePage{kind: fixedLeafNode, widths: [2]byte{byte(kw), byte(vw)}})
}

// fixedEntries are n 12+12-byte entries in key order, the postings' shape.
func fixedEntries(n int) [][2][]byte {
	out := make([][2][]byte, n)
	for i := range out {
		k := make([]byte, 12)
		binary.BigEndian.PutUint64(k[4:], uint64(i))
		v := make([]byte, 12)
		binary.BigEndian.PutUint64(v, uint64(i)*3)
		out[i] = [2][]byte{k, v}
	}
	return out
}

func TestFixedTreeRejectsOtherWidths(t *testing.T) {
	f := memForest(t)
	tr, err := fixedTree(f, "t", 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	e := fixedEntries(1)[0]
	for i, bad := range [][2][]byte{{e[0][:11], e[1]}, {e[0], e[1][:11]}, {append(e[0], 0), e[1]}} {
		if err := tr.Insert(bad[0], bad[1]); err == nil {
			t.Errorf("Insert of %d+%d bytes into a 12+12 tree accepted", len(bad[0]), len(bad[1]))
		}
		if bl, _ := fixedTree(f, fmt.Sprint("bulk", i), 12, 12); bl.BulkLoad(Fill{}, sliceFeeder([][2][]byte{e, bad})) == nil {
			t.Errorf("BulkLoad of %d+%d bytes into a 12+12 tree accepted", len(bad[0]), len(bad[1]))
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("rejected inserts left %d entries", tr.Len())
	}
	// An existing tree keeps its format whichever constructor names it.
	if again, err := f.PackedTree("t"); err != nil || again != tr {
		t.Fatalf("PackedTree on an existing fixed-width tree = %v, %v", again, err)
	}
	slotted, _ := f.Tree("s")
	if again, err := f.PackedTree("s"); err != nil || again != slotted {
		t.Fatalf("PackedTree on an existing slotted tree = %v, %v", again, err)
	}
}

// A fixed-width leaf holds ⌊(8,176 − 9) / 24⌋ = 340 postings, where a slotted
// leaf holds 272. BulkLoad of a static tree fills either; an insertable load
// leaves loadSlack free on every leaf, whatever its codec (306 postings on a
// fixed leaf, 245 on a slotted one), so inserts up to the slack land in place
// and only inserts beyond it split, in the same format.
func TestFixedBulkLoadPacksLeaves(t *testing.T) {
	const (
		n       = 3400
		perLeaf = (pager.PageDataSize - headerSize - loadSlack) / 24
	)
	if perLeaf != 306 {
		t.Fatalf("a bulk-loaded fixed leaf takes %d postings, want 306", perLeaf)
	}
	entries := fixedEntries(n)
	f := newTestForest(t)
	fixed, _ := fixedTree(f, "fixed", 12, 12)
	slotted, _ := f.Tree("slotted")
	static, _ := f.Tree("static")
	for tr, insertable := range map[*Tree]bool{fixed: true, slotted: true, static: false} {
		if err := tr.BulkLoad(Fill{Insertable: insertable}, sliceFeeder(entries)); err != nil {
			t.Fatal(err)
		}
	}
	loaded := (n + perLeaf - 1) / perLeaf
	slottedPer := (pager.PageDataSize - headerSize - loadSlack) / 30
	for tr, want := range map[*Tree]Shape{
		fixed:   {Entries: n, Pages: []int{1, loaded}, LeafFormat: "fixed 12+12"},
		slotted: {Entries: n, Pages: []int{1, (n + slottedPer - 1) / slottedPer}, LeafFormat: "slotted"},
		static:  {Entries: n, Pages: []int{1, (n + 271) / 272}, LeafFormat: "slotted"},
	} {
		s, err := tr.Shape()
		if err != nil || s.Entries != want.Entries || len(s.Pages) != 2 || s.Pages[1] != want.Pages[1] || s.LeafFormat != want.LeafFormat {
			t.Errorf("%s: shape %+v (%v), want %+v", tr.Name(), s, err, want)
		}
	}
	if s, _ := fixed.Shape(); s.LeafFill != float64(loaded*headerSize+n*24)/float64(loaded*pager.PageDataSize) {
		t.Errorf("bulk-loaded fixed leaves at %.3f fill, want every leaf but the last at 306 postings", s.LeafFill)
	}
	// gap is a key between entries[i] and entries[i+1].
	gap := func(i int) []byte {
		k := append([]byte(nil), entries[i][0]...)
		k[11] |= 0x80
		return k
	}
	// The slack of the first leaf takes 340 − 306 = 34 inserts in place.
	for i := 0; i < 340-perLeaf; i++ {
		if err := fixed.Insert(gap(i), entries[i][1]); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.LeafSplits(); got != 0 {
		t.Fatalf("%d inserts within the slack split %d leaves", 340-perLeaf, got)
	}
	// Fill the gaps between the other loaded keys: beyond the slack, every
	// leaf splits.
	for i := 340 - perLeaf; i < n; i += 7 {
		if err := fixed.Insert(gap(i), entries[i][1]); err != nil {
			t.Fatal(err)
		}
	}
	if errs := f.Check(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	if s, _ := fixed.Shape(); s.LeafFormat != "fixed 12+12" || s.Pages[1] <= loaded || f.LeafSplits() != uint64(s.Pages[1]-loaded) {
		t.Errorf("after inserts: %d leaves of %q, %d splits counted", s.Pages[1], s.LeafFormat, f.LeafSplits())
	}
}

// Check must report a damaged fixed-width leaf, never read past it: a cell
// count whose cells overflow the page, a zero key width, and widths (or a
// codec) that differ from the rest of the tree's leaves.
func TestCheckReportsDamagedFixedLeaf(t *testing.T) {
	damage := map[string]struct {
		edit func(data []byte)
		want string
	}{
		"cells overflow": {func(data []byte) { binary.LittleEndian.PutUint16(data[1:3], 400) }, "overflow the page"},
		"zero width":     {func(data []byte) { data[7] = 0 }, "zero key width"},
		"other widths": {func(data []byte) {
			// A well-formed leaf holding the same keys in 12+4 cells.
			n := &nodePage{kind: fixedLeafNode, extra: pageExtra(data), widths: [2]byte{12, 4}}
			for i := 0; i < pageNumKeys(data); i++ {
				k, v := leafCellAt(data, i)
				n.leaf = append(n.leaf, leafCell{bytes.Clone(k), bytes.Clone(v[:4])})
			}
			n.encode(data)
		}, "its siblings' fixed 12+12"},
		"slotted sibling": {func(data []byte) {
			n, _ := decodePage(data)
			n.kind, n.leaf = leafNode, n.leaf[:200] // 340 slotted cells overflow a page
			n.encode(data)
		}, "leaf cells are slotted"},
	}
	for name, d := range damage {
		t.Run(name, func(t *testing.T) {
			bp := pager.NewBufferPool(pager.NewMemFile(), 64)
			f, err := Open(bp)
			if err != nil {
				t.Fatal(err)
			}
			tr, _ := fixedTree(f, "post", 12, 12)
			if err := tr.BulkLoad(Fill{}, sliceFeeder(fixedEntries(1000))); err != nil {
				t.Fatal(err)
			}
			if errs := f.Check(); len(errs) > 0 {
				t.Fatal(errs[0])
			}
			root, err := bp.Get(tr.root)
			if err != nil {
				t.Fatal(err)
			}
			leaf := pageChildAt(root.Data, 1) // the second leaf: the first sets the format
			root.Unpin(false)
			p, err := bp.Get(leaf)
			if err != nil {
				t.Fatal(err)
			}
			d.edit(p.Data)
			p.Unpin(true)
			errs := f.Check()
			if len(errs) == 0 || !strings.Contains(errs[0].Error(), d.want) {
				t.Fatalf("Check = %v, want an error naming %q", errs, d.want)
			}
		})
	}
}
