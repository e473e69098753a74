package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/pager"
)

// The in-place leaf edits (leafInsertAt, leafDeleteAt) of the slotted leaf
// codec against a sorted-slice model (the packed codec's, whose entries must
// be postings or Docid entries, is runPackedOps, packed_test.go): duplicate
// keys, deletes by key and by (key, value), and reopens of the forest over a
// fresh pool. Values take lengths from 0 to a quarter page, so leaves split
// after a handful of inserts and cells sit in the heap in every physical
// order. After every operation the forest must pass Check and a full Scan
// must replay the model exactly.

type modelEntry struct{ key, val []byte }

// runLeafOps interprets ops three bytes at a time: opcode, key selector,
// value selector.
func runLeafOps(t *testing.T, ops []byte) {
	t.Helper()
	file := pager.NewMemFile()
	open := func() (*Forest, *Tree) {
		f, err := Open(pager.NewBufferPool(file, 16))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := f.Tree("t")
		if err != nil {
			t.Fatal(err)
		}
		return f, tr
	}
	f, tr := open()
	var model []modelEntry
	for i := 0; i+2 < len(ops); i += 3 {
		key := []byte{'k', ops[i+1] % 16}
		if ops[i+1]&16 != 0 {
			key = append(key, ops[i+1]%5) // mixed key lengths, shared prefixes
		}
		n := int(ops[i+2]) % 8 * int(ops[i+2]) % (MaxEntrySize - 8)
		val := bytes.Repeat([]byte{ops[i+2]}, n)
		switch ops[i] % 8 {
		case 0, 1, 2, 3, 4: // insert after every equal key
			if err := tr.Insert(key, val); err != nil {
				t.Fatal(err)
			}
			pos := sort.Search(len(model), func(j int) bool { return bytes.Compare(model[j].key, key) > 0 })
			model = append(model, modelEntry{})
			copy(model[pos+1:], model[pos:])
			model[pos] = modelEntry{key, val}
		case 5, 6: // delete the first entry with the key (5) or the exact pair (6)
			want := val
			if ops[i]%8 == 5 {
				want = nil
			}
			pos := -1
			for j, e := range model {
				if bytes.Equal(e.key, key) && (want == nil || bytes.Equal(e.val, want)) {
					pos = j
					break
				}
			}
			ok, err := tr.Delete(key, want)
			if err != nil {
				t.Fatal(err)
			}
			if ok != (pos >= 0) {
				t.Fatalf("op %d: Delete(%x, %d bytes) = %v, model has it at %d", i/3, key, len(want), ok, pos)
			}
			if ok {
				model = append(model[:pos], model[pos+1:]...)
			}
		case 7:
			if err := f.Flush(); err != nil {
				t.Fatal(err)
			}
			f, tr = open()
		}
		if errs := f.Check(); len(errs) > 0 {
			t.Fatalf("op %d: %v", i/3, errs[0])
		}
		if tr.Len() != uint64(len(model)) {
			t.Fatalf("op %d: Len %d, model %d", i/3, tr.Len(), len(model))
		}
		j := 0
		err := tr.Scan(nil, nil, true, true, func(k, v []byte) bool {
			if j >= len(model) || !bytes.Equal(k, model[j].key) || !bytes.Equal(v, model[j].val) {
				t.Fatalf("op %d: scan entry %d is (%x, %d bytes), model disagrees", i/3, j, k, len(v))
			}
			j++
			return true
		})
		if err != nil || j != len(model) {
			t.Fatalf("op %d: scan saw %d of %d entries (err %v)", i/3, j, len(model), err)
		}
	}
	if s, err := tr.Shape(); err != nil || s.LeafFormat != "slotted" {
		t.Fatalf("leaves are %q (%v), want slotted", s.LeafFormat, err)
	}
}

func TestLeafOpsAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 3*1500)
		rand.New(rand.NewSource(seed)).Read(ops)
		runLeafOps(t, ops)
		// The same bytes as a packed tree's load and edits, and for one
		// seed again with every opcode's shift and docID-spread bits
		// cleared, so fields stay narrow and cells fit one 8-byte load.
		for _, pc := range packedCases {
			runPackedOps(t, pc, ops)
			if seed == 1 {
				narrow := bytes.Clone(ops)
				for i := 0; i < len(narrow); i += 4 {
					narrow[i] &= 7
				}
				runPackedOps(t, pc, narrow)
			}
		}
	}
}

func FuzzLeafOps(f *testing.F) {
	f.Add([]byte{0, 1, 200, 0, 1, 7, 6, 1, 200, 7, 0, 0, 5, 1, 0})
	f.Add(bytes.Repeat([]byte{1, 17, 255}, 40))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*400 {
			ops = ops[:3*400]
		}
		runLeafOps(t, ops)
	})
}

// slottedCell is the page bytes of one slotted cell of the 8-byte keys and
// 12-byte values the tests below insert.
const slottedCell = slotSize + leafCellHdr + 8 + 12

// A leaf edit that does not split must not touch the heap: the page is
// searched, shifted and written through the pin alone.
func TestLeafEditAllocs(t *testing.T) {
	// The subtest keeps the name it had when each leaf codec ran its own arm.
	t.Run("slotted", func(t *testing.T) {
		tr, err := memForest(t).Tree("t")
		if err != nil {
			t.Fatal(err)
		}
		val := make([]byte, 12)
		for i := 0; i < 50; i++ {
			if err := tr.Insert(KeyUint64(uint64(i)*2), val); err != nil {
				t.Fatal(err)
			}
		}
		key := KeyUint64(51)
		n := testing.AllocsPerRun(100, func() {
			if err := tr.Insert(key, val); err != nil {
				t.Fatal(err)
			}
			if ok, err := tr.Delete(key, val); err != nil || !ok {
				t.Fatalf("Delete = %v, %v", ok, err)
			}
		})
		if n != 0 {
			t.Errorf("non-splitting Insert+Delete allocates %v objects, want 0", n)
		}
		if s, _ := tr.Shape(); len(s.Pages) != 1 {
			t.Fatalf("fixture split: height %d", len(s.Pages))
		}
	})
}

// A split decodes the leaf into one copy of the page, its cells aliasing it,
// and writes two pages and a new root: a few objects however many cells the
// leaf holds (14 measured, for 314 cells), never one per cell. Each run
// splits a different full single-leaf tree in the middle.
func TestLeafSplitAllocs(t *testing.T) {
	const runs = 20
	f, err := Open(pager.NewBufferPool(pager.NewMemFile(), 8*runs))
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 12)
	full := (pager.PageDataSize - headerSize) / slottedCell
	trees := make([]*Tree, runs+1) // AllocsPerRun warms up with one extra call
	for r := range trees {
		tr, err := f.Tree(fmt.Sprint(r))
		trees[r] = tr
		for i := 0; err == nil && i < full; i++ {
			err = tr.Insert(KeyUint64(uint64(i)*2), val)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	key, next := KeyUint64(uint64(full)|1), 0
	n := testing.AllocsPerRun(runs, func() {
		if err := trees[next].Insert(key, val); err != nil {
			t.Fatal(err)
		}
		next++
	})
	for _, tr := range trees {
		if s, _ := tr.Shape(); len(s.Pages) != 2 {
			t.Fatalf("tree %s did not split: height %d", tr.name, len(s.Pages))
		}
	}
	t.Logf("objects per split of a %d-cell leaf: %v", full, n)
	if n > 16 {
		t.Errorf("a split of a %d-cell leaf allocates %v objects, want at most 16", full, n)
	}
}

// BenchmarkLeafInsertFullPage inserts into (and deletes from) the middle of a
// slotted leaf one entry short of full: the slot shift and heap compaction at
// their most expensive, where the decode-and-rewrite path cost ~2
// allocations per resident cell.
func BenchmarkLeafInsertFullPage(b *testing.B) {
	tr, err := memForest(b).Tree("t")
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 12)
	per := (pager.PageDataSize - headerSize) / slottedCell
	for i := 0; i < per-1; i++ {
		if err := tr.Insert(KeyUint64(uint64(i)*2), val); err != nil {
			b.Fatal(err)
		}
	}
	key := KeyUint64(uint64(per) | 1)
	edit := func() {
		if err := tr.Insert(key, val); err != nil {
			b.Fatal(err)
		}
		if ok, _ := tr.Delete(key, val); !ok {
			b.Fatal("inserted entry not found")
		}
	}
	edit() // warm-up, so first-use costs stay out of a -benchtime 1x smoke run
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edit()
	}
	b.StopTimer()
	if s, _ := tr.Shape(); len(s.Pages) != 1 {
		b.Fatalf("leaf split during the benchmark: height %d", len(s.Pages))
	}
}
