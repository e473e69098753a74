package btree

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/pager"
)

func newTestForest(t *testing.T) *Forest {
	t.Helper()
	fo, err := Open(pager.NewBufferPool(pager.NewMemFile(), 128))
	if err != nil {
		t.Fatal(err)
	}
	return fo
}

// sliceFeeder adapts a slice of entries to BulkLoad's pull interface.
func sliceFeeder(entries [][2][]byte) func() ([]byte, []byte, error) {
	i := 0
	return func() ([]byte, []byte, error) {
		if i >= len(entries) {
			return nil, nil, io.EOF
		}
		e := entries[i]
		i++
		return e[0], e[1], nil
	}
}

func TestBulkLoadMatchesInsert(t *testing.T) {
	const n = 5000
	entries := make([][2][]byte, 0, n)
	for i := 0; i < n; i++ {
		// Duplicate every 7th key so stable-duplicate order is exercised,
		// including duplicates spanning leaf boundaries.
		k := KeyUint64(uint64(i / 7))
		v := []byte(fmt.Sprintf("val-%06d", i))
		entries = append(entries, [2][]byte{k, v})
	}

	fo := newTestForest(t)
	bulk, err := fo.Tree("bulk")
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.BulkLoad(Fill{}, sliceFeeder(entries)); err != nil {
		t.Fatal(err)
	}
	ins, err := fo.Tree("ins")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := ins.Insert(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}

	if errs := fo.Check(); len(errs) != 0 {
		t.Fatalf("check: %v", errs)
	}
	if bulk.Len() != uint64(n) {
		t.Fatalf("bulk len = %d, want %d", bulk.Len(), n)
	}

	var got, want [][2][]byte
	scan := func(tr *Tree, out *[][2][]byte) {
		err := tr.Scan(nil, nil, true, true, func(k, v []byte) bool {
			*out = append(*out, [2][]byte{append([]byte(nil), k...), append([]byte(nil), v...)})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	scan(bulk, &got)
	scan(ins, &want)
	if len(got) != len(want) {
		t.Fatalf("scan lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i][0], want[i][0]) || !bytes.Equal(got[i][1], want[i][1]) {
			t.Fatalf("entry %d differs: %x/%q vs %x/%q", i, got[i][0], got[i][1], want[i][0], want[i][1])
		}
	}

	// Point lookups behave identically, including for duplicated keys.
	for _, key := range []uint64{0, 3, n/7 - 1} {
		g, err := bulk.Get(KeyUint64(key))
		if err != nil {
			t.Fatal(err)
		}
		w, err := ins.Get(KeyUint64(key))
		if err != nil {
			t.Fatal(err)
		}
		if len(g) != len(w) {
			t.Fatalf("Get(%d): %d vs %d values", key, len(g), len(w))
		}
		for i := range g {
			if !bytes.Equal(g[i], w[i]) {
				t.Fatalf("Get(%d) value %d differs", key, i)
			}
		}
	}

	bs, _ := bulk.Shape()
	is, _ := ins.Shape()
	bh, ih := len(bs.Pages), len(is.Pages)
	if bh > ih {
		t.Fatalf("bulk height %d exceeds insert height %d", bh, ih)
	}
}

func TestBulkLoadEmptyAndSingle(t *testing.T) {
	fo := newTestForest(t)
	empty, _ := fo.Tree("empty")
	if err := empty.BulkLoad(Fill{}, sliceFeeder(nil)); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Fatalf("len = %d", empty.Len())
	}
	single, _ := fo.Tree("single")
	if err := single.BulkLoad(Fill{}, sliceFeeder([][2][]byte{{[]byte("k"), []byte("v")}})); err != nil {
		t.Fatal(err)
	}
	vals, err := single.Get([]byte("k"))
	if err != nil || len(vals) != 1 || !bytes.Equal(vals[0], []byte("v")) {
		t.Fatalf("get: %v %v", vals, err)
	}
	if errs := fo.Check(); len(errs) != 0 {
		t.Fatalf("check: %v", errs)
	}
	// Inserts after a bulk load keep working (full leaves split normally).
	if err := single.Insert([]byte("j"), []byte("w")); err != nil {
		t.Fatal(err)
	}
	if errs := fo.Check(); len(errs) != 0 {
		t.Fatalf("check after insert: %v", errs)
	}
}

func TestBulkLoadRejects(t *testing.T) {
	fo := newTestForest(t)
	tr, _ := fo.Tree("t")
	err := tr.BulkLoad(Fill{}, sliceFeeder([][2][]byte{
		{[]byte("b"), nil},
		{[]byte("a"), nil},
	}))
	if err == nil {
		t.Fatal("out-of-order keys accepted")
	}
	fo2 := newTestForest(t)
	tr2, _ := fo2.Tree("t")
	if err := tr2.Insert([]byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	if err := tr2.BulkLoad(Fill{}, sliceFeeder(nil)); err == nil {
		t.Fatal("bulk load into non-empty tree accepted")
	}
	fo3 := newTestForest(t)
	tr3, _ := fo3.Tree("t")
	big := make([]byte, MaxEntrySize+1)
	if err := tr3.BulkLoad(Fill{}, sliceFeeder([][2][]byte{{big, nil}})); err == nil {
		t.Fatal("oversized entry accepted")
	}
}

func TestBulkLoadSurvivesFlushAndReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bulk.db")
	f, err := pager.OpenOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bp := pager.NewBufferPool(f, 64)
	fo, err := Open(bp)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := fo.Tree("t")
	entries := make([][2][]byte, 2000)
	for i := range entries {
		entries[i] = [2][]byte{KeyUint64(uint64(i)), []byte(fmt.Sprintf("v%d", i))}
	}
	if err := tr.BulkLoad(Fill{}, sliceFeeder(entries)); err != nil {
		t.Fatal(err)
	}
	if err := fo.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := pager.OpenOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	fo2, err := Open(pager.NewBufferPool(f2, 64))
	if err != nil {
		t.Fatal(err)
	}
	tr2 := fo2.Lookup("t")
	if tr2 == nil || tr2.Len() != 2000 {
		t.Fatalf("reopened tree: %v", tr2)
	}
	var count int
	err = tr2.Scan(nil, nil, true, true, func(k, v []byte) bool {
		if Uint64Key(k) != uint64(count) {
			t.Fatalf("key %d out of order", count)
		}
		count++
		return true
	})
	if err != nil || count != 2000 {
		t.Fatalf("scan: %d entries, err %v", count, err)
	}
	if errs := fo2.Check(); len(errs) != 0 {
		t.Fatalf("check: %v", errs)
	}
}
