package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/pager"
)

func memForest(t testing.TB) *Forest {
	t.Helper()
	f, err := Open(pager.NewBufferPool(pager.NewMemFile(), 64))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestInsertGetSmall(t *testing.T) {
	f := memForest(t)
	tr, err := f.Tree("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert([]byte("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert([]byte("c"), []byte("3")); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		vs, err := tr.Get([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != 1 || string(vs[0]) != want {
			t.Errorf("Get(%s) = %q, want [%s]", k, vs, want)
		}
	}
	if vs, _ := tr.Get([]byte("zz")); len(vs) != 0 {
		t.Errorf("Get(zz) = %q, want empty", vs)
	}
	if tr.Len() != 3 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestDuplicateKeysInsertionOrder(t *testing.T) {
	f := memForest(t)
	tr, _ := f.Tree("dups")
	for i := 0; i < 500; i++ {
		if err := tr.Insert([]byte("k"), []byte(fmt.Sprintf("%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	vs, err := tr.Get([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 500 {
		t.Fatalf("got %d values, want 500", len(vs))
	}
	for i, v := range vs {
		if string(v) != fmt.Sprintf("%04d", i) {
			t.Fatalf("value %d = %s, out of insertion order", i, v)
		}
	}
}

func TestSortedIterationMatchesModel(t *testing.T) {
	f := memForest(t)
	tr, _ := f.Tree("model")
	rng := rand.New(rand.NewSource(17))
	var model []string
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key-%06d", rng.Intn(100000))
		model = append(model, k)
		if err := tr.Insert([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(model)
	var got []string
	if err := tr.Scan(nil, nil, true, true, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(model) {
		t.Fatalf("scan returned %d keys, want %d", len(got), len(model))
	}
	for i := range got {
		if got[i] != model[i] {
			t.Fatalf("scan[%d] = %s, want %s", i, got[i], model[i])
		}
	}
	if s, _ := tr.Shape(); len(s.Pages) < 2 {
		t.Errorf("expected multi-level tree, height = %d", len(s.Pages))
	}
}

func TestRangeScanBounds(t *testing.T) {
	f := memForest(t)
	tr, _ := f.Tree("range")
	for i := 0; i < 100; i++ {
		if err := tr.Insert(KeyUint64(uint64(i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	collect := func(lo, hi uint64, loIncl, hiIncl bool) []uint64 {
		var out []uint64
		err := tr.Scan(KeyUint64(lo), KeyUint64(hi), loIncl, hiIncl, func(k, v []byte) bool {
			out = append(out, Uint64Key(k))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got := collect(10, 13, true, true); len(got) != 4 || got[0] != 10 || got[3] != 13 {
		t.Errorf("[10,13] = %v", got)
	}
	if got := collect(10, 13, false, false); len(got) != 2 || got[0] != 11 || got[1] != 12 {
		t.Errorf("(10,13) = %v", got)
	}
	if got := collect(10, 10, false, false); len(got) != 0 {
		t.Errorf("(10,10) = %v, want empty", got)
	}
	// Early stop.
	n := 0
	tr.Scan(nil, nil, true, true, func(k, v []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("early stop: visited %d", n)
	}
	// Unbounded below with exclusive hi.
	var out []uint64
	tr.Scan(nil, KeyUint64(3), true, false, func(k, v []byte) bool {
		out = append(out, Uint64Key(k))
		return true
	})
	if len(out) != 3 {
		t.Errorf("(-inf,3) = %v", out)
	}
}

// ScanNoFill visits exactly what Scan visits, over every bound shape, but the
// pages it had to read from the file are not left in the pool.
func TestScanNoFillMatchesScan(t *testing.T) {
	f := memForest(t)
	tr, _ := f.Tree("nofill")
	for i := 0; i < 3000; i++ {
		if err := tr.Insert(KeyUint64(uint64(i%1000)), []byte(fmt.Sprintf("v%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	bp := f.BufferPool()
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	collect := func(scan func(lo, hi []byte, loIncl, hiIncl bool, fn func(k, v []byte) bool) error, lo, hi []byte, loIncl, hiIncl bool) []string {
		var out []string
		if err := scan(lo, hi, loIncl, hiIncl, func(k, v []byte) bool {
			out = append(out, fmt.Sprintf("%d=%s", Uint64Key(k), v))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, r := range []struct {
		lo, hi         []byte
		loIncl, hiIncl bool
	}{
		{nil, nil, true, true},
		{KeyUint64(100), KeyUint64(900), true, true},
		{KeyUint64(100), KeyUint64(900), false, false},
		{nil, KeyUint64(5), true, false},
		{KeyUint64(995), nil, false, true},
	} {
		if err := bp.DropAll(); err != nil {
			t.Fatal(err)
		}
		got := collect(tr.ScanNoFill, r.lo, r.hi, r.loIncl, r.hiIncl)
		if st := bp.Stats(); st.Resident != 0 || st.NoFillReads == 0 {
			t.Errorf("ScanNoFill %+v left %d pages resident after %d no-fill reads", r, st.Resident, st.NoFillReads)
		}
		if want := collect(tr.Scan, r.lo, r.hi, r.loIncl, r.hiIncl); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("ScanNoFill %+v visited %d entries, Scan %d", r, len(got), len(want))
		}
	}
}

func TestDelete(t *testing.T) {
	f := memForest(t)
	tr, _ := f.Tree("del")
	for i := 0; i < 300; i++ {
		tr.Insert(KeyUint64(uint64(i%10)), []byte{byte(i)})
	}
	ok, err := tr.Delete(KeyUint64(5), []byte{byte(15)})
	if err != nil || !ok {
		t.Fatalf("Delete: %v %v", ok, err)
	}
	vs, _ := tr.Get(KeyUint64(5))
	for _, v := range vs {
		if v[0] == 15 {
			t.Error("deleted value still present")
		}
	}
	if tr.Len() != 299 {
		t.Errorf("Len = %d", tr.Len())
	}
	ok, _ = tr.Delete(KeyUint64(99), nil)
	if ok {
		t.Error("Delete of absent key reported success")
	}
	// Delete all of key 3.
	for {
		ok, err := tr.Delete(KeyUint64(3), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if vs, _ := tr.Get(KeyUint64(3)); len(vs) != 0 {
		t.Errorf("key 3 survives: %v", vs)
	}
}

func TestLargeValuesAndLimit(t *testing.T) {
	f := memForest(t)
	tr, _ := f.Tree("big")
	big := bytes.Repeat([]byte("x"), MaxEntrySize-8)
	if err := tr.Insert(KeyUint64(1), big); err != nil {
		t.Fatalf("max-size entry rejected: %v", err)
	}
	if err := tr.Insert(KeyUint64(2), bytes.Repeat([]byte("x"), MaxEntrySize)); err == nil {
		t.Error("oversize entry accepted")
	}
	vs, _ := tr.Get(KeyUint64(1))
	if len(vs) != 1 || !bytes.Equal(vs[0], big) {
		t.Error("big value mangled")
	}
}

func TestMultipleTreesIndependent(t *testing.T) {
	f := memForest(t)
	a, _ := f.Tree("a")
	b, _ := f.Tree("b")
	for i := 0; i < 1000; i++ {
		a.Insert(KeyUint64(uint64(i)), []byte("a"))
		b.Insert(KeyUint64(uint64(i)), []byte("b"))
	}
	va, _ := a.Get(KeyUint64(500))
	vb, _ := b.Get(KeyUint64(500))
	if string(va[0]) != "a" || string(vb[0]) != "b" {
		t.Error("trees interfere")
	}
	names := f.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
	if f.Lookup("a") != a || f.Lookup("zz") != nil {
		t.Error("Lookup broken")
	}
}

func TestForestPersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "forest.db")
	file, err := pager.OpenOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bp := pager.NewBufferPool(file, 32)
	f, err := Open(bp)
	if err != nil {
		t.Fatal(err)
	}
	// Many trees to force a multi-page directory.
	for i := 0; i < 400; i++ {
		tr, err := f.Tree(fmt.Sprintf("tag-with-a-rather-long-name-%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 5; j++ {
			tr.Insert(KeyUint64(uint64(j)), []byte{byte(i)})
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	file.Close()

	file2, err := pager.OpenOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file2.Close()
	f2, err := Open(pager.NewBufferPool(file2, 32))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(f2.Names()); got != 400 {
		t.Fatalf("reopened forest has %d trees, want 400", got)
	}
	tr := f2.Lookup("tag-with-a-rather-long-name-123")
	if tr == nil {
		t.Fatal("tree missing after reopen")
	}
	if tr.Len() != 5 {
		t.Errorf("count after reopen = %d", tr.Len())
	}
	vs, err := tr.Get(KeyUint64(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0][0] != 123 {
		t.Errorf("value after reopen = %v", vs)
	}
}

func TestDirectoryShrinks(t *testing.T) {
	// Regression: rewriting a directory that previously spanned several
	// pages must terminate the chain, not leave stale continuation pages.
	f := memForest(t)
	for i := 0; i < 500; i++ {
		if _, err := f.Tree(fmt.Sprintf("very-long-tree-name-to-inflate-directory-%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(f.metaPages) < 2 {
		t.Skip("directory did not span pages; enlarge the test")
	}
	// Re-flush (directory content unchanged) and reload: must round trip.
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	f2, err := Open(f.bp)
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Names()) != 500 {
		t.Errorf("reloaded %d trees, want 500", len(f2.Names()))
	}
}

func TestScanDuplicatesAcrossSplits(t *testing.T) {
	f := memForest(t)
	tr, _ := f.Tree("dupscan")
	// Interleave duplicate keys with unique ones to force splits between
	// runs of duplicates.
	for i := 0; i < 2000; i++ {
		tr.Insert(KeyUint64(uint64(i%7)), KeyUint64(uint64(i)))
	}
	for k := 0; k < 7; k++ {
		vs, err := tr.Get(KeyUint64(uint64(k)))
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		last := int64(-1)
		for i := 0; i < 2000; i++ {
			if i%7 == k {
				want++
			}
		}
		if len(vs) != want {
			t.Fatalf("key %d: %d values, want %d", k, len(vs), want)
		}
		for _, v := range vs {
			cur := int64(Uint64Key(v))
			if cur <= last {
				t.Fatalf("key %d: duplicates out of insertion order (%d after %d)", k, cur, last)
			}
			last = cur
		}
	}
}

// Property-style test: random operations against a map-of-slices model.
func TestRandomAgainstModel(t *testing.T) {
	f := memForest(t)
	tr, _ := f.Tree("fuzz")
	rng := rand.New(rand.NewSource(1234))
	model := map[string][]string{}
	var keys []string
	for i := 0; i < 8000; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5, 6: // insert
			k := fmt.Sprintf("%05d", rng.Intn(500))
			v := fmt.Sprintf("%08d", i)
			if err := tr.Insert([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			if _, ok := model[k]; !ok {
				keys = append(keys, k)
			}
			model[k] = append(model[k], v)
		case 7: // delete one
			if len(keys) == 0 {
				continue
			}
			k := keys[rng.Intn(len(keys))]
			ok, err := tr.Delete([]byte(k), nil)
			if err != nil {
				t.Fatal(err)
			}
			if ok != (len(model[k]) > 0) {
				t.Fatalf("Delete(%s) = %v, model has %d", k, ok, len(model[k]))
			}
			if ok {
				model[k] = model[k][1:]
			}
		default: // point lookup
			if len(keys) == 0 {
				continue
			}
			k := keys[rng.Intn(len(keys))]
			vs, err := tr.Get([]byte(k))
			if err != nil {
				t.Fatal(err)
			}
			if len(vs) != len(model[k]) {
				t.Fatalf("Get(%s) = %d values, model %d", k, len(vs), len(model[k]))
			}
			for j := range vs {
				if string(vs[j]) != model[k][j] {
					t.Fatalf("Get(%s)[%d] = %s, model %s", k, j, vs[j], model[k][j])
				}
			}
		}
	}
	// Final full scan equals sorted model.
	var want []string
	for k, vs := range model {
		for _, v := range vs {
			want = append(want, k+"/"+v)
		}
	}
	sort.Strings(want)
	var got []string
	tr.Scan(nil, nil, true, true, func(k, v []byte) bool {
		got = append(got, string(k)+"/"+string(v))
		return true
	})
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("scan %d entries, model %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %s != %s", i, got[i], want[i])
		}
	}
}

func TestKeyUint64Order(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		ca, cb := KeyUint64(a), KeyUint64(b)
		if (a < b) != (bytes.Compare(ca, cb) < 0) {
			t.Fatalf("order not preserved for %d vs %d", a, b)
		}
		if Uint64Key(ca) != a {
			t.Fatalf("round trip failed for %d", a)
		}
	}
}

func BenchmarkInsertSequential(b *testing.B) {
	f := memForest(b)
	tr, _ := f.Tree("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(KeyUint64(uint64(i)), []byte("value"))
	}
}

func BenchmarkInsertRandom(b *testing.B) {
	f := memForest(b)
	tr, _ := f.Tree("bench")
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(KeyUint64(rng.Uint64()), []byte("value"))
	}
}

func BenchmarkPointLookup(b *testing.B) {
	f := memForest(b)
	tr, _ := f.Tree("bench")
	for i := 0; i < 100000; i++ {
		tr.Insert(KeyUint64(uint64(i)), []byte("value"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(KeyUint64(uint64(i % 100000)))
	}
}

func BenchmarkRangeScan100(b *testing.B) {
	f := memForest(b)
	tr, _ := f.Tree("bench")
	for i := 0; i < 100000; i++ {
		tr.Insert(KeyUint64(uint64(i)), []byte("value"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint64(i % 99900)
		n := 0
		tr.Scan(KeyUint64(lo), KeyUint64(lo+99), true, true, func(k, v []byte) bool {
			n++
			return true
		})
	}
}

// ScanNoFill is Scan for a caller that copies what it visits into a structure
// of its own (the hot tier's leaf images): every page is read through
// pager.BufferPool.GetNoFill, so pages the pool does not already hold are
// read and counted but not left resident.
func (t *Tree) ScanNoFill(lo, hi []byte, loIncl, hiIncl bool, fn func(key, val []byte) bool) error {
	return t.scan(lo, hi, loIncl, hiIncl, true, visitor{entry: fn})
}

// ScanPostingsNoFill is ScanPostings reading pages as ScanNoFill does.
func (t *Tree) ScanPostingsNoFill(lo, hi []byte, loIncl, hiIncl bool, fn func(sym uint32, left, right uint64, level uint32) bool) error {
	return t.scan(lo, hi, loIncl, hiIncl, true, visitor{posting: fn})
}

// ScanDocIDsNoFill is ScanDocIDs reading pages as ScanNoFill does.
func (t *Tree) ScanDocIDsNoFill(lo, hi []byte, loIncl, hiIncl bool, fn func(term uint64, docID uint32, tombVersion uint64) bool) error {
	return t.scan(lo, hi, loIncl, hiIncl, true, visitor{docID: fn})
}
