package docstore

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/pager"
	"repro/internal/vtrie"
)

// mixStore is a flushed and reopened store whose dictionary holds the names
// of the MIX corpus (datagen DBLP ∪ SWISSPROT ∪ TREEBANK at scale 2): every
// tag, and every value under the EPIndex's NUL prefix. It returns the store
// and the names in symbol order.
func mixStore(tb testing.TB) (*Store, []string) {
	tb.Helper()
	bp := pager.NewBufferPool(pager.NewMemFile(), pager.DefaultPoolPages)
	s, err := NewStore(bp, &Dict{})
	if err != nil {
		tb.Fatal(err)
	}
	var key []byte
	for _, name := range datagen.Names() {
		ds, err := datagen.ByName(name, 2, 1)
		if err != nil {
			tb.Fatal(err)
		}
		for _, doc := range ds.Docs {
			for _, n := range doc.Nodes {
				key = key[:0]
				if n.IsValue {
					key = append(key, 0)
				}
				s.Dict().InternBytes(append(key, n.Label...))
			}
		}
	}
	if err := s.Flush(); err != nil {
		tb.Fatal(err)
	}
	re, err := Open(bp)
	if err != nil {
		tb.Fatal(err)
	}
	return re, re.Dict().Names()
}

func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// A loaded dictionary costs its name bytes plus a small constant per name —
// not a map entry, a string header and an allocation per name — and Bytes
// reports what it costs.
func TestDictBytesPerName(t *testing.T) {
	s, names := mixStore(t)
	nameBytes := 0
	for _, n := range names {
		nameBytes += len(n)
	}
	s.dict = &Dict{}
	before := liveHeap()
	sec := &s.meta.sections[secDict]
	w := &chainWalker{bp: s.bp, n: uint32(len(sec.pages)), filePages: s.bp.File().NumPages(), next: sec.pages[0]}
	if err := s.loadDict(w, uint32(s.meta.dictFlushed)); err != nil {
		t.Fatal(err)
	}
	if err := w.end(false); err != nil {
		t.Fatal(err)
	}
	heap := liveHeap() - before
	n := s.Dict().Len()
	perName := float64(heap-int64(nameBytes)) / float64(n)
	t.Logf("%d names, %d name bytes: %d heap bytes (%.1f B per name beyond the name), Bytes() %d",
		n, nameBytes, heap, perName, s.Dict().Bytes())
	if perName > 16 {
		t.Errorf("a name costs %.1f bytes beyond its own, want ≤ 16", perName)
	}
	if b := int64(s.Dict().Bytes()); b < heap*9/10 || b > heap*11/10 {
		t.Errorf("Bytes() = %d, measured heap %d: more than 10 %% apart", b, heap)
	}
}

// Hits allocate nothing, whichever entry point finds them.
func TestDictLookupAllocs(t *testing.T) {
	d := &Dict{}
	for i := 0; i < 1000; i++ {
		d.Intern(fmt.Sprintf("label-%d", i))
	}
	key := []byte("label-417")
	s := string(key)
	want := d.Intern(s)
	for name, hit := range map[string]func() (vtrie.Symbol, bool){
		"Lookup":      func() (vtrie.Symbol, bool) { return d.Lookup(s) },
		"LookupBytes": func() (vtrie.Symbol, bool) { return d.LookupBytes(key) },
		"InternBytes": func() (vtrie.Symbol, bool) { return d.InternBytes(key), true },
		"Intern":      func() (vtrie.Symbol, bool) { return d.Intern(s), true },
	} {
		if sym, ok := hit(); !ok || sym != want {
			t.Fatalf("%s = %d, %v; want %d", name, sym, ok, want)
		}
		if n := testing.AllocsPerRun(200, func() { hit() }); n != 0 {
			t.Errorf("%s hit allocates %v objects, want 0", name, n)
		}
	}
}

// Eight goroutines intern, look up and name one overlapping key set in
// different orders: every key gets one symbol, every symbol names its key.
func TestDictConcurrent(t *testing.T) {
	const keys, workers = 2000, 8
	d := &Dict{}
	got := make([][]vtrie.Symbol, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			syms := make([]vtrie.Symbol, keys)
			buf := make([]byte, 0, 16)
			for j := 0; j < keys; j++ {
				i := (j*7919 + w*131) % keys
				buf = fmt.Appendf(buf[:0], "key-%d", i)
				if w%2 == 0 {
					syms[i] = d.InternBytes(buf)
				} else {
					syms[i] = d.Intern(string(buf))
				}
				if name := d.Name(syms[i]); name != string(buf) {
					t.Errorf("worker %d: symbol %d names %q, want %q", w, syms[i], name, buf)
				}
				if sym, ok := d.LookupBytes(buf); !ok || sym != syms[i] {
					t.Errorf("worker %d: LookupBytes(%q) = %d, %v; want %d", w, buf, sym, ok, syms[i])
				}
			}
			got[w] = syms
		}(w)
	}
	wg.Wait()
	if d.Len() != keys {
		t.Fatalf("Len = %d, want %d", d.Len(), keys)
	}
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(got[w], got[0]) {
			t.Fatalf("workers 0 and %d disagree on the symbols", w)
		}
	}
}

// FuzzDict runs random Intern/InternBytes/Lookup/LookupBytes/NameOf
// sequences against a map + []string model. Keys come from a four-letter
// alphabet (so they repeat), include the empty key, and are assembled in one
// buffer that is overwritten after every call; every name handed out must
// still read as its model name after later interns have grown the arena.
func FuzzDict(f *testing.F) {
	f.Add([]byte{0x00, 0x05, 'a', 0x01, 0x05, 'a', 0x03, 0x00})
	f.Add([]byte("\x04ab\x09abc\x0aab\x0b\x13\x07"))
	f.Add([]byte{0x1c, 1, 2, 3, 4, 5, 6, 7, 0x1d, 7, 6, 5, 4, 3, 2, 1, 0x03, 0xff})
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := &Dict{}
		byName := map[string]vtrie.Symbol{}
		var names []string
		type handout struct {
			sym  vtrie.Symbol
			name string
		}
		var out []handout
		buf := make([]byte, 0, 8)
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		for len(ops) > 0 {
			op := next()
			buf = buf[:0]
			for i := 0; i < int(op>>2)&7; i++ {
				buf = append(buf, 'a'+next()%4)
			}
			key := string(buf)
			modelSym, known := byName[key]
			var sym vtrie.Symbol
			var ok bool
			switch op & 3 {
			case 0, 1:
				if op&3 == 0 {
					sym = d.Intern(key)
				} else {
					sym = d.InternBytes(buf)
				}
				if !known {
					modelSym = vtrie.Symbol(len(names))
					byName[key] = modelSym
					names = append(names, key)
				}
				if sym != modelSym {
					t.Fatalf("intern %q = %d, want %d", key, sym, modelSym)
				}
			case 2:
				if len(buf)%2 == 0 {
					sym, ok = d.Lookup(key)
				} else {
					sym, ok = d.LookupBytes(buf)
				}
				if ok != known || (known && sym != modelSym) {
					t.Fatalf("lookup %q = %d, %v; want %d, %v", key, sym, ok, modelSym, known)
				}
			case 3:
				sym = vtrie.Symbol(next()) % vtrie.Symbol(len(names)+2)
				name, ok := d.NameOf(sym)
				if want := int(sym) < len(names); ok != want || (ok && name != names[sym]) {
					t.Fatalf("NameOf(%d) = %q, %v; model has %d names", sym, name, ok, len(names))
				}
				if ok {
					out = append(out, handout{sym, name})
				}
			}
			for i := range buf {
				buf[i] = 0xff
			}
		}
		for _, h := range out {
			if h.name != names[h.sym] {
				t.Fatalf("name of %d handed out earlier now reads %q, want %q", h.sym, h.name, names[h.sym])
			}
		}
		if got := d.Names(); !reflect.DeepEqual(got, names) {
			t.Fatalf("Names() = %q, want %q", got, names)
		}
		if d.Len() != len(names) {
			t.Fatalf("Len() = %d, want %d", d.Len(), len(names))
		}
	})
}

var benchSym vtrie.Symbol

// BenchmarkDictLookup is a hit over the MIX names (tags and NUL-prefixed
// values), cycling through all of them. The keys are copies, as a query's
// labels are: a key that aliases the dictionary's own bytes would compare
// equal on the pointer alone.
func BenchmarkDictLookup(b *testing.B) {
	s, names := mixStore(b)
	d := s.Dict()
	keys := make([]string, len(names))
	for i, n := range names {
		keys[i] = strings.Clone(n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sym, ok := d.Lookup(keys[i%len(keys)])
		if !ok {
			b.Fatal("miss")
		}
		benchSym = sym
	}
}
