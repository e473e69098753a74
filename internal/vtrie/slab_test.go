package vtrie

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// emitted is one Emit callback, flattened for comparison.
type emitted struct {
	p    Posting
	docs []uint32
}

func collectEmit(t *testing.T, emit func(func(Posting, []uint32) error) error) []emitted {
	t.Helper()
	var out []emitted
	if err := emit(func(p Posting, docs []uint32) error {
		out = append(out, emitted{p, append([]uint32{}, docs...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// seqStream draws sequences for the model test. wide > 0 puts a value-like
// symbol drawn from wide distinct ones behind a one-symbol tag prefix, the
// shape that fans a single trie node out in the thousands.
type seqStream struct {
	rng      *rand.Rand
	alphabet int
	maxLen   int
	wide     int
}

func (s *seqStream) next() []Symbol {
	seq := make([]Symbol, 1+s.rng.Intn(s.maxLen))
	for i := range seq {
		seq[i] = Symbol(s.rng.Intn(s.alphabet))
	}
	if s.wide > 0 && len(seq) > 1 {
		seq[0] = Symbol(s.rng.Intn(2))
		seq[1] = Symbol(100 + s.rng.Intn(s.wide))
	}
	return seq
}

// TestSlabTrieAgainstMapTrie holds the slab trie to the map-based trie it
// replaced (model_test.go) over seeded random streams: narrow alphabets, long
// chains and a 5,000-wide fan-out. Node and sequence counts, Validate
// verdicts and the whole Emit walk, documents included, must agree.
func TestSlabTrieAgainstMapTrie(t *testing.T) {
	type shape struct {
		name     string
		alphabet int
		maxLen   int
		wide     int
		seqs     int
	}
	shapes := []shape{
		{"narrow", 6, 12, 0, 300},
		{"narrow-chain", 2, 40, 0, 200},
		{"wide", 6, 6, 5000, 12000},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*7919 + int64(len(sh.name))))
			stream := &seqStream{rng: rng, alphabet: sh.alphabet, maxLen: sh.maxLen, wide: sh.wide}
			name := fmt.Sprintf("%s/%d", sh.name, seed)
			b, mb := NewBuilder(), newMapBuilder()
			for i := 0; i < sh.seqs; i++ {
				s := stream.next()
				if b.Add(s, uint32(i)) != nil || mb.Add(s, uint32(i)) != nil {
					t.Fatalf("%s: Builder.Add failed", name)
				}
			}
			if sh.wide > 0 && seed == 1 && len(b.t.wide) == 0 {
				t.Fatalf("%s: no node was promoted to a child index", sh.name)
			}
			b.Label()
			mb.Label()
			if b.Nodes() != mb.Nodes() || b.Sequences() != mb.Sequences() {
				t.Fatalf("%s: Builder nodes %d/%d, sequences %d/%d", name,
					b.Nodes(), mb.Nodes(), b.Sequences(), mb.Sequences())
			}
			if b.Validate() != nil || mb.Validate() != nil {
				t.Fatalf("%s: Builder Validate: slab %v, model %v", name, b.Validate(), mb.Validate())
			}
			if got, want := collectEmit(t, b.Emit), collectEmit(t, mb.Emit); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Builder Emit differs (%d vs %d nodes)", name, len(got), len(want))
			}
		}
	}
}

// labelerLoad adds docs document-shaped sequences — a shared tag prefix,
// then one of many value symbols, then a tail that diverges into a chain —
// to b, the way a bulk build does. 5,500 of them make a little over 100k
// nodes.
func labelerLoad(b *Builder, docs int) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < docs; i++ {
		seq := []Symbol{Symbol(rng.Intn(3)), Symbol(3 + rng.Intn(4)), Symbol(100 + rng.Intn(20000))}
		for n := 8 + rng.Intn(30); len(seq) < n; {
			seq = append(seq, Symbol(rng.Intn(40)))
		}
		if err := b.Add(seq, uint32(i)); err != nil {
			panic(err)
		}
	}
}

// bytes is the heap the trie holds: slabs, promoted indexes and the terminal
// list.
func (t *trie) bytes() int {
	b := len(t.slabs)*slabSize*int(unsafe.Sizeof(node{})) + cap(t.slabs)*int(unsafe.Sizeof(t.slabs[0])) +
		cap(t.terms)*int(unsafe.Sizeof(term{})) + cap(t.wide)*int(unsafe.Sizeof(t.wide[0]))
	for _, x := range t.wide {
		b += cap(x) * int(unsafe.Sizeof(x[0]))
		for _, run := range x {
			b += cap(run) * int(unsafe.Sizeof(kidRef{}))
		}
	}
	return b
}

// TestLabelerBytesPerNode pins what the one labeler, the exact Builder, costs
// per trie node while a bulk build holds it: the live heap and live object
// count around 100k nodes, against the ≈ 290 bytes and two objects a node
// cost as a struct plus a map: 40.9 B and 0.0015 objects measured. A node is
// 40 bytes in a slab; the terminal list and child indexes add the rest. bytes() must account for the heap the
// trie holds to within 10 %. Nothing of it outlives the build: an index keeps
// no labeler, and a write labels its document as a chain (Chain).
func TestLabelerBytesPerNode(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b := NewBuilder()
	labelerLoad(b, 5500)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if b.Nodes() < 100_000 {
		t.Fatalf("load made only %d nodes", b.Nodes())
	}
	n := float64(b.Nodes())
	heap := float64(after.HeapAlloc - before.HeapAlloc)
	bytesPer := heap / n
	objsPer := float64(after.HeapObjects-before.HeapObjects) / n
	t.Logf("%d nodes: %.1f B/node, %.4f objects/node (bytes() says %.1f B/node, %d promoted)",
		b.Nodes(), bytesPer, objsPer, float64(b.t.bytes())/n, len(b.t.wide))
	if bytesPer > 44 || objsPer > 0.01 {
		t.Fatalf("labeler costs %.1f B/node and %.4f objects/node, want <= 44 and <= 0.01", bytesPer, objsPer)
	}
	if got := float64(b.t.bytes()); got < 0.9*heap || got > 1.1*heap {
		t.Fatalf("bytes() reports %.0f B, the heap grew by %.0f B: want within 10 %%", got, heap)
	}
	runtime.KeepAlive(b)
}

// BenchmarkLabelerAdd adds document-shaped sequences to a fresh Builder and
// labels them, 100k nodes per iteration.
func BenchmarkLabelerAdd(b *testing.B) {
	b.ReportAllocs()
	const docs = 5500
	nodes := 0
	for i := 0; i < b.N; i++ {
		bl := NewBuilder()
		labelerLoad(bl, docs)
		bl.Label()
		nodes += bl.Nodes()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
	b.ReportMetric(float64(docs*b.N)/b.Elapsed().Seconds(), "docs/s")
}

// TestKidIndexOrder drives a child index from empty with ascending, descending
// and random symbols: every run stays sorted, non-empty and within runCap, the
// runs stay in order, and every symbol is found where it was put.
func TestKidIndexOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	orders := map[string][]int{"ascending": nil, "descending": nil, "random": rng.Perm(3000)}
	for i := 0; i < 3000; i++ {
		orders["ascending"] = append(orders["ascending"], i)
		orders["descending"] = append(orders["descending"], 2999-i)
	}
	for name, syms := range orders {
		var x kidIndex
		for _, s := range syms {
			x = x.insert(kidRef{Symbol(s), uint32(s) + 1})
		}
		prev, n := -1, 0
		for _, run := range x {
			if len(run) == 0 || len(run) > runCap {
				t.Fatalf("%s: run of %d refs", name, len(run))
			}
			for _, ref := range run {
				if int(ref.sym) <= prev {
					t.Fatalf("%s: symbol %d after %d", name, ref.sym, prev)
				}
				prev = int(ref.sym)
				n++
			}
		}
		if n != len(syms) {
			t.Fatalf("%s: index holds %d of %d children", name, n, len(syms))
		}
		for _, s := range syms {
			if r, i, ok := x.find(Symbol(s)); !ok || x[r][i].node != uint32(s)+1 {
				t.Fatalf("%s: symbol %d not found", name, s)
			}
		}
		if _, _, ok := x.find(5000); ok {
			t.Fatalf("%s: found a symbol never inserted", name)
		}
		if name == "ascending" && len(x) != (3000+runCap-1)/runCap {
			t.Fatalf("ascending arrivals left %d runs, want them packed", len(x))
		}
	}
}
