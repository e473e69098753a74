package vtrie

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
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

// equalPrefix reports whether d and m walk to the same postings in the same
// order.
func equalPrefix(d *DynamicLabeler, m *mapLabeler) bool {
	var dp, mp []Posting
	d.EmitPrefix(func(p Posting) error { dp = append(dp, p); return nil })
	m.EmitPrefix(func(p Posting) error { mp = append(mp, p); return nil })
	return reflect.DeepEqual(dp, mp)
}

// addAgainstModel feeds seqs to d and to its model m, holding d to m call by
// call — created postings, terminal, error and underflow count — and then
// on the whole trie: sequence count, Validate verdict and the EmitPrefix
// walk, which expands every tail.
func addAgainstModel(t *testing.T, name string, d *DynamicLabeler, m *mapLabeler, seqs [][]Symbol) {
	t.Helper()
	for i, s := range seqs {
		dc, dt, derr := d.AddReport(s)
		mc, mt, merr := m.AddReport(s, uint32(i))
		if (derr == nil) != (merr == nil) || (derr != nil && derr.Error() != merr.Error()) {
			t.Fatalf("%s: AddReport(%v) error: slab %v, model %v", name, s, derr, merr)
		}
		if derr != nil && !errors.Is(derr, ErrScopeUnderflow) {
			t.Fatalf("%s: AddReport error %v is not an underflow", name, derr)
		}
		if len(dc) != len(mc) || (len(dc) > 0 && !reflect.DeepEqual(dc, mc)) {
			t.Fatalf("%s: AddReport(%v) created %v, model %v", name, s, dc, mc)
		}
		if dt != mt {
			t.Fatalf("%s: AddReport(%v) terminal %+v, model %+v", name, s, dt, mt)
		}
		if d.Underflows() != m.Underflows() {
			t.Fatalf("%s: AddReport(%v) left %d underflows, model %d", name, s, d.Underflows(), m.Underflows())
		}
	}
	if d.Sequences() != m.Sequences() {
		t.Fatalf("%s: sequences %d, model %d", name, d.Sequences(), m.Sequences())
	}
	if (d.t.validate() == nil) != (m.Validate() == nil) {
		t.Fatalf("%s: Validate: slab %v, model %v", name, d.t.validate(), m.Validate())
	}
	if !equalPrefix(d, m) {
		t.Fatalf("%s: EmitPrefix after Adds differs", name)
	}
}

// TestSlabTrieAgainstMapTrie holds the slab trie to the map-based trie it
// replaced (model_test.go) over seeded random Prepare/Finalize/AddReport
// streams: narrow alphabets and a 5,000-wide fan-out, root scopes small
// enough to force underflows and to make Finalize drop prepared children.
// Postings, terminals, errors, counters, walk orders and Validate verdicts
// must agree call by call. The tail cases follow the random streams.
func TestSlabTrieAgainstMapTrie(t *testing.T) {
	type shape struct {
		name      string
		alphabet  int
		maxLen    int
		wide      int
		seqs      int
		minAlpha  int
		rootRight func(rng *rand.Rand) uint64 // 0 = the full 2^64 scope
	}
	full := func(*rand.Rand) uint64 { return 0 }
	shapes := []shape{
		{"narrow", 6, 12, 0, 300, 0, full},
		{"narrow-chain", 2, 40, 0, 200, 0, full},
		{"narrow-underflow", 6, 12, 0, 300, 0, func(rng *rand.Rand) uint64 { return 1 + uint64(rng.Intn(1<<uint(4+rng.Intn(14)))) }},
		{"finalize-drops", 12, 3, 0, 200, 1, func(rng *rand.Rand) uint64 { return 1 + uint64(rng.Intn(8)) }},
		{"wide", 6, 6, 5000, 12000, 0, full},
		{"wide-underflow", 6, 6, 5000, 6000, 0, func(rng *rand.Rand) uint64 { return 1 << 14 }},
		// Thousands of prepared children under a scope of a few hundred
		// slots: Finalize cuts a many-run child index short.
		{"wide-finalize-drops", 6, 6, 5000, 6000, 2, func(rng *rand.Rand) uint64 { return 1 << 10 }},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*7919 + int64(len(sh.name))))
			alpha, spread := sh.minAlpha+rng.Intn(5), uint64(rng.Intn(200))
			d, m := NewDynamicLabeler(alpha, spread), newMapLabeler(alpha, spread)
			if r := sh.rootRight(rng); r != 0 {
				shrinkRoot(d, r)
				m.root.right = r
			}
			stream := &seqStream{rng: rng, alphabet: sh.alphabet, maxLen: sh.maxLen, wide: sh.wide}
			seqs := make([][]Symbol, sh.seqs)
			for i := range seqs {
				seqs[i] = stream.next()
			}
			prep := rng.Intn(len(seqs) + 1)
			for _, s := range seqs[:prep] {
				if d.Prepare(s) != nil || m.Prepare(s) != nil {
					t.Fatalf("%s/%d: Prepare failed", sh.name, seed)
				}
			}
			d.Finalize()
			m.Finalize()
			if !errors.Is(d.Prepare(seqs[0]), ErrPrepared) {
				t.Fatalf("%s/%d: Prepare after Finalize accepted", sh.name, seed)
			}
			if (d.t.validate() == nil) != (m.Validate() == nil) {
				t.Fatalf("%s/%d: Validate after Finalize: slab %v, model %v", sh.name, seed, d.t.validate(), m.Validate())
			}
			if !equalPrefix(d, m) {
				t.Fatalf("%s/%d: EmitPrefix after Finalize differs", sh.name, seed)
			}

			name := fmt.Sprintf("%s/%d", sh.name, seed)
			addAgainstModel(t, name, d, m, seqs)
			b, mb := NewBuilder(), newMapBuilder()
			for i, s := range seqs {
				if b.Add(s, uint32(i)) != nil || mb.Add(s, uint32(i)) != nil {
					t.Fatalf("%s: Builder.Add failed", name)
				}
			}
			if sh.wide > 0 && seed == 1 && len(d.t.wide) == 0 {
				t.Fatalf("%s: no node was promoted to a child index", sh.name)
			}

			b.Label()
			mb.Label()
			if b.Nodes() != mb.Nodes() || b.Sequences() != mb.Sequences() {
				t.Fatalf("%s/%d: Builder nodes %d/%d, sequences %d/%d", sh.name, seed,
					b.Nodes(), mb.Nodes(), b.Sequences(), mb.Sequences())
			}
			if b.Validate() != nil || mb.Validate() != nil {
				t.Fatalf("%s/%d: Builder Validate: slab %v, model %v", sh.name, seed, b.Validate(), mb.Validate())
			}
			if got, want := collectEmit(t, b.Emit), collectEmit(t, mb.Emit); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%d: Builder Emit differs (%d vs %d nodes)", sh.name, seed, len(got), len(want))
			}
		}
	}
	testTailCases(t)
}

// testTailCases drives the dynamic labeler through every way an Add meets a
// tail — the unbranched path an earlier Add left below its first new node —
// against the model: a sequence leaving the tail at each depth, then leaving
// what is left of it deeper down; sequences ending inside it and at its end;
// a duplicate; a sequence running on past its end. Each runs under the full
// root scope, where nothing underflows, and under one so tight that the
// first sequence uses all of it, so a later one underflows after the Add has
// materialized the tail down to where it leaves it.
func testTailCases(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := make([]Symbol, 14)
	for i := range base {
		base[i] = Symbol(rng.Intn(4))
	}
	other := func(s Symbol) Symbol { return (s + 1 + Symbol(rng.Intn(3))) % 4 }
	leave := func(k int) []Symbol {
		s := append(append([]Symbol{}, base[:k]...), other(base[k]))
		for n := rng.Intn(4); n > 0; n-- {
			s = append(s, Symbol(rng.Intn(4)))
		}
		return s
	}
	for k := 0; k < len(base); k++ {
		for _, right := range []uint64{0, uint64(len(base))} {
			for alpha := 0; alpha <= 2; alpha++ {
				d, m := NewDynamicLabeler(alpha, 3), newMapLabeler(alpha, 3)
				if right != 0 {
					shrinkRoot(d, right)
					m.root.right = right
				}
				d.Finalize()
				m.Finalize()
				seqs := [][]Symbol{base, base[:1+rng.Intn(len(base))], base, leave(k)}
				if deeper := k + 1 + rng.Intn(len(base)-k); deeper < len(base) {
					seqs = append(seqs, leave(deeper), base[:deeper])
				}
				seqs = append(seqs, append(append([]Symbol{}, base...), 1, 2), base)
				addAgainstModel(t, fmt.Sprintf("tail k=%d right=%d alpha=%d", k, right, alpha), d, m, seqs)
				if right != 0 && d.Underflows() == 0 {
					t.Fatalf("tail k=%d alpha=%d: the tight scope provoked no underflow", k, alpha)
				}
			}
		}
	}
}

// labelerLoad labels docs document-shaped sequences — a shared tag prefix,
// then one of many value symbols, then a tail that diverges into a chain —
// the way a dynamic build does: a preparatory pass over all of them, then
// the adds. 5,500 of them make a little over 100k nodes.
func labelerLoad(d *DynamicLabeler, docs int) {
	rng := rand.New(rand.NewSource(1))
	seqs := make([][]Symbol, docs)
	for i := range seqs {
		seq := []Symbol{Symbol(rng.Intn(3)), Symbol(3 + rng.Intn(4)), Symbol(100 + rng.Intn(20000))}
		for n := 8 + rng.Intn(30); len(seq) < n; {
			seq = append(seq, Symbol(rng.Intn(40)))
		}
		seqs[i] = seq
	}
	for _, seq := range seqs {
		if err := d.Prepare(seq); err != nil {
			panic(err)
		}
	}
	d.Finalize()
	for _, seq := range seqs {
		if err := d.Add(seq); err != nil {
			panic(err)
		}
	}
}

// TestLabelerBytesPerNode pins what the labeler costs per posting it stands
// for: the live heap and live object count around 100k of them, against the
// ≈ 290 bytes and two objects a node cost as a struct plus a map, and the
// 41 bytes a node cost in a slab before tails. Most of the load's postings
// are tail symbols, 4 bytes each. Bytes() must account for the heap the
// labeler holds to within 10 %.
func TestLabelerBytesPerNode(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := NewDynamicLabeler(3, 1<<20)
	labelerLoad(d, 5500)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if d.Nodes() < 100_000 {
		t.Fatalf("load made only %d nodes", d.Nodes())
	}
	n := float64(d.Nodes())
	heap := float64(after.HeapAlloc - before.HeapAlloc)
	bytesPer := heap / n
	objsPer := float64(after.HeapObjects-before.HeapObjects) / n
	t.Logf("%d nodes (%d materialized): %.1f B/node, %.4f objects/node (Bytes() says %.1f B/node, %d promoted)",
		d.Nodes(), d.t.n-1, bytesPer, objsPer, float64(d.Bytes())/n, len(d.t.wide))
	if bytesPer > 12 || objsPer > 0.01 {
		t.Fatalf("labeler costs %.1f B/node and %.4f objects/node, want <= 12 and <= 0.01", bytesPer, objsPer)
	}
	if got := float64(d.Bytes()); got < 0.9*heap || got > 1.1*heap {
		t.Fatalf("Bytes() reports %.0f B, the heap grew by %.0f B: want within 10 %%", got, heap)
	}
	runtime.KeepAlive(d)
}

// BenchmarkLabelerAdd inserts document-shaped sequences into a fresh dynamic
// labeler, 100k nodes per iteration.
func BenchmarkLabelerAdd(b *testing.B) {
	b.ReportAllocs()
	const docs = 5500
	nodes := 0
	for i := 0; i < b.N; i++ {
		d := NewDynamicLabeler(3, 1<<20)
		labelerLoad(d, docs)
		nodes += d.Nodes()
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
