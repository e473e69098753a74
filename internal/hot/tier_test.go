package hot

import (
	"container/list"
	"encoding/binary"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/btree"
	"repro/internal/pager"
)

// posting is one postings-tree entry.
type posting struct {
	sym         uint32
	left, right uint64
	level       uint32
}

// fixture is a postings tree in memory, its leaves as the tier admits them
// (images copied) and its entries in key order.
type fixture struct {
	tree   *btree.Tree
	leaves []leaf
	posts  []posting
}

// postingsFixture bulk-loads syms symbols of per postings each, Lefts dense
// within a symbol and scopes and levels small, as a MIX index's are.
func postingsFixture(t testing.TB, syms, per int) *fixture {
	t.Helper()
	f, err := btree.Open(pager.NewBufferPool(pager.NewMemFile(), 64))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := f.PackedTree("post")
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{tree: tree}
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < syms; s++ {
		left := uint64(rng.Intn(1000))
		for i := 0; i < per; i++ {
			left += 1 + uint64(rng.Intn(3))
			fx.posts = append(fx.posts, posting{uint32(s), left, left + uint64(rng.Intn(1<<rng.Intn(14))), uint32(rng.Intn(40))})
		}
	}
	next := 0
	err = tree.BulkLoad(btree.Fill{}, func() ([]byte, []byte, error) {
		if next == len(fx.posts) {
			return nil, nil, io.EOF
		}
		p := fx.posts[next]
		next++
		key := binary.BigEndian.AppendUint32(nil, p.sym)
		key = binary.BigEndian.AppendUint64(key, p.left)
		val := binary.BigEndian.AppendUint64(nil, p.right)
		return key, binary.LittleEndian.AppendUint32(val, p.level), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = tree.LeavesNoFill(Key{}, false, func(image []byte, lo, hi Key, last bool) bool {
		fx.leaves = append(fx.leaves, leaf{kind: KindPostings, lo: lo, hi: hi, last: last, image: slices.Clone(image)})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// span is a key range a run over leaves i to j (inclusive) resolves: from
// just past leaf i's first key (the zero key for leaf 0; a range from leaf
// i's first key itself also spans leaf i-1, which may end in duplicates of
// it) to just past leaf j's.
func (fx *fixture) span(i, j int) (lo, hi Key) {
	if i > 0 {
		lo = fx.leaves[i].lo
		lo.Left++
	}
	hi = fx.leaves[j].lo
	hi.Left += 2
	return lo, hi
}

// want is what a scan of the postings in [lo, hi] returns.
func (fx *fixture) want(lo, hi Key) []posting {
	var out []posting
	for _, p := range fx.posts {
		k := Key{Sym: p.sym, Left: p.left}
		if !k.Less(lo) && !hi.Less(k) {
			out = append(out, p)
		}
	}
	return out
}

// scan is what a run returns for [lo, hi].
func scan(r Run, lo, hi Key) []posting {
	var out []posting
	r.ScanPostings(lo, hi, true, true, func(sym uint32, left, right uint64, level uint32) bool {
		out = append(out, posting{sym, left, right, level})
		return true
	})
	return out
}

// leafBytes is what the tier charges for one of the fixture's leaves.
const leafBytes = pager.PageDataSize + slotBytes

// lruOrder walks the tier's LRU list from the most recently used end and
// names each leaf by its first key.
func lruOrder(tr *Tier) []Key {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []Key
	for i := tr.slots[0].next; i != 0; i = tr.slots[i].next {
		out = append(out, tr.slots[i].lo)
	}
	return out
}

func TestTierBudgetAndLRU(t *testing.T) {
	fx := postingsFixture(t, 40, 800)
	if len(fx.leaves) < 8 {
		t.Fatalf("fixture has %d leaves, want 8 or more", len(fx.leaves))
	}
	l := fx.leaves
	// Room for two leaves.
	budget := 2*leafBytes + leafBytes/2
	tr := NewTier(budget)
	if !tr.add(l[0], true) || !tr.add(l[1], true) {
		t.Fatal("admission under budget failed")
	}
	lo, hi := fx.span(0, 0)
	if _, ok := tr.Run(KindPostings, lo, hi, nil); !ok { // leaf 0 becomes MRU
		t.Fatal("leaf 0 not resident")
	}
	if !tr.add(l[2], true) { // evicts leaf 1 (LRU)
		t.Fatal("leaf 2 rejected")
	}
	if got, want := lruOrder(tr), []Key{l[2].lo, l[0].lo}; !slices.Equal(got, want) {
		t.Fatalf("LRU order %v, want %v", got, want)
	}
	lo, hi = fx.span(1, 1)
	if _, ok := tr.Run(KindPostings, lo, hi, nil); ok {
		t.Fatal("leaf 1 survived eviction")
	}
	st := tr.Stats()
	if st.Evictions != 1 || st.Bytes != 2*leafBytes || st.Items != 2 || st.Budget != budget || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
	// A run over leaves 0 and 1 misses while 1 is out, and its keys' scan
	// after a Load matches the tree.
	lo, hi = fx.span(0, 1)
	if _, ok := tr.Run(KindPostings, lo, hi, nil); ok {
		t.Fatal("run across a missing leaf resolved")
	}
	run, ok := tr.Load(fx.tree, KindPostings, lo, hi, nil)
	if !ok || len(run) != 2 {
		t.Fatalf("Load resolved %d leaves, %v", len(run), ok)
	}
	if got, want := scan(run, lo, hi), fx.want(lo, hi); !slices.Equal(got, want) {
		t.Fatalf("run scans %d postings, want %d", len(got), len(want))
	}
	// A leaf already resident is kept as it is.
	if !tr.add(l[0], false) || tr.Stats().Items != 2 {
		t.Fatal("re-adding a resident leaf changed the tier")
	}
	// TryAdd never evicts.
	if tr.add(l[5], false) {
		t.Fatal("TryAdd evicted")
	}
	// A leaf larger than the whole budget is refused.
	if NewTier(leafBytes-1).add(l[0], true) {
		t.Fatal("oversized leaf admitted")
	}
	// Invalidating a key inside leaf 1 drops leaf 1 alone; leaf 1's first
	// key also lies at leaf 0's end, so it drops both.
	inside := Key{Sym: l[1].lo.Sym, Left: l[1].lo.Left + 1}
	tr.Invalidate(KindPostings, inside)
	if got := lruOrder(tr); !slices.Equal(got, []Key{l[0].lo}) {
		t.Fatalf("after invalidating inside leaf 1: %v resident", got)
	}
	tr.add(l[1], true)
	tr.Invalidate(KindPostings, l[1].lo)
	if tr.Stats().Items != 0 {
		t.Fatalf("invalidating leaf 1's first key left %v", lruOrder(tr))
	}
	tr.add(l[3], true)
	tr.InvalidateKind(KindDocIDs)
	if tr.Stats().Items != 1 {
		t.Fatal("InvalidateKind dropped another tree's leaves")
	}
	tr.InvalidateKind(KindPostings)
	tr.add(l[4], true)
	tr.InvalidateAll()
	if st := tr.Stats(); st.Items != 0 || st.Bytes != 0 {
		t.Fatalf("InvalidateAll left %+v", st)
	}
}

// A failed admission leaves the tier exactly as it was — what was resident
// stays resident and readable — and a run handed out earlier keeps scanning
// what it scanned.
func TestTierFailedAdmissionLeavesResident(t *testing.T) {
	fx := postingsFixture(t, 40, 800)
	l := fx.leaves
	tr := NewTier(2*leafBytes + 100)
	if !tr.add(l[0], true) || !tr.add(l[1], true) {
		t.Fatal("setup admissions failed")
	}
	lo, hi := fx.span(0, 1)
	held, ok := tr.Run(KindPostings, lo, hi, nil)
	if !ok {
		t.Fatal("leaves 0 and 1 not resident")
	}
	want := fx.want(lo, hi)
	before := tr.Stats()
	// TryAdd that fits only by evicting: refused, nothing dropped.
	if tr.add(l[2], false) {
		t.Fatal("TryAdd admitted a leaf that needs an eviction")
	}
	// Preload stops at the first leaf that does not fit.
	if tr.Preload(fx.tree, KindPostings) {
		t.Fatal("Preload of more leaves than fit reported success")
	}
	after := tr.Stats()
	if after.Bytes != before.Bytes || after.Items != before.Items || after.Evictions != before.Evictions {
		t.Fatalf("failed admissions changed the stats: %+v → %+v", before, after)
	}
	if _, ok := tr.Run(KindPostings, lo, hi, nil); !ok {
		t.Fatal("a failed admission dropped a resident leaf")
	}
	// An evicting Load replaces; the held run still reads its leaves.
	lo2, hi2 := fx.span(2, 3)
	if _, ok := tr.Load(fx.tree, KindPostings, lo2, hi2, nil); !ok {
		t.Fatal("Load of two leaves into a two-leaf budget failed")
	}
	if st := tr.Stats(); st.Items != 2 || st.Evictions != 2 {
		t.Fatalf("stats after the Load %+v", st)
	}
	if got := scan(held, lo, hi); !slices.Equal(got, want) {
		t.Fatal("a run handed out earlier changed")
	}
	// A range larger than the budget is not resident after its Load.
	lo3, hi3 := fx.span(0, 3)
	if _, ok := tr.Load(fx.tree, KindPostings, lo3, hi3, nil); ok {
		t.Fatal("a four-leaf range resolved in a two-leaf budget")
	}
}

// tierModel is the reference the slot slab and orders replace:
// container/list over the resident leaves (by index into the fixture),
// front = most recently used.
type tierModel struct {
	budget, bytes           int64
	hits, misses, evictions uint64
	order                   *list.List // of int
	elems                   map[int]*list.Element
}

func (m *tierModel) remove(i int) {
	if el, ok := m.elems[i]; ok {
		m.order.Remove(el)
		m.bytes -= leafBytes
		delete(m.elems, i)
	}
}

func (m *tierModel) add(i int, evict bool) bool {
	if el, ok := m.elems[i]; ok {
		m.order.MoveToFront(el)
		return true
	}
	if leafBytes > m.budget || (!evict && leafBytes > m.budget-m.bytes) {
		return false
	}
	for m.bytes+leafBytes > m.budget {
		m.remove(m.order.Back().Value.(int))
		m.evictions++
	}
	m.elems[i] = m.order.PushFront(i)
	m.bytes += leafBytes
	return true
}

func (m *tierModel) run(i, j int) bool {
	for k := i; k <= j; k++ {
		if _, ok := m.elems[k]; !ok {
			m.misses++
			return false
		}
	}
	for k := i; k <= j; k++ {
		m.order.MoveToFront(m.elems[k])
	}
	m.hits++
	return true
}

// tierOp is one step of a model run: op 0-3 add, 4 TryAdd, 5-7 Run of
// leaves a to b, 8 Invalidate inside leaf a, 9 Invalidate at leaf a's first
// key, 10 InvalidateAll.
type tierOp struct {
	op   byte
	a, b int
}

// heldRun is a run the test keeps across later operations with the range it
// was resolved for.
type heldRun struct {
	run    Run
	lo, hi Key
}

// runTierModel drives a tier and the model through ops over the fixture's
// leaves, checking after every step the LRU order, the stats and the arena
// accounting, and now and then every run handed out so far. It returns the
// number of arena repacks it saw.
func runTierModel(t *testing.T, fx *fixture, budget int64, ops []tierOp) (repacks int) {
	tr := NewTier(budget)
	m := &tierModel{budget: budget, order: list.New(), elems: map[int]*list.Element{}}
	var held []heldRun
	for step, o := range ops {
		arenaLen := len(tr.arena.buf)
		switch {
		case o.op < 5:
			evict := o.op < 4
			if got, want := tr.add(fx.leaves[o.a], evict), m.add(o.a, evict); got != want {
				t.Fatalf("step %d: add(leaf %d, evict=%v) = %v, model %v", step, o.a, evict, got, want)
			}
		case o.op < 8:
			lo, hi := fx.span(o.a, o.b)
			run, ok := tr.Run(KindPostings, lo, hi, nil)
			if want := m.run(o.a, o.b); ok != want || ok && len(run) != o.b-o.a+1 {
				t.Fatalf("step %d: Run(leaves %d..%d) = %d leaves %v, model %v", step, o.a, o.b, len(run), ok, want)
			}
			if ok && len(held) < 8 {
				held = append(held, heldRun{run, lo, hi})
			} else if ok {
				held[step%len(held)] = heldRun{run, lo, hi}
			}
		case o.op == 8:
			l := fx.leaves[o.a]
			tr.Invalidate(KindPostings, Key{Sym: l.lo.Sym, Left: l.lo.Left + 1})
			m.remove(o.a)
		case o.op == 9:
			tr.Invalidate(KindPostings, fx.leaves[o.a].lo)
			m.remove(o.a)
			if o.a > 0 {
				m.remove(o.a - 1)
			}
		default:
			tr.InvalidateAll()
			for k := range fx.leaves {
				m.remove(k)
			}
			arenaLen = 0
		}
		if len(tr.arena.buf) < arenaLen {
			repacks++
		}
		var order []Key
		for el := m.order.Front(); el != nil; el = el.Next() {
			order = append(order, fx.leaves[el.Value.(int)].lo)
		}
		if got := lruOrder(tr); !slices.Equal(got, order) {
			t.Fatalf("step %d: LRU order %v, model %v", step, got, order)
		}
		st := tr.Stats()
		want := Stats{Budget: budget, Bytes: m.bytes, Items: len(m.elems), Hits: m.hits, Misses: m.misses, Evictions: m.evictions}
		if st != want {
			t.Fatalf("step %d: stats %+v, model %+v", step, st, want)
		}
		checkArena(t, tr)
		if step%50 == 0 {
			for i, h := range held {
				if got, want := scan(h.run, h.lo, h.hi), fx.want(h.lo, h.hi); !slices.Equal(got, want) {
					t.Fatalf("step %d: run %d handed out earlier scans %d postings, want %d", step, i, len(got), len(want))
				}
			}
		}
	}
	return repacks
}

// checkArena holds the arena accounting: live is what resident slots span,
// and holes never outgrow half of it.
func checkArena(t *testing.T, tr *Tier) {
	t.Helper()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	live := 0
	for i := range tr.slots {
		if s := &tr.slots[i]; s.resident {
			live += int(s.n)
		}
	}
	if live != tr.arena.live {
		t.Fatalf("live %d, slots span %d", tr.arena.live, live)
	}
	if len(tr.arena.buf)-live > live/2 {
		t.Fatalf("holes past half the live payload: %d of %d", len(tr.arena.buf), live)
	}
}

// randomTierOps draws a churn-heavy trace over n leaves.
func randomTierOps(rng *rand.Rand, n, steps int) []tierOp {
	ops := make([]tierOp, steps)
	for i := range ops {
		a := rng.Intn(n)
		b := min(n-1, a+rng.Intn(3))
		op := byte(rng.Intn(10))
		if rng.Intn(200) == 0 {
			op = 10
		}
		ops[i] = tierOp{op: op, a: a, b: b}
	}
	return ops
}

// TestTierAgainstModel runs seeded random traces against the reference LRU
// under budgets from "one leaf at a time" to "everything fits".
func TestTierAgainstModel(t *testing.T) {
	fx := postingsFixture(t, 40, 800)
	repacks := 0
	for seed, leaves := range []int64{1, 3, 6, int64(len(fx.leaves))} {
		rng := rand.New(rand.NewSource(int64(seed)))
		repacks += runTierModel(t, fx, leaves*leafBytes+leafBytes/3, randomTierOps(rng, len(fx.leaves), 1500))
	}
	if repacks == 0 {
		t.Fatal("no trace repacked an arena")
	}
	t.Logf("%d arena repacks", repacks)
}

// FuzzTier decodes a budget in leaves and an operation trace from the
// input: three bytes per step — operation, leaf, run length — up to 1,024
// steps.
func FuzzTier(f *testing.F) {
	fx := postingsFixture(f, 40, 800)
	f.Add([]byte{2, 0, 0, 0, 0, 1, 0, 5, 0, 2, 0, 0, 8, 1, 0, 3, 2, 0, 9, 1, 0})
	f.Add([]byte{1, 0, 0, 0, 1, 1, 0, 4, 2, 0, 6, 0, 1, 10, 0, 0, 2, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := len(fx.leaves)
		budget := int64(1+int(data[0])%n) * leafBytes
		var ops []tierOp
		for b := data[1:min(len(data), 1+3*1024)]; len(b) >= 3; b = b[3:] {
			a := int(b[1]) % n
			ops = append(ops, tierOp{op: b[0] % 11, a: a, b: min(n-1, a+int(b[2])%3)})
		}
		runTierModel(t, fx, budget, ops)
	})
}

// Readers scan runs they hold while a writer invalidates and re-admits
// leaves under a budget small enough to keep evicting, so the arena is
// repacked under them; every run must keep scanning what its range holds.
// Run under -race by make race.
func TestTierViewsSurviveCompaction(t *testing.T) {
	const rounds = 3000
	fx := postingsFixture(t, 40, 800)
	n := len(fx.leaves)
	tr := NewTier(4 * leafBytes)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var held []heldRun
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lo, hi := fx.span((i+r)%(n-1), (i+r)%(n-1)+1)
				if run, ok := tr.Run(KindPostings, lo, hi, nil); ok {
					held = append(held, heldRun{run, lo, hi})
					if len(held) > 8 {
						held = held[1:]
					}
				}
				for _, h := range held {
					if got, want := scan(h.run, h.lo, h.hi), fx.want(h.lo, h.hi); !slices.Equal(got, want) {
						t.Errorf("reader %d: a held run scans %d postings, want %d", r, len(got), len(want))
						return
					}
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < rounds; i++ {
		l := fx.leaves[rng.Intn(n)]
		if rng.Intn(4) == 0 {
			tr.Invalidate(KindPostings, l.lo)
		} else {
			tr.add(l, true)
		}
	}
	close(stop)
	wg.Wait()
	runtime.KeepAlive(tr)
}

// liveHeap is the live heap and its object count after a full collection.
func liveHeap() (bytes, objects int64) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc), int64(ms.HeapObjects)
}

// A loaded tier costs its leaf images plus a small constant per leaf, in a
// handful of objects, and Stats().Bytes says what it costs. The load is
// MIX-shaped: 96,000 postings with dense Lefts, scopes up to 13 bits and
// levels below 40 over 9,600 symbols, about the 48 leaves MIX's postings
// tree packs into.
func TestTierBytesPerStructure(t *testing.T) {
	fx := postingsFixture(t, 9600, 10)
	leaves := fx.leaves
	fx = nil
	payload := int64(len(leaves)) * pager.PageDataSize

	bytes0, objects0 := liveHeap()
	tr := NewTier(1 << 30)
	for i, l := range leaves {
		if !tr.add(l, false) {
			t.Fatalf("leaf %d not admitted", i)
		}
	}
	tr.Trim()
	bytes1, objects1 := liveHeap()
	runtime.KeepAlive(tr)
	runtime.KeepAlive(leaves)

	heap, objects := bytes1-bytes0, objects1-objects0
	perLeaf := float64(heap-payload) / float64(len(leaves))
	st := tr.Stats()
	t.Logf("%d leaves, %d payload bytes: %d heap bytes in %d objects (%.1f B per leaf beyond its image), Stats().Bytes %d",
		len(leaves), payload, heap, objects, perLeaf, st.Bytes)
	if st.Items != len(leaves) || len(leaves) < 40 {
		t.Fatalf("%d items resident of %d leaves, want all of 40 or more", st.Items, len(leaves))
	}
	if perLeaf > 300 {
		t.Errorf("a leaf costs %.1f bytes beyond its image, want ≤ 300", perLeaf)
	}
	if objects > 16 {
		t.Errorf("the tier is %d heap objects, want ≤ 16", objects)
	}
	if st.Bytes < heap*95/100 || st.Bytes > heap*105/100 {
		t.Errorf("Stats().Bytes = %d, measured heap %d: more than 5 %% apart", st.Bytes, heap)
	}
}
