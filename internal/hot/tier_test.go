package hot

import (
	"container/list"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// listEntry is a list entry of kind k whose payload is n copies of fill.
func listEntry(k Kind, n int, fill byte) Entry {
	data := make([]byte, n)
	for i := range data {
		data[i] = fill
	}
	return Entry{kind: k, list: data}
}

// entryFor is an entry of key's kind with payload n bytes.
func entryFor(key Key, n int, fill byte) Entry { return listEntry(key.Kind, n, fill) }

// view is what a public view of a resident structure reads: a list's bytes,
// aliasing the tier's arena.
type view struct{ list []byte }

func (v view) bytes() []byte { return v.list }

// payloadOf reads key's resident payload through the counted lookup the
// public views are made by.
func payloadOf(tr *Tier, key Key) (view, bool) {
	b, ok := tr.get(key)
	return view{list: b}, ok
}

// entryBytes is what payloadOf returns for e once resident.
func entryBytes(e Entry) []byte { return slices.Clone(e.list) }

// lruOrder walks the tier's LRU list from the most recently used end.
func lruOrder(tr *Tier) []Key {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []Key
	for i := tr.slots[0].next; i != 0; i = tr.slots[i].next {
		out = append(out, Key{tr.slots[i].kind, tr.slots[i].id})
	}
	return out
}

func TestTierBudgetAndLRU(t *testing.T) {
	ka, kb, kc, kd, ke := Key{KindPostings, 20}, Key{KindPostings, 21}, Key{KindPostings, 0}, Key{KindPostings, 1}, Key{KindDocIDs, 0}
	khuge := Key{KindPostings, 9}
	// Room for three 40-byte payloads' slots but only two of the payloads.
	budget := 100 + 3*slotBytes
	tr := NewTier(budget)
	if tr.Budget() != budget {
		t.Fatal("budget")
	}
	if !tr.Add(ka, entryFor(ka, 40, 1)) || !tr.Add(kb, entryFor(kb, 40, 2)) {
		t.Fatal("admission under budget failed")
	}
	if _, ok := payloadOf(tr, ka); !ok { // a becomes MRU
		t.Fatal("a missing")
	}
	if !tr.Add(kc, entryFor(kc, 40, 3)) { // evicts b (LRU)
		t.Fatal("c rejected")
	}
	if _, ok := payloadOf(tr, kb); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := payloadOf(tr, ka); !ok {
		t.Fatal("a evicted out of LRU order")
	}
	st := tr.Stats()
	if st.Evictions != 1 || st.Bytes != 80+2*slotBytes || st.Items != 2 || st.Budget != budget {
		t.Fatalf("stats %+v", st)
	}
	if st.Hits < 2 || st.Misses < 1 {
		t.Fatalf("hit accounting %+v", st)
	}
	// Oversized item rejected outright.
	if tr.Add(khuge, entryFor(khuge, int(budget-slotBytes)+1, 9)) {
		t.Fatal("oversized admitted")
	}
	// TryAdd never evicts.
	if tr.TryAdd(kd, entryFor(kd, 40, 4)) {
		t.Fatal("TryAdd evicted")
	}
	if !tr.TryAdd(ke, entryFor(ke, 10, 5)) {
		t.Fatal("TryAdd rejected a fitting item")
	}
	// Replacement frees the old size.
	if !tr.Add(ka, entryFor(ka, 16, 6)) {
		t.Fatal("replace failed")
	}
	if want := 16 + 40 + 10 + 3*slotBytes; tr.Bytes() != want {
		t.Fatalf("bytes after replace = %d, want %d", tr.Bytes(), want)
	}
	tr.Invalidate(ka)
	if _, ok := payloadOf(tr, ka); ok {
		t.Fatal("a survived Invalidate")
	}
	tr.Reject(kb)
	if !tr.Rejected(kb) || tr.Rejected(kc) {
		t.Fatal("rejection marks")
	}
	tr.Invalidate(kb)
	if tr.Rejected(kb) {
		t.Fatal("Invalidate kept the rejection mark")
	}
	tr.InvalidateAll()
	if tr.Len() != 0 || tr.Bytes() != 0 {
		t.Fatal("InvalidateAll left residue")
	}
}

// A failed Add or TryAdd leaves the tier exactly as it was — the key's old
// structure resident, readable and unmarked — and a successful one replaces.
func TestTierFailedAdmissionLeavesResident(t *testing.T) {
	key := Key{KindPostings, 7}
	other := Key{KindPostings, 8}
	tr := NewTier(200 + 2*slotBytes)
	old := entryFor(key, 60, 1)
	if !tr.Add(key, old) || !tr.Add(other, entryFor(other, 100, 2)) {
		t.Fatal("setup admissions failed")
	}
	held, _ := tr.Postings(key.ID)
	check := func(step string, want Entry) {
		t.Helper()
		got, ok := payloadOf(tr, key)
		if !ok || !slices.Equal(got.bytes(), entryBytes(want)) {
			t.Fatalf("%s: key resident=%v with %d bytes, want the %d-byte entry", step, ok, len(got.list), len(want.list))
		}
		if tr.Rejected(key) {
			t.Fatalf("%s: key marked rejected", step)
		}
		if !slices.Equal(held.data, entryBytes(old)) {
			t.Fatalf("%s: a view handed out earlier changed", step)
		}
	}
	before := tr.Stats()

	// TryAdd that fits only by evicting: refused, nothing dropped.
	if tr.TryAdd(key, entryFor(key, 120, 3)) {
		t.Fatal("TryAdd admitted an entry that needs an eviction")
	}
	check("failed TryAdd", old)
	// Add larger than the whole budget: refused, the old entry stays.
	if tr.Add(key, entryFor(key, 300, 4)) {
		t.Fatal("Add admitted an entry over the whole budget")
	}
	tr.Reject(key) // what the engine does after a failed Add: no effect on a resident key
	check("failed Add", old)
	if _, ok := payloadOf(tr, other); !ok {
		t.Fatal("a failed admission evicted another key")
	}
	after := tr.Stats()
	if after.Bytes != before.Bytes || after.Items != before.Items || after.Evictions != before.Evictions {
		t.Fatalf("failed admissions changed the stats: %+v → %+v", before, after)
	}

	// Successful ones replace.
	fit := entryFor(key, 90, 5)
	if !tr.TryAdd(key, fit) {
		t.Fatal("TryAdd of an entry that fits in the freed room failed")
	}
	check("TryAdd replace", fit)
	bigger := entryFor(key, 150, 6)
	if !tr.Add(key, bigger) {
		t.Fatal("Add replace failed")
	}
	check("Add replace", bigger)
	if _, ok := payloadOf(tr, other); ok {
		t.Fatal("Add replace did not evict to make room")
	}
	if st := tr.Stats(); st.Bytes != 150+slotBytes || st.Items != 1 || st.Evictions != 1 {
		t.Fatalf("stats after replacements %+v", st)
	}
}

// tierModel is the reference the slot slab replaced: container/list over the
// resident keys, front = most recently used, plus a rejection set.
type tierModel struct {
	budget, bytes           int64
	hits, misses, evictions uint64
	order                   *list.List // of Key
	elems                   map[Key]*list.Element
	payload                 map[Key][]byte
	size                    map[Key]int64
	rejected                map[Key]bool
}

func newTierModel(budget int64) *tierModel {
	return &tierModel{budget: budget, order: list.New(), elems: map[Key]*list.Element{},
		payload: map[Key][]byte{}, size: map[Key]int64{}, rejected: map[Key]bool{}}
}

func (m *tierModel) remove(k Key) {
	if el, ok := m.elems[k]; ok {
		m.order.Remove(el)
		m.bytes -= m.size[k]
		delete(m.elems, k)
		delete(m.payload, k)
		delete(m.size, k)
	}
	delete(m.rejected, k)
}

func (m *tierModel) add(k Key, e Entry, evict bool) bool {
	size := e.size()
	room := m.budget - m.bytes + m.size[k]
	if size > m.budget || (!evict && size > room) {
		return false
	}
	m.remove(k)
	for m.bytes+size > m.budget {
		m.remove(m.order.Back().Value.(Key))
		m.evictions++
	}
	m.elems[k] = m.order.PushFront(k)
	m.payload[k], m.size[k] = entryBytes(e), size
	m.bytes += size
	return true
}

func (m *tierModel) get(k Key) ([]byte, bool) {
	el, ok := m.elems[k]
	if !ok {
		m.misses++
		return nil, false
	}
	m.hits++
	m.order.MoveToFront(el)
	return m.payload[k], true
}

// heldView is a view the test keeps across later operations with the bytes
// it read when it was handed out.
type heldView struct {
	v    view
	want []byte
}

// tierOp is one step of a model run.
type tierOp struct {
	op   byte // 0-3 Add, 4 TryAdd, 5-7 Get, 8 Invalidate, 9 Reject, 10 InvalidateAll
	key  Key
	size int
	fill byte
}

// runTierModel drives a tier and the model through ops, checking after every
// step the LRU order, the stats, the rejection marks, the arena accounting
// and every view handed out so far. It returns the number of arena repacks
// it saw.
func runTierModel(t *testing.T, budget int64, ops []tierOp) (repacks int) {
	tr, m := NewTier(budget), newTierModel(budget)
	var held []heldView
	keys := map[Key]bool{}
	for step, o := range ops {
		keys[o.key] = true
		lists := len(tr.lists.buf)
		switch {
		case o.op < 5:
			e := entryFor(o.key, o.size, o.fill)
			evict := o.op < 4
			want := m.add(o.key, e, evict)
			if got := tr.add(o.key, e, evict); got != want {
				t.Fatalf("step %d: add(%v, %d B, evict=%v) = %v, model %v", step, o.key, o.size, evict, got, want)
			}
			clear(e.list) // the tier must have copied the entry
		case o.op < 8:
			want, wantOK := m.get(o.key)
			got, ok := payloadOf(tr, o.key)
			if b := got.bytes(); ok != wantOK || !slices.Equal(b, want) {
				t.Fatalf("step %d: get(%v) = %d B %v, model %d B %v", step, o.key, len(b), ok, len(want), wantOK)
			}
			if ok {
				hv := heldView{v: got, want: slices.Clone(got.bytes())}
				if len(held) < 64 {
					held = append(held, hv)
				} else {
					held[int(o.fill)%len(held)] = hv
				}
			}
		case o.op == 8:
			m.remove(o.key)
			tr.Invalidate(o.key)
		case o.op == 9:
			if _, ok := m.elems[o.key]; !ok {
				m.rejected[o.key] = true
			}
			tr.Reject(o.key)
		default:
			for k := range keys {
				m.remove(k)
			}
			tr.InvalidateAll()
			lists = 0
		}
		if len(tr.lists.buf) < lists {
			repacks++
		}
		var order []Key
		for el := m.order.Front(); el != nil; el = el.Next() {
			order = append(order, el.Value.(Key))
		}
		if got := lruOrder(tr); !slices.Equal(got, order) {
			t.Fatalf("step %d: LRU order %v, model %v", step, got, order)
		}
		st := tr.Stats()
		want := Stats{Budget: budget, Bytes: m.bytes, Items: len(m.elems), Hits: m.hits, Misses: m.misses, Evictions: m.evictions}
		if st != want {
			t.Fatalf("step %d: stats %+v, model %+v", step, st, want)
		}
		for k := range keys {
			if tr.Rejected(k) != m.rejected[k] {
				t.Fatalf("step %d: %v rejected=%v, model %v", step, k, !m.rejected[k], m.rejected[k])
			}
		}
		checkArenas(t, tr)
		for i, hv := range held {
			if !slices.Equal(hv.v.bytes(), hv.want) {
				t.Fatalf("step %d: view %d handed out earlier now reads other bytes", step, i)
			}
		}
	}
	return repacks
}

// checkArenas holds the arena accounting: live is what resident slots span,
// and holes never outgrow half of it.
func checkArenas(t *testing.T, tr *Tier) {
	t.Helper()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	lists := 0
	for i := range tr.slots {
		if s := &tr.slots[i]; s.state == slotResident {
			lists += int(s.n)
		}
	}
	if lists != tr.lists.live {
		t.Fatalf("live %d, slots span %d", tr.lists.live, lists)
	}
	if len(tr.lists.buf)-lists > lists/2 {
		t.Fatalf("holes past half the live payload: %d of %d", len(tr.lists.buf), lists)
	}
}

// randomTierOps draws a churn-heavy trace over a few keys of each kind.
func randomTierOps(rng *rand.Rand, n int) []tierOp {
	ops := make([]tierOp, n)
	for i := range ops {
		var key Key
		switch rng.Intn(5) {
		case 0, 1:
			key = Key{KindPostings, uint32(rng.Intn(12))}
		case 2:
			key = Key{Kind: KindDocIDs}
		default:
			key = Key{KindPostings, 12 + uint32(rng.Intn(20))}
		}
		op := byte(rng.Intn(10))
		if rng.Intn(200) == 0 {
			op = 10
		}
		ops[i] = tierOp{op: op, key: key, size: rng.Intn(300), fill: byte(rng.Intn(256))}
	}
	return ops
}

// TestTierAgainstModel runs seeded random traces against the reference LRU
// under budgets from "one entry at a time" to "everything fits".
func TestTierAgainstModel(t *testing.T) {
	repacks := 0
	for seed, budget := range []int64{200, 900, 3000, 1 << 20} {
		rng := rand.New(rand.NewSource(int64(seed)))
		repacks += runTierModel(t, budget, randomTierOps(rng, 4000))
	}
	if repacks == 0 {
		t.Fatal("no trace repacked an arena")
	}
	t.Logf("%d arena repacks", repacks)
}

// FuzzTier decodes a budget and an operation trace from the input: four
// bytes per step — operation, key, payload size, fill — up to 1,024 steps.
func FuzzTier(f *testing.F) {
	f.Add([]byte{1, 0, 1, 40, 1, 0, 2, 40, 2, 5, 1, 0, 0, 0, 3, 40, 3, 8, 1, 0, 0})
	f.Add([]byte{0, 0, 0, 200, 1, 1, 0, 200, 2, 8, 0, 0, 0, 0, 130, 100, 4, 6, 130, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		budget := 64 + 16*int64(data[0])
		var ops []tierOp
		for b := data[1:min(len(data), 1+4*1024)]; len(b) >= 4; b = b[4:] {
			key := Key{Kind(b[1] >> 6 % 2), uint32(b[1] & 15)} // KindPostings or KindDocIDs
			if key.Kind == KindDocIDs {
				key.ID = 0
			}
			ops = append(ops, tierOp{op: b[0] % 11, key: key, size: int(b[2]) * 2, fill: b[3]})
		}
		runTierModel(t, budget, ops)
	})
}

// Readers scan views they hold while a writer replaces, invalidates and
// re-admits lists under a budget small enough to keep evicting, so arenas
// are repacked under them; every view must keep reading what it read when it
// was handed out. Run under -race by make race.
func TestTierViewsSurviveCompaction(t *testing.T) {
	const syms, rounds = 16, 3000
	tr := NewTier(8 << 10)
	list := func(fill uint32, n int) Entry {
		b := NewPostingsBuilder()
		for i := 0; i < n; i++ {
			b.Add(uint64(i), uint64(fill), fill)
		}
		return b.View().Entry()
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var held []Postings
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if p, ok := tr.Postings(uint32((i + r) % syms)); ok {
					held = append(held, p)
					if len(held) > 32 {
						held = held[1:]
					}
				}
				for _, p := range held {
					var fill uint64
					n := 0
					p.Scan(0, ^uint64(0), true, true, func(left, right uint64, level uint32) bool {
						if n == 0 {
							fill = right
						}
						if left != uint64(n) || right != fill || uint64(level) != fill {
							t.Errorf("reader %d: entry %d of a held view reads (%d, %d, %d), fill %d", r, n, left, right, level, fill)
							return false
						}
						n++
						return true
					})
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < rounds; i++ {
		sym := uint32(rng.Intn(syms))
		if rng.Intn(4) == 0 {
			tr.Invalidate(Key{KindPostings, sym})
		} else {
			tr.Add(Key{KindPostings, sym}, list(uint32(i), 1+rng.Intn(40)))
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

// A loaded tier costs its payload plus a small constant per structure, in a
// handful of objects, and Stats().Bytes says what it costs. The load is
// MIX-shaped: 96,004 trie nodes with dense labels (Left the node's rank,
// scopes up to 13 bits, levels below 40) dealt out to 9,230 posting lists,
// each symbol's nodes clustered within a stretch of the trie as element
// names are, and a 6,000-entry docid list. The packed lists must stay within
// 10 % of the 4.18 B a posting, headers included, this load packs into.
func TestTierBytesPerStructure(t *testing.T) {
	const lists, postings, docs = 9230, 96004, 6000
	rng := rand.New(rand.NewSource(1))
	bySym := make([][]cell, lists)
	for i := 0; i < postings; i++ {
		sym := (i*lists/postings + rng.Intn(64)) % lists
		bySym[sym] = append(bySym[sym], cell{uint64(i), uint64(rng.Intn(1 << rng.Intn(14))), uint32(rng.Intn(40))})
	}
	entries := make([]Entry, lists)
	payload := int64(0)
	pb := NewPostingsBuilder()
	for sym, cs := range bySym {
		pb.Reset()
		for _, c := range cs {
			pb.Add(c.left, c.left+c.mid, c.last)
		}
		entries[sym] = pb.Build().Entry()
		payload += int64(len(entries[sym].list))
	}
	perPosting := float64(payload) / postings
	db := NewDocIDsBuilder()
	for d := 0; d < docs; d++ {
		db.Add(uint64(d)*16, uint32(d*7919%docs))
	}
	docids := db.Build().Entry()
	payload += int64(len(docids.list))
	bySym, pb, db = nil, nil, nil

	bytes0, objects0 := liveHeap()
	tr := NewTier(1 << 30)
	if !tr.TryAdd(Key{Kind: KindDocIDs}, docids) {
		t.Fatal("docid list not admitted")
	}
	for sym, e := range entries {
		if !tr.TryAdd(Key{KindPostings, uint32(sym)}, e) {
			t.Fatalf("list %d not admitted", sym)
		}
	}
	tr.Trim()
	bytes1, objects1 := liveHeap()
	runtime.KeepAlive(tr)
	runtime.KeepAlive(entries)
	runtime.KeepAlive(docids)

	structures := int64(lists + 1)
	heap, objects := bytes1-bytes0, objects1-objects0
	perStructure := float64(heap-payload) / float64(structures)
	st := tr.Stats()
	t.Logf("%d structures, %d payload bytes (%.2f B a posting, docid list %d B): %d heap bytes in %d objects (%.1f B per structure beyond its payload), Stats().Bytes %d",
		structures, payload, perPosting, len(docids.list), heap, objects, perStructure, st.Bytes)
	if st.Items != int(structures) {
		t.Fatalf("%d items resident, want %d", st.Items, structures)
	}
	if perPosting > 4.5 {
		t.Errorf("posting lists take %.2f B a posting, want ≤ 4.5", perPosting)
	}
	if perStructure > 32 {
		t.Errorf("a structure costs %.1f bytes beyond its payload, want ≤ 32", perStructure)
	}
	if objects > 16 {
		t.Errorf("the tier is %d heap objects, want ≤ 16", objects)
	}
	if st.Bytes < heap*95/100 || st.Bytes > heap*105/100 {
		t.Errorf("Stats().Bytes = %d, measured heap %d: more than 5 %% apart", st.Bytes, heap)
	}
}
