package hot

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Kind says which structure a Key names.
type Kind uint8

const (
	KindPostings Kind = iota // ID is the Trie-Symbol tree's symbol
	KindDocIDs               // the one Docid list; ID is 0
)

// Key names one resident structure. It is comparable, so the engine builds
// it per lookup without allocating.
type Key struct {
	Kind Kind
	ID   uint32
}

// Entry is one structure on its way into the tier, made by the Entry method
// of a Postings or DocIDs. Add copies it into the arena, so the memory it
// points at may be reused as soon as Add returns.
type Entry struct {
	kind Kind
	list []byte // a posting or docid list's encoding
}

// slotBytes is what a resident structure costs beyond its payload: its slot
// and its index cell.
const slotBytes = int64(unsafe.Sizeof(slot{})) + 4

// size is what the tier charges for e.
func (e Entry) size() int64 { return int64(len(e.list)) + slotBytes }

// Slot states.
const (
	slotFree     uint8 = iota // on the free list, or slot 0
	slotResident              // payload in an arena, on the LRU list
	slotRejected              // no payload: marked by Reject
)

// slot is one key's bookkeeping: where its payload lies and where it sits in
// the LRU order. A slot holds no pointer, so the collector never looks
// inside the slab.
type slot struct {
	id         uint32 // the key's ID
	off        uint32 // payload offset into the arena
	n          uint32 // the list's length in bytes
	prev, next int32  // LRU links through slot 0; next also chains free slots
	kind       Kind
	state      uint8
}

// charge is what the slot's structure costs the budget.
func (s *slot) charge() int64 { return int64(s.n) + slotBytes }

// arena is an append-only payload store. Nothing below len(buf) is ever
// rewritten: a payload stays where it was put until the tier moves every
// live payload into a fresh array, and a view handed out earlier keeps the
// old array alive for as long as its holder needs it.
type arena struct {
	buf  []byte
	live int // bytes resident structures still use; the rest are holes
}

// put appends p and returns its offset.
func (a *arena) put(p []byte) uint32 {
	off := len(a.buf)
	a.buf = append(a.buf, p...)
	a.live += len(p)
	return uint32(off)
}

// view returns slot s's payload, capped so no append can reach past it.
func (a *arena) view(s *slot) []byte {
	end := int(s.off) + int(s.n)
	return a.buf[s.off:end:end]
}

// repack copies the payload of every resident slot into a fresh, exactly
// sized array and re-points the slots.
func (a *arena) repack(slots []slot) {
	fresh := make([]byte, 0, a.live)
	for i := range slots {
		s := &slots[i]
		if s.state == slotResident {
			off := len(fresh)
			fresh = append(fresh, a.view(s)...)
			s.off = uint32(off)
		}
	}
	a.buf = fresh
}

// holey reports whether the arena's holes outgrow half of its live payload.
func (a *arena) holey() bool { return len(a.buf)-a.live > a.live/2 }

// Tier is the budgeted cache: posting lists and the docid list share one
// byte budget with LRU demotion. Its state is a handful of pointer-free
// arrays: one slot slab whose int32 links form the LRU list, a dense slot
// index over symbols, and one append-only arena holding every payload. All
// methods are safe for concurrent use: the tier's mutex orders every touch of
// its bookkeeping, and readers scan the views it hands out without it.
type Tier struct {
	mu     sync.Mutex
	budget int64
	bytes  int64 // charged to resident structures: payload plus slotBytes each
	items  int
	slots  []slot  // slots[0] heads the LRU list: its next is the most recently used
	free   int32   // first free slot, chained through next; 0 when none
	post   []int32 // symbol → its posting list's slot; 0 for none
	docids int32   // the docid list's slot
	lists  arena

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// NewTier returns a tier with the given byte budget (> 0).
func NewTier(budget int64) *Tier { return &Tier{budget: budget, slots: make([]slot, 1)} }

// slotOf returns key's slot, 0 when it has none.
func (t *Tier) slotOf(key Key) int32 {
	if key.Kind != KindPostings {
		return t.docids
	}
	if int(key.ID) < len(t.post) {
		return t.post[key.ID]
	}
	return 0
}

// setSlot points key's index cell at slot i, growing the index as needed.
// Symbols are dense, so the index is as long as the largest symbol.
func (t *Tier) setSlot(key Key, i int32) {
	if key.Kind != KindPostings {
		t.docids = i
		return
	}
	if n := int(key.ID) + 1; n > len(t.post) {
		if i == 0 {
			return
		}
		t.post = append(t.post, make([]int32, n-len(t.post))...)
	}
	t.post[key.ID] = i
}

// newSlot takes a slot for key in the given state, from the free list when
// it has one.
func (t *Tier) newSlot(key Key, state uint8) int32 {
	i := t.free
	if i != 0 {
		t.free = t.slots[i].next
	} else {
		i = int32(len(t.slots))
		t.slots = append(t.slots, slot{})
	}
	t.slots[i] = slot{id: key.ID, kind: key.Kind, state: state}
	t.setSlot(key, i)
	return i
}

// pushFront links resident slot i in as the most recently used.
func (t *Tier) pushFront(i int32) {
	head := t.slots[0].next
	t.slots[i].prev, t.slots[i].next = 0, head
	t.slots[head].prev, t.slots[0].next = i, i
}

// unlink takes slot i out of the LRU list.
func (t *Tier) unlink(i int32) {
	s := &t.slots[i]
	t.slots[s.prev].next, t.slots[s.next].prev = s.next, s.prev
}

// drop frees slot i. A resident structure leaves the LRU list and the
// budget, and its payload becomes a hole.
func (t *Tier) drop(i int32) {
	s := &t.slots[i]
	if s.state == slotResident {
		t.unlink(i)
		t.bytes -= s.charge()
		t.items--
		t.lists.live -= int(s.n)
	}
	t.setSlot(Key{s.kind, s.id}, 0)
	*s = slot{next: t.free}
	t.free = i
}

// tidy repacks the arena when the last drops left it holey.
func (t *Tier) tidy() {
	if t.lists.holey() {
		t.lists.repack(t.slots)
	}
}

// Len returns the number of resident structures.
func (t *Tier) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.items
}

// lookup returns key's slot, moved to the front of the LRU order, or 0 when
// key is not resident. The caller holds mu.
func (t *Tier) lookup(key Key) int32 {
	i := t.slotOf(key)
	if i == 0 || t.slots[i].state != slotResident {
		return 0
	}
	if t.slots[0].next != i {
		t.unlink(i)
		t.pushFront(i)
	}
	return i
}

// counted records a lookup's outcome.
func (t *Tier) counted(i int32) bool {
	if i == 0 {
		t.misses.Add(1)
		return false
	}
	t.hits.Add(1)
	return true
}

// get returns key's resident payload, marking it most recently used, and
// counts the lookup as a hit or a miss.
func (t *Tier) get(key Key) ([]byte, bool) {
	var b []byte
	t.mu.Lock()
	i := t.lookup(key)
	if i != 0 {
		b = t.lists.view(&t.slots[i])
	}
	t.mu.Unlock()
	return b, t.counted(i)
}

// Postings returns the resident list of symbol sym, marking it most recently
// used.
func (t *Tier) Postings(sym uint32) (Postings, bool) {
	b, ok := t.get(Key{KindPostings, sym})
	return Postings{parseList(b)}, ok
}

// DocIDs returns the resident docid list, marking it most recently used.
func (t *Tier) DocIDs() (DocIDs, bool) {
	b, ok := t.get(Key{Kind: KindDocIDs})
	return DocIDs{parseList(b)}, ok
}

// Resident reports whether key is resident, without counting a lookup or
// touching the LRU order: a probe for a preload, not a read.
func (t *Tier) Resident(key Key) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := t.slotOf(key)
	return i != 0 && t.slots[i].state == slotResident
}

// Add admits e under key, evicting least-recently-used structures until it
// fits, and replaces whatever key held. A structure larger than the whole
// budget is not admitted, and a failed Add leaves the tier as it was.
func (t *Tier) Add(key Key, e Entry) bool { return t.add(key, e, true) }

// TryAdd admits e only if it fits without evicting anything. Preload uses
// it so filling the tier in priority order stops at the budget instead of
// demoting what was just loaded. A failed TryAdd leaves the tier as it was.
func (t *Tier) TryAdd(key Key, e Entry) bool { return t.add(key, e, false) }

func (t *Tier) add(key Key, e Entry, evict bool) bool {
	if e.kind != key.Kind {
		panic("hot: entry kind does not match its key")
	}
	size := e.size()
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.slotOf(key)
	room := t.budget - t.bytes
	if old != 0 && t.slots[old].state == slotResident {
		room += t.slots[old].charge()
	}
	// Offsets are 32-bit: an arena whose live payload would pass 4 GiB
	// refuses the structure.
	addressable := int64(t.lists.live+len(e.list)) <= math.MaxUint32
	if size > t.budget || (!evict && size > room) || !addressable {
		return false
	}
	if old != 0 {
		t.drop(old)
	}
	for t.bytes+size > t.budget {
		t.drop(t.slots[0].prev)
		t.evictions.Add(1)
	}
	t.tidy()
	if int64(len(t.lists.buf)+len(e.list)) > math.MaxUint32 {
		t.lists.repack(t.slots)
	}
	i := t.newSlot(key, slotResident)
	s := &t.slots[i]
	s.off, s.n = t.lists.put(e.list), uint32(len(e.list))
	t.pushFront(i)
	t.bytes += size
	t.items++
	return true
}

// Reject marks key as built and found not to fit, so a miss need not
// rebuild it; Rejected reports the mark and an invalidation clears it. A
// resident key stays resident.
func (t *Tier) Reject(key Key) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.slotOf(key) == 0 {
		t.newSlot(key, slotRejected)
	}
}

// Rejected reports whether key carries Reject's mark.
func (t *Tier) Rejected(key Key) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := t.slotOf(key)
	return i != 0 && t.slots[i].state == slotRejected
}

// Invalidate drops the structure under key, if resident, and its rejection
// mark, if any.
func (t *Tier) Invalidate(key Key) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i := t.slotOf(key); i != 0 {
		t.drop(i)
		t.tidy()
	}
}

// InvalidateAll drops everything (forest rebuild, epoch swap).
func (t *Tier) InvalidateAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.slots, t.free = make([]slot, 1), 0
	t.post, t.docids = nil, 0
	t.lists = arena{}
	t.bytes, t.items = 0, 0
}

// Trim copies every resident payload into an exactly sized arena and clips
// the slot slab and the index to their length, so a tier that is done filling
// holds no append slack. PreloadHot calls it when it finishes.
func (t *Tier) Trim() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lists.repack(t.slots)
	t.slots, t.post = slices.Clone(t.slots), slices.Clone(t.post)
}

// Stats is a point-in-time snapshot of the tier's counters.
type Stats struct {
	Budget    int64  `json:"budget_bytes"`
	Bytes     int64  `json:"bytes"`
	Items     int    `json:"items"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Stats snapshots the tier.
func (t *Tier) Stats() Stats {
	t.mu.Lock()
	bytes, items := t.bytes, t.items
	t.mu.Unlock()
	return Stats{
		Budget:    t.budget,
		Bytes:     bytes,
		Items:     items,
		Hits:      t.hits.Load(),
		Misses:    t.misses.Load(),
		Evictions: t.evictions.Load(),
	}
}
