package hot

import (
	"errors"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/btree"
)

// Kind says which tree a leaf image belongs to.
type Kind uint8

const (
	KindPostings Kind = iota // the Trie-Symbol (postings) tree
	KindDocIDs               // the Docid tree
	kinds
)

// Key is a leaf bound in its tree's key order: a posting key's symbol and
// Left, or a Docid key's terminal LeftPos with Sym 0.
type Key = btree.LeafKey

// maxKey orders after every key.
var maxKey = Key{Sym: math.MaxUint32, Left: math.MaxUint64}

// slotBytes is what a resident leaf costs beyond its payload: its slot, its
// parsed header and its cell in its tree's order.
const slotBytes = int64(unsafe.Sizeof(slot{})+unsafe.Sizeof(btree.Image{})) + 4

// slot is one resident leaf's bookkeeping: the key range it covers (see
// btree.Tree.LeavesNoFill), where its image lies and where it sits in the
// LRU order. A slot holds no pointer, so the collector never looks inside
// the slab.
type slot struct {
	lo, hi     Key
	off, n     uint32 // the image's offset into the arena and its length
	prev, next int32  // LRU links through slot 0; next also chains free slots
	kind       Kind
	resident   bool
	last       bool // the tree's last leaf: hi bounds nothing
}

// charge is what the slot's leaf costs the budget.
func (s *slot) charge() int64 { return int64(s.n) + slotBytes }

// before reports whether every key s covers orders before k.
func (s *slot) before(k Key) bool { return !s.last && s.hi.Less(k) }

// arena is an append-only payload store. Nothing below len(buf) is ever
// rewritten: an image stays where it was put until the tier moves every
// live image into a fresh array, and a Run handed out earlier keeps the old
// array alive for as long as its holder needs it.
type arena struct {
	buf  []byte
	live int // bytes resident leaves still use; the rest are holes
}

// put appends p and returns its offset.
func (a *arena) put(p []byte) uint32 {
	off := len(a.buf)
	a.buf = append(a.buf, p...)
	a.live += len(p)
	return uint32(off)
}

// view returns slot s's image, capped so no append can reach past it.
func (a *arena) view(s *slot) []byte {
	end := int(s.off) + int(s.n)
	return a.buf[s.off:end:end]
}

// repack copies the image of every resident slot into a fresh, exactly
// sized array and re-points the slots.
func (a *arena) repack(slots []slot) {
	fresh := make([]byte, 0, a.live)
	for i := range slots {
		s := &slots[i]
		if s.resident {
			off := len(fresh)
			fresh = append(fresh, a.view(s)...)
			s.off = uint32(off)
		}
	}
	a.buf = fresh
}

// holey reports whether the arena's holes outgrow half of its live payload.
func (a *arena) holey() bool { return len(a.buf)-a.live > a.live/2 }

// Tier is the budgeted cache: verbatim images of the postings and Docid
// trees' packed leaves under one byte budget with LRU demotion. Each image
// keeps the key range its leaf covers, and a key range is resident when
// every leaf it spans is (Run). Its state is a handful of arrays: one
// pointer-free slot slab whose int32 links form the LRU list, each tree's
// resident slots in key order, one append-only arena holding every image,
// and one slab of the images' parsed headers. All methods are safe for concurrent use: the tier's mutex orders
// every touch of its bookkeeping, and readers scan the Runs it hands out
// without it.
type Tier struct {
	mu     sync.Mutex
	budget int64
	bytes  int64 // charged to resident leaves: image plus slotBytes each
	items  int
	slots  []slot // slots[0] heads the LRU list: its next is the most recently used
	free   int32  // first free slot, chained through next; 0 when none
	// parsed[i] is resident slot i's image with its header decoded, what a
	// Run points at. Runs share it, so it is never written in place: every
	// change makes a new slab.
	parsed []btree.Image
	// order[k] is tree k's resident slots by key. Their ranges never
	// overlap, so they are ordered by hi as well.
	order [kinds][]int32
	arena arena

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// NewTier returns a tier with the given byte budget (> 0). Its unit is a
// leaf, one page: a budget below a page admits nothing.
func NewTier(budget int64) *Tier {
	return &Tier{budget: budget, slots: make([]slot, 1), parsed: make([]btree.Image, 1)}
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

// touch moves resident slot i to the front of the LRU order.
func (t *Tier) touch(i int32) {
	if t.slots[0].next != i {
		t.unlink(i)
		t.pushFront(i)
	}
}

// reaching returns the position in ord of the first slot that may hold k
// or a key after it.
func (t *Tier) reaching(ord []int32, k Key) int {
	return sort.Search(len(ord), func(j int) bool { return !t.slots[ord[j]].before(k) })
}

// drop frees resident slot i: its leaf leaves the LRU list, its tree's order
// and the budget, and its image becomes a hole.
func (t *Tier) drop(i int32) {
	s := &t.slots[i]
	ord := t.order[s.kind]
	j := sort.Search(len(ord), func(j int) bool { return !t.slots[ord[j]].lo.Less(s.lo) })
	for ord[j] != i {
		j++
	}
	t.order[s.kind] = slices.Delete(ord, j, j+1)
	t.unlink(i)
	t.bytes -= s.charge()
	t.items--
	t.arena.live -= int(s.n)
	*s = slot{next: t.free}
	t.free = i
}

// tidy repacks the arena when the last drops left it holey.
func (t *Tier) tidy() {
	if t.arena.holey() {
		t.repack()
	}
}

// repack repacks the arena and parses every resident image anew, into a
// fresh slab.
func (t *Tier) repack() {
	t.arena.repack(t.slots)
	parsed := make([]btree.Image, len(t.slots))
	for i := range t.slots {
		if s := &t.slots[i]; s.resident {
			parsed[i] = btree.ParseImage(t.arena.view(s))
		}
	}
	t.parsed = parsed
}

// Run is a key range's resident leaf images in key order, as Tier.Run
// resolves it. Its images alias arena bytes the tier never rewrites, so a
// Run stays valid for as long as its holder keeps it, whatever the tier
// evicts, invalidates or repacks meanwhile.
type Run []Image

// Image is one leaf of a Run: its parsed image, the cells [from, to) that
// hold keys of the run's range, and the key its keys stay at or below.
type Image struct {
	leaf     *btree.Image
	from, to int32
	hi       Key
	last     bool
}

// from returns the index of the first image that may hold lo or a key after
// it.
func (r Run) from(lo Key) int {
	for i := range r {
		if r[i].last || !r[i].hi.Less(lo) {
			return i
		}
	}
	return len(r)
}

// ScanPostings is btree.Tree.ScanPostings over the run, the bounds given as
// key fields: it visits the same entries in the same order. The bounds must
// lie within the key range the run was resolved for.
func (r Run) ScanPostings(lo, hi Key, loIncl, hiIncl bool, fn func(sym uint32, left, right uint64, level uint32) bool) {
	for i := r.from(lo); i < len(r); i++ {
		if !r[i].leaf.ScanPostings(int(r[i].from), int(r[i].to), lo, hi, loIncl, hiIncl, fn) {
			return
		}
	}
}

// ScanDocIDs is ScanPostings for a run of Docid leaves: btree.Tree.ScanDocIDs
// over the run, tombstones included.
func (r Run) ScanDocIDs(lo, hi Key, loIncl, hiIncl bool, fn func(term uint64, docID uint32, tombVersion uint64) bool) {
	for i := r.from(lo); i < len(r); i++ {
		if !r[i].leaf.ScanDocIDs(int(r[i].from), int(r[i].to), lo, hi, loIncl, hiIncl, fn) {
			return
		}
	}
}

// Run appends to dst the images of tree kind's key range [lo, hi], each
// marked most recently used, and counts the lookup as a hit; when a leaf of
// the range is not resident it counts a miss and returns dst as it was and
// false.
func (t *Tier) Run(kind Kind, lo, hi Key, dst Run) (Run, bool) {
	t.mu.Lock()
	dst, ok := t.run(kind, lo, hi, dst)
	t.mu.Unlock()
	if ok {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
	return dst, ok
}

// run is Run without the count. The caller holds mu.
func (t *Tier) run(kind Kind, lo, hi Key, dst Run) (Run, bool) {
	span, ok := t.span(kind, lo, hi)
	for _, i := range span {
		s, im := &t.slots[i], &t.parsed[i]
		from, to := im.Span(lo, hi, s.lo.Less(lo), !s.last && hi.Less(s.hi))
		dst = append(dst, Image{leaf: im, from: int32(from), to: int32(to), hi: s.hi, last: s.last})
		t.touch(i)
	}
	return dst, ok
}

// span returns the resident slots the key range [lo, hi] of tree kind
// spans, in key order, and false when one of its leaves is not resident:
// from the first leaf that may hold lo, each next one starting where the one
// before ends, to the tree's last leaf or one whose next leaf starts past hi. A
// next leaf that starts at hi itself may hold hi, so it is spanned too. The
// caller holds mu.
func (t *Tier) span(kind Kind, lo, hi Key) ([]int32, bool) {
	ord := t.order[kind]
	start := t.reaching(ord, lo)
	if start == len(ord) {
		return nil, false
	}
	if first := t.slots[ord[start]].lo; lo.Less(first) || first == lo && lo != (Key{}) {
		// The leaf lo lies in is not resident, or the one before it, which
		// may end in duplicates of lo, is not.
		return nil, false
	}
	for j := start; j < len(ord); j++ {
		s := &t.slots[ord[j]]
		if j > start && s.lo != t.slots[ord[j-1]].hi {
			return nil, false
		}
		if s.last || hi.Less(s.hi) {
			return ord[start : j+1], true
		}
	}
	return nil, false
}

// leaf is one leaf on its way into the tier; add copies its image.
type leaf struct {
	kind   Kind
	lo, hi Key
	last   bool
	image  []byte
}

// add admits l, replacing whatever resident leaves its range overlaps: with
// evict, by demoting least-recently-used leaves until it fits, else only
// into free room. A leaf already resident with l's range is kept as it is
// and marked most recently used: every write to a leaf invalidates it
// first. A leaf larger than the whole budget is not admitted, and a failed
// add leaves the tier as it was.
func (t *Tier) add(l leaf, evict bool) bool {
	size := int64(len(l.image)) + slotBytes
	t.mu.Lock()
	defer t.mu.Unlock()
	ord := t.order[l.kind]
	i := t.reaching(ord, l.lo)
	if i < len(ord) && !t.slots[ord[i]].last && t.slots[ord[i]].hi == l.lo {
		i++ // it ends where l starts
	}
	j := i
	for j < len(ord) && (l.last || t.slots[ord[j]].lo.Less(l.hi)) {
		j++
	}
	if j == i+1 {
		if s := &t.slots[ord[i]]; s.lo == l.lo && s.hi == l.hi && s.last == l.last {
			t.touch(ord[i])
			return true
		}
	}
	room := t.budget - t.bytes
	for _, k := range ord[i:j] {
		room += t.slots[k].charge()
	}
	// Offsets are 32-bit: an arena whose live payload would pass 4 GiB
	// refuses the leaf.
	addressable := int64(t.arena.live+len(l.image)) <= math.MaxUint32
	if size > t.budget || (!evict && size > room) || !addressable {
		return false
	}
	for k := j - 1; k >= i; k-- {
		t.drop(ord[k]) // from the last, so the positions before stay put
	}
	for t.bytes+size > t.budget {
		t.drop(t.slots[0].prev)
		t.evictions.Add(1)
	}
	t.tidy()
	if int64(len(t.arena.buf)+len(l.image)) > math.MaxUint32 {
		t.repack()
	}
	n := t.free
	if n != 0 {
		t.free = t.slots[n].next
	} else {
		n = int32(len(t.slots))
		t.slots = append(t.slots, slot{})
	}
	t.slots[n] = slot{lo: l.lo, hi: l.hi, last: l.last, kind: l.kind, resident: true,
		off: t.arena.put(l.image), n: uint32(len(l.image))}
	parsed := make([]btree.Image, len(t.slots))
	copy(parsed, t.parsed)
	parsed[n] = btree.ParseImage(t.arena.view(&t.slots[n]))
	t.parsed = parsed
	ord = t.order[l.kind]
	at := sort.Search(len(ord), func(j int) bool { return l.lo.Less(t.slots[ord[j]].lo) })
	t.order[l.kind] = slices.Insert(ord, at, n)
	t.pushFront(n)
	t.bytes += size
	t.items++
	return true
}

// errFull ends a fill at a leaf that does not fit.
var errFull = errors.New("hot: leaf does not fit the budget")

// fill admits tree's leaves from the one key lo lies in until the range
// [lo, hi] is covered, read around the buffer pool
// (btree.Tree.LeavesNoFill), as add does with evict. It stops at the first
// leaf that fails to read or to fit.
func (t *Tier) fill(tree *btree.Tree, kind Kind, lo, hi Key, evict bool) error {
	full := false
	err := tree.LeavesNoFill(lo, kind == KindDocIDs, func(image []byte, llo, lhi Key, last bool) bool {
		if !t.add(leaf{kind: kind, lo: llo, hi: lhi, last: last, image: image}, evict) {
			full = true
			return false
		}
		return !last && !hi.Less(lhi) // the next leaf may hold keys up to hi
	})
	if err == nil && full {
		err = errFull
	}
	return err
}

// Load admits the leaves of tree's key range [lo, hi], read around the
// buffer pool and demoting least-recently-used leaves to make room, and
// then resolves the range as Run does without counting a lookup. It returns
// dst as it was and false when the range still is not resident: a leaf
// failed to read, or the range outgrows the budget. A query then scans the
// tree, which reports the read error itself.
func (t *Tier) Load(tree *btree.Tree, kind Kind, lo, hi Key, dst Run) (Run, bool) {
	if t.fill(tree, kind, lo, hi, true) != nil {
		return dst, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.run(kind, lo, hi, dst)
}

// Preload copies every leaf of tree into the tier in key order, taking free
// room only, and reports whether all are resident: it stops at the first
// leaf that does not fit or fails to read. Its admissions count no hit or
// miss.
func (t *Tier) Preload(tree *btree.Tree, kind Kind) bool {
	return t.fill(tree, kind, Key{}, maxKey, false) == nil
}

// Invalidate drops the resident leaves of tree kind whose range holds k: an
// insert of k may have rewritten them, or split one.
func (t *Tier) Invalidate(kind Kind, k Key) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ord := t.order[kind]
	i := t.reaching(ord, k)
	j := i
	for j < len(ord) && !k.Less(t.slots[ord[j]].lo) {
		j++
	}
	for s := j - 1; s >= i; s-- {
		t.drop(ord[s])
	}
	t.tidy()
}

// InvalidateKind drops every resident leaf of tree kind.
func (t *Tier) InvalidateKind(kind Kind) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for ord := t.order[kind]; len(ord) > 0; ord = t.order[kind] {
		t.drop(ord[len(ord)-1])
	}
	t.tidy()
}

// InvalidateAll drops everything (forest rebuild, epoch swap).
func (t *Tier) InvalidateAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.slots, t.free = make([]slot, 1), 0
	t.parsed = make([]btree.Image, 1)
	t.order = [kinds][]int32{}
	t.arena = arena{}
	t.bytes, t.items = 0, 0
}

// Trim copies every resident image into an exactly sized arena and clips
// the slot slab and the orders to their length, so a tier that is done
// filling holds no append slack. PreloadHot calls it when it finishes.
func (t *Tier) Trim() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.repack()
	t.slots = slices.Clone(t.slots)
	for k := range t.order {
		t.order[k] = slices.Clone(t.order[k])
	}
}

// Stats is a point-in-time snapshot of the tier's counters. Items counts
// resident leaves.
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
