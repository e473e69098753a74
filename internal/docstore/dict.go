package docstore

import (
	"fmt"
	"hash/maphash"
	"sync"
	"unsafe"

	"repro/internal/vtrie"
)

// dictSeed keys every dictionary's hash index. The index is never persisted,
// so one seed per process is enough.
var dictSeed = maphash.MakeSeed()

// minIndexSlots is the index size of a dictionary's first name.
const minIndexSlots = 8

// Dict interns strings (element tags and values) as vtrie symbols.
// The zero value is ready to use. All methods are safe for concurrent use.
//
// A Dict costs the bytes of its names plus a few bytes per name: the names
// sit back to back in one arena, with a uint32 end offset and an
// open-addressed uint32 index slot per name — no per-name string header, map
// entry or allocation.
type Dict struct {
	mu sync.Mutex
	// arena holds every name in symbol order. It is append-only: an append
	// writes only past len, never over a byte below it, so the strings the
	// dictionary hands out alias the arena (unsafe.String) and stay valid —
	// when an append outgrows the backing array, the old array lives on as
	// long as a returned string points into it.
	arena []byte
	// ends[sym] is the arena offset one past the name of sym.
	ends []uint32
	// index is a linear-probing hash table over the names: a slot holds a
	// symbol + 1, 0 is empty. Its length is a power of two and at most 70 %
	// of its slots are used.
	index []uint32
}

// indexSlots is the index size that keeps names names at or below 70 % load.
func indexSlots(names int) int {
	n := minIndexSlots
	for 10*names > 7*n {
		n *= 2
	}
	return n
}

// transient views key as a string for the length of one call. The
// dictionary only hashes and compares such a key, and copies it into the
// arena when it is new; it never keeps the view.
func transient(key []byte) string { return unsafe.String(unsafe.SliceData(key), len(key)) }

// Intern returns the symbol for s, assigning a fresh one on first use. A new
// name is copied into the arena, so interning a label that is a substring of
// some larger buffer (a decoded run record) does not pin that buffer.
func (d *Dict) Intern(s string) vtrie.Symbol {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.internLocked(s)
}

// InternBytes is Intern for a key assembled in a caller's buffer: a hit
// allocates nothing, a miss copies the key into the arena. The buffer may be
// reused as soon as the call returns.
func (d *Dict) InternBytes(key []byte) vtrie.Symbol {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.internLocked(transient(key))
}

func (d *Dict) internLocked(s string) vtrie.Symbol {
	slot, sym, ok := d.findLocked(s)
	if ok {
		return sym
	}
	if n := len(d.ends) + 1; 10*n > 7*len(d.index) {
		d.rehashLocked(indexSlots(n))
		slot, _, _ = d.findLocked(s)
	}
	sym = vtrie.Symbol(len(d.ends))
	d.arena = append(d.arena, s...)
	d.ends = append(d.ends, uint32(len(d.arena)))
	d.index[slot] = uint32(sym) + 1
	return sym
}

// findLocked probes the index for s. It returns s's symbol when present, and
// otherwise the empty slot where s would go (-1 with no index yet).
func (d *Dict) findLocked(s string) (slot int, sym vtrie.Symbol, ok bool) {
	if len(d.index) == 0 {
		return -1, 0, false
	}
	mask := uint64(len(d.index) - 1)
	for i := maphash.String(dictSeed, s) & mask; ; i = (i + 1) & mask {
		v := d.index[i]
		if v == 0 {
			return int(i), 0, false
		}
		if d.nameLocked(v-1) == s {
			return int(i), vtrie.Symbol(v - 1), true
		}
	}
}

// rehashLocked rebuilds the index with the given number of slots. Names are
// distinct, so each probe ends at the free slot its name goes to.
func (d *Dict) rehashLocked(slots int) {
	d.index = make([]uint32, slots)
	for sym := range d.ends {
		slot, _, _ := d.findLocked(d.nameLocked(uint32(sym)))
		d.index[slot] = uint32(sym) + 1
	}
}

// nameLocked returns the name of sym, aliasing the arena.
func (d *Dict) nameLocked(sym uint32) string {
	var start uint32
	if sym > 0 {
		start = d.ends[sym-1]
	}
	b := d.arena[start:d.ends[sym]]
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// reserve sizes an empty dictionary for names names of nameBytes bytes in
// all, so interning them allocates nothing more.
func (d *Dict) reserve(names, nameBytes int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.arena = make([]byte, 0, nameBytes)
	d.ends = make([]uint32, 0, names)
	d.index = make([]uint32, indexSlots(names))
}

// Lookup returns the symbol for s without interning.
func (d *Dict) Lookup(s string) (vtrie.Symbol, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, sym, ok := d.findLocked(s)
	return sym, ok
}

// LookupBytes is Lookup for a key assembled in a caller's buffer.
func (d *Dict) LookupBytes(key []byte) (vtrie.Symbol, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, sym, ok := d.findLocked(transient(key))
	return sym, ok
}

// Name returns the string for a symbol. Unknown symbols (which can come
// out of a corrupt record) yield a synthetic placeholder, not a panic.
func (d *Dict) Name(sym vtrie.Symbol) string {
	if name, ok := d.NameOf(sym); ok {
		return name
	}
	return fmt.Sprintf("<unknown symbol %d>", sym)
}

// NameOf returns the string for a symbol and whether the dictionary has it.
func (d *Dict) NameOf(sym vtrie.Symbol) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(sym) >= len(d.ends) {
		return "", false
	}
	return d.nameLocked(uint32(sym)), true
}

// Names returns all interned strings in symbol order (nil when there are
// none). The slice is the caller's; the strings alias the arena.
func (d *Dict) Names() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.ends) == 0 {
		return nil
	}
	out := make([]string, len(d.ends))
	for i := range out {
		out[i] = d.nameLocked(uint32(i))
	}
	return out
}

// Len returns the number of interned symbols.
func (d *Dict) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.ends)
}

// Bytes returns the heap the dictionary holds: the Dict itself, its arena,
// end offsets and index. An arena array an append outgrew is not counted;
// it lives only while a string handed out earlier still points into it.
func (d *Dict) Bytes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int(unsafe.Sizeof(*d)) + cap(d.arena) + 4*cap(d.ends) + 4*len(d.index)
}
