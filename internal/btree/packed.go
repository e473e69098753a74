package btree

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bitpack"
	"repro/internal/pager"
)

// A packed leaf (kind packedLeafNode) is the third leaf codec, for the
// postings trees a PackedTree holds. Its entries have the postings' shape: a
// 12-byte key, a 4-byte big-endian symbol ‖ an 8-byte big-endian Left, and a
// 12-byte value, an 8-byte big-endian Right ‖ a 4-byte little-endian level.
// The leaf stores each entry as four unsigned deltas — symbol − the leaf's
// minimum symbol, Left − its minimum Left, Right − Left (mod 2^64), level −
// its minimum level — each at the leaf's width for that field, so every cell
// has the same bit width and cell i starts at bit i × width of the cell area:
//
//	header: kind(1) numKeys(2) next(4) widths(4: symbol, Left, scope, level)
//	        minSymbol(4) minLeft(8) minLevel(4), little-endian
//	cells:  numKeys × width bits, each field least significant bit first
//
// The bases are minimums, not the first cell's values: a leaf that crosses a
// symbol boundary restarts Left, and a first-cell base would wrap its deltas
// to 64 bits. Reads decode a cell's 24 bytes on the fly. An insert whose
// deltas fit the leaf's widths and bases moves the cells after it up by one
// cell width and writes its own; any other edit decodes the leaf into a
// pooled packer and re-encodes it at the widths its cells now need, and a
// leaf whose cells no longer fit the page splits into as many leaves as the
// packer seals (insertPacked, splitPacked).
const (
	packedLeafNode   = byte(4)
	packedHeaderSize = 7 + 4 + 4 + 8 + 4
	packedKeyLen     = 12
	packedEntryLen   = packedKeyLen + 12
	// maxPackedCells is numKeys' limit: a leaf of identical entries packs
	// them in zero bits each.
	maxPackedCells = 1<<16 - 1
	packedCellBits = (pager.PageDataSize - packedHeaderSize) * 8
)

// packedMaxWidths are the widest symbol, Left, scope and level fields.
var packedMaxWidths = [4]int{32, 64, 64, 32}

// packedEntry is one entry's fields: for a cell, the absolute values (scope
// is Right − Left).
type packedEntry struct {
	sym   uint32
	left  uint64
	scope uint64
	level uint32
}

func parsePackedEntry(key, val []byte) packedEntry {
	left := binary.BigEndian.Uint64(key[4:12])
	return packedEntry{
		sym:   binary.BigEndian.Uint32(key[:4]),
		left:  left,
		scope: binary.BigEndian.Uint64(val[:8]) - left,
		level: binary.LittleEndian.Uint32(val[8:12]),
	}
}

// put writes the entry as Scan yields it.
func (e packedEntry) put(buf *[packedEntryLen]byte) {
	binary.BigEndian.PutUint32(buf[0:4], e.sym)
	binary.BigEndian.PutUint64(buf[4:12], e.left)
	binary.BigEndian.PutUint64(buf[12:20], e.left+e.scope)
	binary.LittleEndian.PutUint32(buf[20:24], e.level)
}

// packedLeaf is a packed leaf's header, parsed once per visit of the leaf.
type packedLeaf struct {
	cells []byte
	w     [4]uint
	mask  [4]uint64
	width uint // bits per cell
	base  packedEntry
}

// parse reads data's header into l, in place: a packedLeaf is too large to
// return by value on every leaf visit.
func (l *packedLeaf) parse(data []byte) {
	l.cells, l.width = data[packedHeaderSize:], 0
	for j := range l.w {
		l.w[j] = uint(data[7+j])
		l.mask[j] = bitpack.Mask(l.w[j])
		l.width += l.w[j]
	}
	l.base = packedEntry{
		sym:   binary.LittleEndian.Uint32(data[11:15]),
		left:  binary.LittleEndian.Uint64(data[15:23]),
		level: binary.LittleEndian.Uint32(data[23:27]),
	}
}

// search is leafSearch on a packed leaf of hi cells. A 12-byte key is
// compared as the symbol and Left it encodes with each probed cell's
// symbol, and its Left only where the symbols are equal, decoded and nothing
// more; any other key with the cell's encoding.
func (l *packedLeaf) search(key []byte, above, hi int) int {
	numeric := len(key) == packedKeyLen
	var sym uint32
	var left uint64
	if numeric {
		sym, left = binary.BigEndian.Uint32(key), binary.BigEndian.Uint64(key[4:])
	}
	lo := 0
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		var c int
		if numeric {
			if c = cmp.Compare(l.symbol(mid), sym); c == 0 {
				c = cmp.Compare(l.left(mid), left)
			}
		} else {
			var buf [packedEntryLen]byte
			l.entry(mid).put(&buf)
			c = bytes.Compare(buf[:packedKeyLen], key)
		}
		if c < above {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// entry decodes cell i. A cell of at most bitpack.MaxWindow bits — dense
// labels make most leaves that narrow — is read with one 8-byte load.
func (l *packedLeaf) entry(i int) packedEntry {
	off := uint(i) * l.width
	if l.width <= bitpack.MaxWindow {
		x := bitpack.Window(l.cells, off)
		sym := x & l.mask[0]
		x >>= l.w[0]
		left := x & l.mask[1]
		x >>= l.w[1]
		scope := x & l.mask[2]
		x >>= l.w[2]
		return packedEntry{
			sym:   l.base.sym + uint32(sym),
			left:  l.base.left + left,
			scope: scope,
			level: l.base.level + uint32(x&l.mask[3]),
		}
	}
	// A wider cell is read once, as the 64-bit words it spans (at most
	// four: 192 bits from any bit of its first byte), and its fields are
	// shifted out of them.
	var w [4]uint64
	at, s := off>>3, off&7
	for k := range (s + l.width + 63) / 64 {
		if j := at + 8*k; j+8 <= uint(len(l.cells)) {
			w[k] = binary.LittleEndian.Uint64(l.cells[j:])
		} else {
			for b := j; b < uint(len(l.cells)); b++ {
				w[k] |= uint64(l.cells[b]) << (8 * (b - j))
			}
		}
	}
	field := func(j int) uint64 {
		v := w[s>>6] >> (s & 63)
		if s&63+l.w[j] > 64 {
			v |= w[s>>6+1] << (64 - s&63)
		}
		s += l.w[j]
		return v & l.mask[j]
	}
	return packedEntry{
		sym:   l.base.sym + uint32(field(0)),
		left:  l.base.left + field(1),
		scope: field(2),
		level: l.base.level + uint32(field(3)),
	}
}

// symbol decodes cell i's symbol only, for a search probe: from one 8-byte
// load on a cell of at most bitpack.MaxWindow bits, else from just the bytes
// the field covers — a probe that lands on another symbol, the common case
// in a leaf of many, reads no more.
func (l *packedLeaf) symbol(i int) uint32 {
	off := uint(i) * l.width
	if l.width <= bitpack.MaxWindow {
		return l.base.sym + uint32(bitpack.Window(l.cells, off)&l.mask[0])
	}
	var v uint64
	for j, end := off>>3, (off+l.w[0]+7)>>3; j < end; j++ {
		v |= uint64(l.cells[j]) << (8 * (j - off>>3))
	}
	return l.base.sym + uint32(v>>(off&7)&l.mask[0])
}

// left decodes cell i's Left only, for a search probe.
func (l *packedLeaf) left(i int) uint64 {
	off := uint(i) * l.width
	if l.width <= bitpack.MaxWindow {
		return l.base.left + bitpack.Window(l.cells, off)>>l.w[0]&l.mask[1]
	}
	return l.base.left + bitpack.Get(l.cells, off+l.w[0], l.w[1])
}

// packedUsed returns the bytes a packed leaf of num cells of width bits
// occupies, header included.
func packedUsed(num int, width uint) int {
	return packedHeaderSize + bitpack.Bytes(uint(num)*width)
}

// packer gathers the entries of one packed leaf — BulkLoad's until the next
// one would not fit, an edit's as the leaf holds them after it — and the
// field ranges that set its widths, and seals it by its packing.
type packer struct {
	ents   []packedEntry
	lo, hi packedEntry // per-field minimums and maximums (lo.scope unused)
	pg     packing
}

// A packing is how a packer seals leaves: at most budget cell bits each,
// and, when aligned, in cells a whole number of bytes wide. A tree that
// takes inserts gets aligned cells — its bulk loads (loadPacking) and every
// edit (editPacking) write them — so an insert moves the cells after it with
// a byte copy instead of a shift; a static tree's cells are as narrow as
// its fields.
type packing struct {
	budget  uint
	aligned bool
}

// editPacking is the packing of a leaf an edit re-encodes: the whole page,
// aligned cells.
var editPacking = packing{budget: packedCellBits, aligned: true}

// loadPacking is BulkLoad's packing: all of a static tree's cell bits, nine
// tenths of an insertable one's (loadSlack), in aligned cells.
func loadPacking(insertable bool) packing {
	if insertable {
		return packing{budget: packedCellBits * 9 / 10, aligned: true}
	}
	return packing{budget: packedCellBits}
}

// packedWidths returns the field widths, and their sum, that deltas from lo
// up to hi need.
func packedWidths(lo, hi packedEntry) (w [4]uint, width uint) {
	w = [4]uint{
		uint(bits.Len32(hi.sym - lo.sym)),
		uint(bits.Len64(hi.left - lo.left)),
		uint(bits.Len64(hi.scope)),
		uint(bits.Len32(hi.level - lo.level)),
	}
	return w, w[0] + w[1] + w[2] + w[3]
}

// widths is packedWidths, with the level field (then the symbol, scope and
// Left ones, as far as each has room) widened to a whole number of bytes
// when pg is aligned. Every field at its widest makes 24 bytes, so the room
// is always there.
func (pg packing) widths(lo, hi packedEntry) (w [4]uint, width uint) {
	w, width = packedWidths(lo, hi)
	if pg.aligned {
		for _, j := range [4]int{3, 0, 2, 1} {
			pad := min(uint(packedMaxWidths[j])-w[j], (8-width%8)%8)
			w[j] += pad
			width += pad
		}
	}
	return w, width
}

// widen returns the field ranges lo..hi stretched over e.
func widen(lo, hi, e packedEntry) (packedEntry, packedEntry) {
	return packedEntry{sym: min(lo.sym, e.sym), left: min(lo.left, e.left), level: min(lo.level, e.level)},
		packedEntry{sym: max(hi.sym, e.sym), left: max(hi.left, e.left), scope: max(hi.scope, e.scope), level: max(hi.level, e.level)}
}

// fits reports whether n cells spanning lo..hi fit one leaf.
func (pg packing) fits(n int, lo, hi packedEntry) bool {
	_, width := pg.widths(lo, hi)
	return n <= maxPackedCells && uint(n)*width <= pg.budget
}

// add appends e if the leaf still fits with it, and reports whether it did.
func (pk *packer) add(e packedEntry) bool {
	lo, hi := e, e
	if len(pk.ents) > 0 {
		if lo, hi = widen(pk.lo, pk.hi, e); !pk.pg.fits(len(pk.ents)+1, lo, hi) {
			return false
		}
	}
	pk.lo, pk.hi = lo, hi
	pk.ents = append(pk.ents, e)
	return true
}

// span sets lo and hi to the field ranges of the gathered entries.
func (pk *packer) span() {
	pk.lo, pk.hi = packedEntry{}, packedEntry{}
	for i, e := range pk.ents {
		if i == 0 {
			pk.lo, pk.hi = e, e
		} else {
			pk.lo, pk.hi = widen(pk.lo, pk.hi, e)
		}
	}
}

// encode writes the gathered entries over data as one packed leaf chained to
// next, and empties the packer.
func (pk *packer) encode(data []byte, next uint32) {
	clear(data)
	data[0] = packedLeafNode
	binary.LittleEndian.PutUint16(data[1:3], uint16(len(pk.ents)))
	binary.LittleEndian.PutUint32(data[3:7], next)
	w, _ := pk.pg.widths(pk.lo, pk.hi)
	for j := range w {
		data[7+j] = byte(w[j])
	}
	binary.LittleEndian.PutUint32(data[11:15], pk.lo.sym)
	binary.LittleEndian.PutUint64(data[15:23], pk.lo.left)
	binary.LittleEndian.PutUint32(data[23:27], pk.lo.level)
	// The cells are written in order, through a 64-bit accumulator stored a
	// whole word at a time.
	cells := data[packedHeaderSize:]
	var (
		acc  uint64
		used uint // bits of acc
		at   int  // where acc goes
	)
	for _, e := range pk.ents {
		for j, v := range [4]uint64{uint64(e.sym - pk.lo.sym), e.left - pk.lo.left, e.scope, uint64(e.level - pk.lo.level)} {
			acc |= v << used
			if used+w[j] < 64 {
				used += w[j]
				continue
			}
			binary.LittleEndian.PutUint64(cells[at:], acc)
			at += 8
			acc = v >> (64 - used) // 0 when used is 0: a shift by 64 clears
			used += w[j] - 64
		}
	}
	for ; used > 0; used -= min(used, 8) {
		cells[at] = byte(acc)
		acc >>= 8
		at++
	}
	pk.ents = pk.ents[:0]
}

// loadPackedLeaves is BulkLoad's leaf pass for a packed tree: it fills the
// pinned root page p and its successors, sealing a leaf when the next entry
// would not fit at the widths it would force. It releases p's pin.
func (t *Tree) loadPackedLeaves(p pager.Page, pg packing, entries func() (key, val []byte, ok bool, err error)) ([]childRef, error) {
	var (
		pk     = packer{pg: pg}
		leaves []childRef
	)
	for {
		key, val, ok, err := entries()
		if err != nil || !ok {
			pk.encode(p.Data, 0)
			p.Unpin(true)
			return leaves, err
		}
		if len(key) != packedKeyLen || len(val) != packedEntryLen-packedKeyLen {
			p.Unpin(true)
			return nil, fmt.Errorf("btree: entry of %d+%d bytes in a packed tree of 12+12 entries", len(key), len(val))
		}
		e := parsePackedEntry(key, val)
		if !pk.add(e) {
			np, err := t.forest.bp.NewPage()
			if err != nil {
				p.Unpin(true)
				return nil, err
			}
			pk.encode(p.Data, uint32(np.ID))
			p.Unpin(true)
			p = np
			pk.add(e)
		}
		if len(pk.ents) == 1 {
			leaves = append(leaves, childRef{first: bytes.Clone(key), page: p.ID})
		}
	}
}

// packedEdits are the packers an edit that cannot write in place decodes its
// leaf into, pooled so that re-encoding a leaf allocates nothing.
var packedEdits = sync.Pool{New: func() any { return new(packer) }}

// holds reports whether e's deltas from the leaf's bases fit its widths.
func (l *packedLeaf) holds(e packedEntry) bool {
	return e.sym >= l.base.sym && uint64(e.sym-l.base.sym) <= l.mask[0] &&
		e.left >= l.base.left && e.left-l.base.left <= l.mask[1] &&
		e.scope <= l.mask[2] &&
		e.level >= l.base.level && uint64(e.level-l.base.level) <= l.mask[3]
}

// decode gathers the leaf's num cells into pk, to be re-encoded by
// editPacking.
func (pk *packer) decode(l *packedLeaf, num int) {
	pk.ents, pk.pg = pk.ents[:0], editPacking
	for i := 0; i < num; i++ {
		pk.ents = append(pk.ents, l.entry(i))
	}
}

// insertPacked inserts (key, val) into the pinned packed leaf p after every
// equal key, and releases p's pin. An entry the leaf's widths and bases
// hold, in a leaf with a cell's bits free, moves the cells after it up by
// one cell and is written between them; any other is inserted into the
// decoded cells, which are re-encoded at the widths they now need, over p
// while they fit it and over p and the new leaves splitPacked adds after it
// when they do not. It returns those leaves for the parent.
func (t *Tree) insertPacked(p pager.Page, key, val []byte) ([]childRef, error) {
	data := p.Data
	var l packedLeaf
	l.parse(data)
	num := pageNumKeys(data)
	pos := l.search(key, 1, num)
	e := parsePackedEntry(key, val)
	if num < maxPackedCells && uint(num+1)*l.width <= packedCellBits && l.holds(e) {
		off := uint(pos) * l.width
		moveBitsUp(l.cells, off, uint(num-pos)*l.width, l.width)
		for j, v := range [4]uint64{uint64(e.sym - l.base.sym), e.left - l.base.left, e.scope, uint64(e.level - l.base.level)} {
			storeBits(l.cells, off, l.w[j], v)
			off += l.w[j]
		}
		binary.LittleEndian.PutUint16(data[1:3], uint16(num+1))
		p.Unpin(true)
		return nil, nil
	}
	pk := packedEdits.Get().(*packer)
	defer packedEdits.Put(pk)
	pk.decode(&l, num)
	pk.ents = slices.Insert(pk.ents, pos, e)
	if pk.span(); editPacking.fits(len(pk.ents), pk.lo, pk.hi) {
		pk.encode(data, pageExtra(data))
		p.Unpin(true)
		return nil, nil
	}
	return t.splitPacked(p, pk.ents, pos == num && pageExtra(data) == 0)
}

// deletePacked removes cell i of the packed leaf data and re-encodes the
// rest at the widths they now need: aligned, unless the leaf is a static
// one too full for that, whose cells keep their narrowest widths, never
// wider than before.
func deletePacked(data []byte, i int) {
	var l packedLeaf
	l.parse(data)
	pk := packedEdits.Get().(*packer)
	pk.decode(&l, pageNumKeys(data))
	pk.ents = slices.Delete(pk.ents, i, i+1)
	if pk.span(); !pk.pg.fits(len(pk.ents), pk.lo, pk.hi) {
		pk.pg.aligned = false
	}
	pk.encode(data, pageExtra(data))
	packedEdits.Put(pk)
}

// splitPacked writes ents, a packed leaf's cells that no longer fit one
// page, over the pinned leaf p and new leaves chained after it, and releases
// p's pin. It cuts them into as many leaves as the packer seals at full
// pages, and returns every leaf but p with its first key. An append to the
// tree's last leaf (fill) leaves p full, so ascending inserts leave full
// leaves behind; any other split fills the leaves about equally, to within
// a 64th of a page of the smallest cell budget that needs no more of them.
func (t *Tree) splitPacked(p pager.Page, ents []packedEntry, fill bool) ([]childRef, error) {
	pg := editPacking
	if !fill {
		k := pg.count(ents)
		for lo := uint(0); pg.budget-lo > packedCellBits/64; {
			mid := packing{budget: (lo + pg.budget) / 2, aligned: true}
			if mid.count(ents) <= k {
				pg = mid
			} else {
				lo = mid.budget + 1
			}
		}
	}
	var starts []int
	for s := 0; s < len(ents); s += pg.sealed(ents[s:]) {
		starts = append(starts, s)
	}
	// Write the new leaves last to first, each chained to the one after it,
	// and p only once they all are: a failed page allocation leaves p as it
	// was.
	refs := make([]childRef, len(starts)-1)
	next := pageExtra(p.Data)
	part := packer{pg: pg}
	for i := len(starts) - 1; i >= 0; i-- {
		end := len(ents)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		part.ents = ents[starts[i]:end]
		part.span()
		if i == 0 {
			part.encode(p.Data, next)
			break
		}
		np, err := t.forest.bp.NewPage()
		if err != nil {
			p.Unpin(false)
			return nil, err
		}
		part.encode(np.Data, next)
		var first [packedEntryLen]byte
		ents[starts[i]].put(&first)
		refs[i-1] = childRef{first: bytes.Clone(first[:packedKeyLen]), page: np.ID}
		next = uint32(np.ID)
		np.Unpin(true)
	}
	p.Unpin(true)
	t.forest.leafSplits.Add(1)
	return refs, nil
}

// sealed returns how many of ents, from the first, one leaf holds: at
// least one, however wide.
func (pg packing) sealed(ents []packedEntry) int {
	lo, hi := ents[0], ents[0]
	for n := 1; n < len(ents); n++ {
		nlo, nhi := widen(lo, hi, ents[n])
		if !pg.fits(n+1, nlo, nhi) {
			return n
		}
		lo, hi = nlo, nhi
	}
	return len(ents)
}

// count returns how many leaves the packer seals ents into. Sealing each
// leaf as late as it can needs the fewest, so the count falls as the budget
// grows.
func (pg packing) count(ents []packedEntry) (k int) {
	for ; len(ents) > 0; k++ {
		ents = ents[pg.sealed(ents):]
	}
	return k
}

// moveBitsUp moves the n bits of b from bit off up by d bits, over bits
// that must be zero from bit off+n on: a byte copy by d/8, then a shift of
// the moved bytes by the rest, a word at a time. Bits below off stay as they
// were; bits [off, off+d) are left for the caller to overwrite.
func moveBitsUp(b []byte, off, n, d uint) {
	if n == 0 || d == 0 {
		return
	}
	lo, hi, q := off>>3, (off+n+7)>>3, d>>3
	low := b[lo]
	copy(b[lo+q:], b[lo:hi])
	if r := d & 7; r > 0 {
		// Top down, a word at a time: each word takes the top r bits of
		// the one below it, loaded before anything below it is stored.
		w := b[lo+q : min(hi+q+1, uint(len(b)))]
		k := len(w)
		if k >= 8 {
			x := binary.LittleEndian.Uint64(w[k-8:])
			for ; k >= 16; k -= 8 {
				p := w[k-16 : k]
				below := binary.LittleEndian.Uint64(p[:8])
				binary.LittleEndian.PutUint64(p[8:], x<<r|below>>(64-r))
				x = below
			}
			var carry uint64
			if k > 8 {
				carry = uint64(w[k-9] >> (8 - r))
			}
			binary.LittleEndian.PutUint64(w[k-8:], x<<r|carry)
			k -= 8
		}
		for ; k > 0; k-- {
			var carry byte
			if k > 1 {
				carry = w[k-2] >> (8 - r)
			}
			w[k-1] = w[k-1]<<r | carry
		}
	}
	m := byte(1)<<(off&7) - 1
	b[lo] = b[lo]&^m | low&m
}

// storeBits overwrites the w-bit field (w <= 64) at bit offset off of b with
// the low w bits of v: with one 8-byte read-modify-write where the field
// and the word it sits in are inside b, else a byte at a time.
func storeBits(b []byte, off, w uint, v uint64) {
	if i, s := off>>3, off&7; s+w <= 64 && i+8 <= uint(len(b)) {
		m := bitpack.Mask(w) << s
		binary.LittleEndian.PutUint64(b[i:], binary.LittleEndian.Uint64(b[i:])&^m|v<<s&m)
		return
	}
	for w > 0 {
		i, s := off>>3, off&7
		n := min(8-s, w)
		m := byte(1<<n-1) << s
		b[i] = b[i]&^m | byte(v)<<s&m
		v >>= n
		off += n
		w -= n
	}
}

// decodeBufs hold the 24 bytes a Scan over packed leaves yields each entry
// in: fn may retain what it is handed only for the callback, and a buffer on
// the scan's stack would escape through fn into one allocation per Scan.
var decodeBufs = sync.Pool{New: func() any { return new([packedEntryLen]byte) }}

// validatePacked bounds-checks a packed leaf's widths and cell area.
func validatePacked(data []byte, num int) error {
	width := 0
	for j, limit := range packedMaxWidths {
		w := int(data[7+j])
		if w > limit {
			return fmt.Errorf("packed field %d is %d bits wide, above %d", j, w, limit)
		}
		width += w
	}
	if end := packedUsed(num, uint(width)); end > len(data) {
		return fmt.Errorf("%d packed cells of %d bits overflow the page (end at %d)", num, width, end)
	}
	return nil
}
