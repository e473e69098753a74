package btree

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/bitpack"
	"repro/internal/pager"
)

// A packed leaf (kind packedLeafNode) is the third leaf codec, for the
// read-only trees a PackedTree bulk-loads. Its entries have the postings'
// shape: a 12-byte key, a 4-byte big-endian symbol ‖ an 8-byte big-endian
// Left, and a 12-byte value, an 8-byte big-endian Right ‖ a 4-byte
// little-endian level. The leaf stores each entry as four unsigned deltas —
// symbol − the leaf's minimum symbol, Left − its minimum Left, Right − Left
// (mod 2^64), level − its minimum level — each at the leaf's width for that
// field, so every cell has the same bit width and cell i starts at bit
// i × width of the cell area:
//
//	header: kind(1) numKeys(2) next(4) widths(4: symbol, Left, scope, level)
//	        minSymbol(4) minLeft(8) minLevel(4), little-endian
//	cells:  numKeys × width bits, each field least significant bit first
//
// The bases are minimums, not the first cell's values: a leaf that crosses a
// symbol boundary restarts Left, and a first-cell base would wrap its deltas
// to 64 bits. Reads decode a cell's 24 bytes on the fly; nothing edits a
// packed leaf in place, so widths that vary from leaf to leaf cost no
// re-encode.
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

// errPackedEdit refuses Insert and Delete on a packed tree.
var errPackedEdit = errors.New("btree: packed leaves are bulk-loaded and read-only")

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
// compared as the symbol and Left it encodes with each probed cell's two key
// fields, decoded and nothing more; any other key with the cell's encoding.
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
			s, k := l.key(mid)
			if c = cmp.Compare(s, sym); c == 0 {
				c = cmp.Compare(k, left)
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
	sym := bitpack.Get(l.cells, off, l.w[0])
	off += l.w[0]
	left := bitpack.Get(l.cells, off, l.w[1])
	off += l.w[1]
	scope := bitpack.Get(l.cells, off, l.w[2])
	off += l.w[2]
	level := bitpack.Get(l.cells, off, l.w[3])
	return packedEntry{
		sym:   l.base.sym + uint32(sym),
		left:  l.base.left + left,
		scope: scope,
		level: l.base.level + uint32(level),
	}
}

// key decodes cell i's symbol and Left only, for a search probe.
func (l *packedLeaf) key(i int) (sym uint32, left uint64) {
	off := uint(i) * l.width
	if l.width <= bitpack.MaxWindow {
		x := bitpack.Window(l.cells, off)
		return l.base.sym + uint32(x&l.mask[0]), l.base.left + x>>l.w[0]&l.mask[1]
	}
	return l.base.sym + uint32(bitpack.Get(l.cells, off, l.w[0])), l.base.left + bitpack.Get(l.cells, off+l.w[0], l.w[1])
}

// packedUsed returns the bytes a packed leaf of num cells of width bits
// occupies, header included.
func packedUsed(num int, width uint) int {
	return packedHeaderSize + bitpack.Bytes(uint(num)*width)
}

// packer gathers the entries of the packed leaf being bulk-loaded until the
// next one would not fit, tracking the field ranges that set its widths.
type packer struct {
	ents   []packedEntry
	lo, hi packedEntry // per-field minimums and maximums (lo.scope unused)
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

// add appends e if the leaf still fits with it, and reports whether it did.
func (pk *packer) add(e packedEntry) bool {
	lo, hi := e, e
	if len(pk.ents) > 0 {
		lo = packedEntry{sym: min(pk.lo.sym, e.sym), left: min(pk.lo.left, e.left), level: min(pk.lo.level, e.level)}
		hi = packedEntry{sym: max(pk.hi.sym, e.sym), left: max(pk.hi.left, e.left), scope: max(pk.hi.scope, e.scope), level: max(pk.hi.level, e.level)}
		if n := len(pk.ents) + 1; n > maxPackedCells {
			return false
		} else if _, width := packedWidths(lo, hi); uint(n)*width > packedCellBits {
			return false
		}
	}
	pk.lo, pk.hi = lo, hi
	pk.ents = append(pk.ents, e)
	return true
}

// encode writes the gathered entries over data as one packed leaf chained to
// next, and empties the packer.
func (pk *packer) encode(data []byte, next uint32) {
	clear(data)
	data[0] = packedLeafNode
	binary.LittleEndian.PutUint16(data[1:3], uint16(len(pk.ents)))
	binary.LittleEndian.PutUint32(data[3:7], next)
	w, width := packedWidths(pk.lo, pk.hi)
	for j := range w {
		data[7+j] = byte(w[j])
	}
	binary.LittleEndian.PutUint32(data[11:15], pk.lo.sym)
	binary.LittleEndian.PutUint64(data[15:23], pk.lo.left)
	binary.LittleEndian.PutUint32(data[23:27], pk.lo.level)
	cells := data[packedHeaderSize:]
	for i, e := range pk.ents {
		off := uint(i) * width
		for j, v := range [4]uint64{uint64(e.sym - pk.lo.sym), e.left - pk.lo.left, e.scope, uint64(e.level - pk.lo.level)} {
			bitpack.Put(cells, off, w[j], v)
			off += w[j]
		}
	}
	pk.ents = pk.ents[:0]
}

// loadPackedLeaves is BulkLoad's leaf pass for a packed tree: it fills the
// pinned root page p and its successors, sealing a leaf when the next entry
// would not fit at the widths it would force. It releases p's pin.
func (t *Tree) loadPackedLeaves(p pager.Page, entries func() (key, val []byte, ok bool, err error)) ([]childRef, error) {
	var (
		pk     packer
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
