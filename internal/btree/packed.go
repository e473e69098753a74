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

// A packed leaf is the second leaf codec, for trees whose entries are a few
// fixed numeric fields. It stores each entry as up to four unsigned fields,
// each a delta from the leaf's minimum for that field (its frame of
// reference) or, for a field without one, the value as is, each at the
// leaf's width for that field; so every cell has the same bit width and cell
// i starts at bit i × width of the cell area:
//
//	header: kind(1) numKeys(2) next(4) widths(4), then each framed field's
//	        minimum (4 or 8 bytes), little-endian
//	cells:  numKeys × width bits, each field least significant bit first
//
// A packedLayout says which fields an entry has and how its key and value
// bytes map to them, and the kind byte says which layout a page holds:
//
//   - postings (kind packedLeafNode, a PackedTree): a 12-byte key, a 4-byte
//     big-endian symbol ‖ an 8-byte big-endian Left, and a 12-byte value, an
//     8-byte big-endian Right ‖ a 4-byte little-endian level; stored as the
//     symbol, Left and level from their minimums and Right − Left (mod
//     2^64), the scope, as is. A 27-byte header.
//   - Docid entries (kind packedDocIDLeafNode, a PackedDocIDTree): an 8-byte
//     big-endian terminal LeftPos key and a DocIDValue, a 4-byte
//     little-endian docID or a 13-byte tombstone of the docID and the
//     version it was deleted at; stored as the LeftPos and docID from their
//     minimums and the tombstone version (0 for a live entry) as is, so a
//     leaf without tombstones spends no bit on them. A 23-byte header.
//
// The bases are minimums, not the first cell's values: a postings leaf that
// crosses a symbol boundary restarts Left, and a first-cell base would wrap
// its deltas to 64 bits. Reads decode a cell's fields on the fly. An insert
// whose deltas fit the leaf's widths and bases moves the cells after it up
// by one cell width and writes its own; any other edit decodes the leaf into
// a pooled packer and re-encodes it at the widths its cells now need, and a
// leaf whose cells no longer fit the page splits into as many leaves as the
// packer seals (insertPacked, splitPacked).
const (
	packedLeafNode      = byte(4)
	packedDocIDLeafNode = byte(5)
	// packedKeyLen and packedEntryLen are the longest key and entry a
	// layout encodes: a posting's.
	packedKeyLen   = 12
	packedEntryLen = packedKeyLen + 12
	// maxPackedCells is numKeys' limit: a leaf of identical entries packs
	// them in zero bits each.
	maxPackedCells = 1<<16 - 1
)

// packedEntry is one entry's fields: for a cell, the absolute values.
type packedEntry [4]uint64

// A packedLayout is one entry shape of the packed codec. Its header bytes
// and key and value bytes map to its fields by the per-kind code below
// (parse, parseKey, putKey, put, bases, putBases), the only place that knows
// them.
type packedLayout struct {
	kind byte
	// name is the cell format Check holds a tree's leaves to, entries what
	// the layout's entries are.
	name, entries string
	// keyLen is the bytes of a key; the key is the first keyFields fields,
	// compared in order, and its bytes order as those numbers do.
	keyLen, keyFields int
	// fields is how many fields the layout uses; the others are 0 bits
	// wide.
	fields    int
	maxWidths [4]uint
	// frame is all ones for a field stored as a delta from the leaf's
	// minimum, 0 for one stored as is.
	frame packedEntry
	// pad is the order an aligned packing widens fields in.
	pad [4]int
	// header is the header's bytes, up to the end of its minimums (bases);
	// cellBits the bits it leaves for cells.
	header   int
	cellBits uint
}

var (
	postingsLayout = &packedLayout{
		kind: packedLeafNode, name: "packed", entries: "postings", keyLen: 12, keyFields: 2, fields: 4,
		maxWidths: [4]uint{32, 64, 64, 32}, frame: packedEntry{^uint64(0), ^uint64(0), 0, ^uint64(0)}, pad: [4]int{3, 0, 2, 1},
		header: 27, cellBits: (pager.PageDataSize - 27) * 8,
	}
	docIDLayout = &packedLayout{
		kind: packedDocIDLeafNode, name: "packed docid", entries: "Docid", keyLen: 8, keyFields: 1, fields: 3,
		maxWidths: [4]uint{64, 32, 64, 0}, frame: packedEntry{^uint64(0), ^uint64(0), 0, 0}, pad: [4]int{1, 0, 2, 3},
		header: 23, cellBits: (pager.PageDataSize - 23) * 8,
	}
)

// packedLayoutOf returns the layout of a packed leaf kind, or nil for any
// other kind.
func packedLayoutOf(kind byte) *packedLayout {
	switch kind {
	case packedLeafNode:
		return postingsLayout
	case packedDocIDLeafNode:
		return docIDLayout
	}
	return nil
}

// bases reads the minimums of a packed leaf's framed fields from its header,
// little-endian after the 11 bytes every packed header starts with: a
// postings leaf's symbol (4 bytes), Left (8) and level (4), a Docid leaf's
// LeftPos (8) and docID (4). It runs on every leaf a scan visits, so it is
// written out per kind: under the race detector every read of the shared
// layout is a checked access.
func (ly *packedLayout) bases(data []byte) packedEntry {
	if ly.kind == packedLeafNode {
		return packedEntry{uint64(binary.LittleEndian.Uint32(data[11:])), binary.LittleEndian.Uint64(data[15:]), 0, uint64(binary.LittleEndian.Uint32(data[23:]))}
	}
	return packedEntry{binary.LittleEndian.Uint64(data[11:]), uint64(binary.LittleEndian.Uint32(data[19:])), 0, 0}
}

// putBases writes the minimums bases reads.
func (ly *packedLayout) putBases(data []byte, b packedEntry) {
	if ly.kind == packedLeafNode {
		binary.LittleEndian.PutUint32(data[11:], uint32(b[0]))
		binary.LittleEndian.PutUint64(data[15:], b[1])
		binary.LittleEndian.PutUint32(data[23:], uint32(b[3]))
		return
	}
	binary.LittleEndian.PutUint64(data[11:], b[0])
	binary.LittleEndian.PutUint32(data[19:], uint32(b[1]))
}

// Docid values. A tombstone is the docID, a marker byte no 4-byte value
// has, and the version the document was deleted at, which is never 0.
const (
	docIDTombLen  = 13
	docIDTombMark = 0xFF
)

// DocIDValue encodes a Docid-tree value: the docID, 4 bytes little-endian,
// for a live entry (tombVersion 0), or the tombstone that marks the document
// deleted at version tombVersion.
func DocIDValue(docID uint32, tombVersion uint64) []byte {
	if tombVersion == 0 {
		return binary.LittleEndian.AppendUint32(nil, docID)
	}
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, docIDTombLen), docID)
	return binary.LittleEndian.AppendUint64(append(b, docIDTombMark), tombVersion)
}

// parse returns the fields of (key, val), and false when the pair is not an
// entry of the layout.
func (ly *packedLayout) parse(key, val []byte) (e packedEntry, ok bool) {
	if len(key) != ly.keyLen {
		return e, false
	}
	if ly.kind == packedLeafNode {
		if len(val) != 12 {
			return e, false
		}
		left := binary.BigEndian.Uint64(key[4:12])
		return packedEntry{
			uint64(binary.BigEndian.Uint32(key[:4])),
			left,
			binary.BigEndian.Uint64(val[:8]) - left,
			uint64(binary.LittleEndian.Uint32(val[8:12])),
		}, true
	}
	switch {
	case len(val) == 4:
	case len(val) == docIDTombLen && val[4] == docIDTombMark:
		if e[2] = binary.LittleEndian.Uint64(val[5:]); e[2] == 0 {
			return e, false
		}
	default:
		return e, false
	}
	e[0], e[1] = binary.BigEndian.Uint64(key), uint64(binary.LittleEndian.Uint32(val))
	return e, true
}

// notEntry is the error for (key, val), which parse refused.
func (ly *packedLayout) notEntry(key, val []byte) error {
	return fmt.Errorf("btree: (%x, %x) is not one of the %s entries a packed leaf holds", key, val, ly.entries)
}

// parseKey returns the key fields of a key of the layout's length.
func (ly *packedLayout) parseKey(key []byte) (k packedEntry) {
	if ly.kind == packedLeafNode {
		k[0], k[1] = uint64(binary.BigEndian.Uint32(key)), binary.BigEndian.Uint64(key[4:])
	} else {
		k[0] = binary.BigEndian.Uint64(key)
	}
	return k
}

// compareKey compares e's key fields with k's, small enough to be inlined
// into a scan's loop.
func (l *packedLeaf) compareKey(e, k *packedEntry) int {
	a, b := e[0], k[0]
	if a == b && l.twoKeys {
		a, b = e[1], k[1]
	}
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// putKey writes e's key as Scan yields it.
func (ly *packedLayout) putKey(e packedEntry, buf *[packedKeyLen]byte) []byte {
	if ly.kind == packedLeafNode {
		binary.BigEndian.PutUint32(buf[0:4], uint32(e[0]))
		binary.BigEndian.PutUint64(buf[4:12], e[1])
		return buf[:12]
	}
	binary.BigEndian.PutUint64(buf[:8], e[0])
	return buf[:8]
}

// put writes the entry as Scan yields it.
func (ly *packedLayout) put(e packedEntry, buf *[packedEntryLen]byte) (key, val []byte) {
	key = ly.putKey(e, (*[packedKeyLen]byte)(buf[:packedKeyLen]))
	v := buf[len(key):]
	if ly.kind == packedLeafNode {
		binary.BigEndian.PutUint64(v[:8], e[1]+e[2])
		binary.LittleEndian.PutUint32(v[8:12], uint32(e[3]))
		return key, v[:12]
	}
	binary.LittleEndian.PutUint32(v[:4], uint32(e[1]))
	if e[2] == 0 {
		return key, v[:4]
	}
	v[4] = docIDTombMark
	binary.LittleEndian.PutUint64(v[5:docIDTombLen], e[2])
	return key, v[:docIDTombLen]
}

// packedLeaf is a packed leaf's header, parsed once per visit of the leaf.
type packedLeaf struct {
	ly *packedLayout
	// twoKeys is whether the key is two fields (a posting's) or one.
	twoKeys bool
	cells   []byte
	w       [4]uint
	off     [4]uint // each field's first bit within a cell
	mask    [4]uint64
	width   uint // bits per cell
	base    packedEntry
}

// parse reads data's header into l, in place: a packedLeaf is too large to
// return by value on every leaf visit. It copies into l what the per-cell
// reads need: under the race detector every read of the shared layout is a
// checked access.
func (l *packedLeaf) parse(data []byte) {
	ly := packedLayoutOf(pageKind(data))
	w0, w1, w2, w3 := uint(data[7]), uint(data[8]), uint(data[9]), uint(data[10])
	l.ly, l.cells, l.twoKeys = ly, data[ly.header:], ly.keyFields > 1
	l.w = [4]uint{w0, w1, w2, w3}
	l.off = [4]uint{0, w0, w0 + w1, w0 + w1 + w2}
	l.width = w0 + w1 + w2 + w3
	l.mask = [4]uint64{bitpack.Mask(w0), bitpack.Mask(w1), bitpack.Mask(w2), bitpack.Mask(w3)}
	l.base = ly.bases(data)
}

// search is leafSearch on a packed leaf of hi cells. A key of the layout's
// length is compared as the fields it encodes (searchKey); any other key
// with the cell's encoding.
func (l *packedLeaf) search(key []byte, above, hi int) int {
	if len(key) == l.ly.keyLen {
		k := l.ly.parseKey(key)
		return l.searchKey(&k, above, 0, hi)
	}
	lo := 0
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		var buf [packedKeyLen]byte
		if bytes.Compare(l.ly.putKey(l.entry(mid), &buf), key) < above {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchKey is search for the key fields k: each probed cell's next field
// is decoded only where the ones before it are equal, and a cell of at most
// bitpack.MaxWindow bits gives up both from one load.
func (l *packedLeaf) searchKey(k *packedEntry, above, lo, hi int) int {
	if l.width > bitpack.MaxWindow {
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			c := cmp.Compare(l.field(mid, 0), k[0])
			if c == 0 && l.twoKeys {
				c = cmp.Compare(l.field(mid, 1), k[1])
			}
			if c < above {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	cells, width, two, incl := l.cells, l.width, l.twoKeys, above == 1
	b0, m0, b1, o1, m1 := l.base[0], l.mask[0], l.base[1], l.off[1], l.mask[1]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		x := bitpack.Window(cells, uint(mid)*width)
		f, kf := b0+x&m0, k[0]
		if f == kf && two {
			f, kf = b1+x>>o1&m1, k[1]
		}
		if f < kf || f == kf && incl {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// scanFields hands fn, a visitor of fields, the entries among cells from to
// to, from the first at or past lo (> lo without loIncl; every one for a
// nil lo) while they stay within hi (a nil hi bounds nothing), the bounds
// given as key fields. It reports whether the range goes on past cell to.
func (l *packedLeaf) scanFields(from, to int, lo, hi *packedEntry, loIncl, hiIncl bool, fn visitor) bool {
	if lo != nil {
		from = l.seek(lo, loIncl, from, to)
	}
	_, more := l.visitFrom(from, to, hi, hiIncl, fn)
	return more
}

// oneSymbol reports whether cells [from, to), at least one, all hold the
// posting symbol sym and are narrow enough to read whole from one load: a
// span of one symbol's postings, which searches and bounds on Left alone,
// as a list of that symbol's postings would.
func (l *packedLeaf) oneSymbol(from, to int, sym uint64) bool {
	if !l.twoKeys || l.width > bitpack.MaxWindow || from >= to {
		return false
	}
	cells, width, b0, m0 := l.cells, l.width, l.base[0], l.mask[0]
	return b0+bitpack.Window(cells, uint(from)*width)&m0 == sym && b0+bitpack.Window(cells, uint(to-1)*width)&m0 == sym
}

// seek returns the first of cells [from, to) at or past the key fields k
// (past k without incl), searching a span of one symbol on Left alone.
func (l *packedLeaf) seek(k *packedEntry, incl bool, from, to int) int {
	if !l.oneSymbol(from, to, k[0]) {
		above := 1
		if incl {
			above = 0
		}
		return l.searchKey(k, above, from, to)
	}
	return l.searchField(1, k[1], incl, from, to)
}

// searchField is searchKey over narrow cells [lo, hi) ordered by their
// field j alone: the first whose field j lies at or past v (past v without
// incl).
func (l *packedLeaf) searchField(j uint, v uint64, incl bool, lo, hi int) int {
	j &= 3
	cells, width, b, o, m := l.cells, l.width, l.base[j], l.off[j], l.mask[j]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f := b + bitpack.Window(cells, uint(mid)*width)>>o&m; f < v || f == v && !incl {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gallopProbes bounds a cursor's forward gallop. Over the benchmark's
// query population 69 % of a level cursor's forward seeks land on the cell
// it stopped at and 85 % within seven cells of it, but a few jump hundreds
// of cells, where an unbounded gallop's 2·log d probes cost twice a binary
// search: four probes (cells at, at+1, at+3, at+7) find the near ones, and
// a binary search of the rest the far ones, at most four probes more than
// the search alone.
const gallopProbes = 4

// gallopField returns the first of cells [lo, to) whose field j lies past v
// (at or past v with incl), for narrow cells ordered by field j alone — a
// Docid leaf's, or a span of one symbol's postings, on Left — from a cursor
// at cell at. When the cell before at lies before v it gallops: it probes
// at, at+1, at+3, … (gallopProbes of them) until a cell does not, then
// searches the last step, or the rest of the span; else the window went
// back, and it searches [lo, at).
func (l *packedLeaf) gallopField(j uint, v uint64, incl bool, lo, at, to int) int {
	j &= 3
	cells, width, b, o, m := l.cells, l.width, l.base[j], l.off[j], l.mask[j]
	hi, back := to, false
	if at > lo {
		f := b + bitpack.Window(cells, uint(at-1)*width)>>o&m
		back = !(f < v || f == v && !incl)
	}
	if back {
		hi = at
	} else {
		lo = at
		for i, step := at, 1; i < to && step <= 1<<(gallopProbes-1); i, step = i+step, step*2 {
			if f := b + bitpack.Window(cells, uint(i)*width)>>o&m; !(f < v || f == v && !incl) {
				hi = i
				break
			}
			lo = i + 1
		}
	}
	return l.searchField(j, v, incl, lo, hi)
}

// visitFrom hands fn, a visitor of fields, the entries of cells from to to
// while they stay within hi (a nil hi bounds nothing), with no lower bound:
// the caller has placed from. It returns the first cell fn was not handed
// and whether the range goes on past cell to. A span of one symbol's
// postings is bounded on Left alone, one load a cell.
func (l *packedLeaf) visitFrom(from, to int, hi *packedEntry, hiIncl bool, fn visitor) (stop int, more bool) {
	if fn.posting != nil && hi != nil && l.oneSymbol(from, to, hi[0]) {
		return l.visitLefts(from, to, uint32(hi[0]), hi[1], hiIncl, fn.posting)
	}
	for i := from; i < to; i++ {
		e := l.entry(i)
		if hi != nil {
			if c := l.compareKey(&e, hi); c > 0 || c == 0 && !hiIncl {
				return i, false
			}
		}
		if fn.posting != nil {
			more = fn.posting(uint32(e[0]), e[1], e[1]+e[2], uint32(e[3]))
		} else {
			more = fn.docID(e[0], uint32(e[1]), e[2])
		}
		if !more {
			return i + 1, false
		}
	}
	return to, true
}

// visitLefts is visitFrom over cells that all hold the symbol sym
// (oneSymbol), bounded by hi on Left alone.
func (l *packedLeaf) visitLefts(from, to int, sym uint32, hi uint64, hiIncl bool, fn func(sym uint32, left, right uint64, level uint32) bool) (stop int, more bool) {
	cells, width := l.cells, l.width
	b1, o1, m1 := l.base[1], l.off[1], l.mask[1]
	b2, o2, m2, b3, o3, m3 := l.base[2], l.off[2], l.mask[2], l.base[3], l.off[3], l.mask[3]
	for i := from; i < to; i++ {
		x := bitpack.Window(cells, uint(i)*width)
		left := b1 + x>>o1&m1
		if left > hi || left == hi && !hiIncl {
			return i, false
		}
		if !fn(sym, left, left+(b2+x>>o2&m2), uint32(b3+x>>o3&m3)) {
			return i + 1, false
		}
	}
	return to, true
}

// entry decodes cell i. A cell of at most bitpack.MaxWindow bits — dense
// labels make most leaves that narrow — is read with one 8-byte load.
func (l *packedLeaf) entry(i int) (e packedEntry) {
	off := uint(i) * l.width
	if l.width <= bitpack.MaxWindow {
		x := bitpack.Window(l.cells, off)
		return packedEntry{
			l.base[0] + x&l.mask[0],
			l.base[1] + x>>l.off[1]&l.mask[1],
			l.base[2] + x>>l.off[2]&l.mask[2],
			l.base[3] + x>>l.off[3]&l.mask[3],
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
	for j := range e {
		v := w[s>>6] >> (s & 63)
		if s&63+l.w[j] > 64 {
			v |= w[s>>6+1] << (64 - s&63)
		}
		s += l.w[j]
		e[j] = l.base[j] + v&l.mask[j]
	}
	return e
}

// field decodes cell i's field j only, for a search probe: from one 8-byte
// load on a cell of at most bitpack.MaxWindow bits, else from just the bytes
// the field covers — a probe that lands on another symbol, the common case
// in a postings leaf of many, reads no more.
func (l *packedLeaf) field(i int, j uint) uint64 {
	j &= 3
	off := uint(i) * l.width
	if l.width <= bitpack.MaxWindow {
		return l.base[j] + bitpack.Window(l.cells, off)>>l.off[j]&l.mask[j]
	}
	off += l.off[j]
	if l.w[j] > 56 {
		return l.base[j] + bitpack.Get(l.cells, off, l.w[j])
	}
	var v uint64
	for k, end := off>>3, (off+l.w[j]+7)>>3; k < end; k++ {
		v |= uint64(l.cells[k]) << (8 * (k - off>>3))
	}
	return l.base[j] + v>>(off&7)&l.mask[j]
}

// used returns the bytes a packed leaf of num cells of width bits
// occupies, header included.
func (ly *packedLayout) used(num int, width uint) int {
	return ly.header + bitpack.Bytes(uint(num)*width)
}

// packer gathers the entries of one packed leaf — BulkLoad's until the next
// one would not fit, an edit's as the leaf holds them after it — and the
// field ranges that set its widths, and seals it by its packing.
type packer struct {
	ents   []packedEntry
	lo, hi packedEntry // per-field minimums and maximums
	pg     packing
}

// A packing is how a packer seals leaves of layout ly: at most budget cell
// bits each, and, when aligned, in cells a whole number of bytes wide. A tree
// that takes inserts gets aligned cells — its bulk loads (loadPacking) and
// every edit (editPacking) write them — so an insert moves the cells after
// it with a byte copy instead of a shift; a static tree's cells are as
// narrow as its fields. reserve is the bits the budget counts every cell
// wider than the cells written.
type packing struct {
	ly      *packedLayout
	budget  uint
	aligned bool
	reserve uint
}

// editPacking is the packing of a leaf an edit re-encodes: the whole page,
// aligned cells.
func (ly *packedLayout) editPacking() packing {
	return packing{ly: ly, budget: ly.cellBits, aligned: true}
}

// loadPacking is BulkLoad's packing for fill: all of a static tree's cell
// bits; nine tenths of an insertable one's (loadSlack), in aligned cells,
// each Docid cell counted wide enough for the version of a tombstone of
// fill.Version or any up to twice it.
func (ly *packedLayout) loadPacking(fill Fill) packing {
	if !fill.Insertable {
		return packing{ly: ly, budget: ly.cellBits}
	}
	pg := packing{ly: ly, budget: ly.cellBits * 9 / 10, aligned: true}
	if ly == docIDLayout {
		pg.reserve = uint(bits.Len64(2 * fill.Version))
	}
	return pg
}

// widths returns the field widths, and their sum, that pg writes cells
// spanning lo..hi at (rawWidths, aligned).
func (pg packing) widths(lo, hi packedEntry) ([4]uint, uint) {
	return pg.align(pg.ly.rawWidths(&lo, &hi))
}

// rawWidths returns the field widths, and their sum, that values from lo up
// to hi need: each framed field's delta from its minimum, every other
// field's value.
func (ly *packedLayout) rawWidths(lo, hi *packedEntry) (w [4]uint, width uint) {
	w = [4]uint{
		uint(bits.Len64(hi[0] - lo[0]&ly.frame[0])),
		uint(bits.Len64(hi[1] - lo[1]&ly.frame[1])),
		uint(bits.Len64(hi[2] - lo[2]&ly.frame[2])),
		uint(bits.Len64(hi[3] - lo[3]&ly.frame[3])),
	}
	return w, w[0] + w[1] + w[2] + w[3]
}

// align widens the fields of an aligned packing, in the layout's pad order,
// to a whole number of bytes as far as each has room; every field at its
// widest makes whole bytes, so the room is always there.
func (pg packing) align(w [4]uint, width uint) ([4]uint, uint) {
	if pg.aligned {
		for _, j := range pg.ly.pad {
			pad := min(pg.ly.maxWidths[j]-w[j], (8-width%8)%8)
			w[j] += pad
			width += pad
		}
	}
	return w, width
}

// widen returns the field ranges lo..hi stretched over e.
//
// It and the other functions over an entry's fields that every cell of a
// load, a split or a scan runs are written out field by field: the compiler
// unrolls no loop.
func widen(lo, hi, e packedEntry) (packedEntry, packedEntry) {
	return packedEntry{min(lo[0], e[0]), min(lo[1], e[1]), min(lo[2], e[2]), min(lo[3], e[3])},
		packedEntry{max(hi[0], e[0]), max(hi[1], e[1]), max(hi[2], e[2]), max(hi[3], e[3])}
}

// fits reports whether n cells spanning lo..hi fit one leaf, each counted
// pg.reserve bits wider. An aligned cell is its fields rounded up to whole
// bytes: align always finds the room. It is rawWidths written out: every
// cell of a load or a split runs it.
func (pg *packing) fits(n int, lo, hi *packedEntry) bool {
	fr := &pg.ly.frame
	width := uint(bits.Len64(hi[0]-lo[0]&fr[0])+bits.Len64(hi[1]-lo[1]&fr[1])+
		bits.Len64(hi[2]-lo[2]&fr[2])+bits.Len64(hi[3]-lo[3]&fr[3])) + pg.reserve
	if pg.aligned {
		width = (width + 7) &^ 7
	}
	return n <= maxPackedCells && uint(n)*width <= pg.budget
}

// add appends e if the leaf still fits with it, and reports whether it did.
func (pk *packer) add(e packedEntry) bool {
	lo, hi := e, e
	if len(pk.ents) > 0 {
		if lo, hi = widen(pk.lo, pk.hi, e); !pk.pg.fits(len(pk.ents)+1, &lo, &hi) {
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
	ly := pk.pg.ly
	clear(data)
	data[0] = ly.kind
	binary.LittleEndian.PutUint16(data[1:3], uint16(len(pk.ents)))
	binary.LittleEndian.PutUint32(data[3:7], next)
	w, _ := pk.pg.widths(pk.lo, pk.hi)
	base := packedEntry{pk.lo[0] & ly.frame[0], pk.lo[1] & ly.frame[1], pk.lo[2] & ly.frame[2], pk.lo[3] & ly.frame[3]}
	for j := range w {
		data[7+j] = byte(w[j])
	}
	ly.putBases(data, base)
	// The cells are written in order, through a 64-bit accumulator stored a
	// whole word at a time.
	cells := data[ly.header:]
	var (
		acc  uint64
		used uint // bits of acc
		at   int  // where acc goes
	)
	for _, e := range pk.ents {
		for j := range e {
			v := e[j] - base[j]
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
		e, ok := pg.ly.parse(key, val)
		if !ok {
			p.Unpin(true)
			return nil, pg.ly.notEntry(key, val)
		}
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
	b, m := &l.base, &l.mask
	return e[0] >= b[0] && e[0]-b[0] <= m[0] && e[1] >= b[1] && e[1]-b[1] <= m[1] &&
		e[2] >= b[2] && e[2]-b[2] <= m[2] && e[3] >= b[3] && e[3]-b[3] <= m[3]
}

// decode gathers the leaf's num cells into pk, to be re-encoded by its
// layout's editPacking.
func (pk *packer) decode(l *packedLeaf, num int) {
	pk.ents, pk.pg = pk.ents[:0], l.ly.editPacking()
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
	e, ok := l.ly.parse(key, val)
	if !ok {
		p.Unpin(false)
		return nil, l.ly.notEntry(key, val)
	}
	num := pageNumKeys(data)
	pos := l.search(key, 1, num)
	if num < maxPackedCells && uint(num+1)*l.width <= l.ly.cellBits && l.holds(e) {
		off := uint(pos) * l.width
		moveBitsUp(l.cells, off, uint(num-pos)*l.width, l.width)
		for j := range e {
			storeBits(l.cells, off, l.w[j], e[j]-l.base[j])
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
	if pk.span(); pk.pg.fits(len(pk.ents), &pk.lo, &pk.hi) {
		pk.encode(data, pageExtra(data))
		p.Unpin(true)
		return nil, nil
	}
	return t.splitPacked(p, l.ly, pk.ents, pos == num && pageExtra(data) == 0)
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
	if pk.span(); !pk.pg.fits(len(pk.ents), &pk.lo, &pk.hi) {
		pk.pg.aligned = false
	}
	pk.encode(data, pageExtra(data))
	packedEdits.Put(pk)
}

// splitPacked writes ents, the cells of a packed leaf of layout ly that no
// longer fit one page, over the pinned leaf p and new leaves chained after
// it, and releases p's pin. It cuts them into as many leaves as the packer
// seals at full pages, and returns every leaf but p with its first key. An
// append to the tree's last leaf (fill) leaves p full, so ascending inserts
// leave full leaves behind; any other split fills the leaves about equally,
// to within a 64th of a page of the smallest cell budget that needs no more
// of them.
func (t *Tree) splitPacked(p pager.Page, ly *packedLayout, ents []packedEntry, fill bool) ([]childRef, error) {
	pg := ly.editPacking()
	if !fill {
		k := pg.count(ents)
		for lo := uint(0); pg.budget-lo > ly.cellBits/64; {
			mid := packing{ly: ly, budget: (lo + pg.budget) / 2, aligned: true}
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
		var first [packedKeyLen]byte
		refs[i-1] = childRef{first: bytes.Clone(ly.putKey(ents[starts[i]], &first)), page: np.ID}
		next = uint32(np.ID)
		np.Unpin(true)
	}
	p.Unpin(true)
	t.forest.leafSplits.Add(1)
	return refs, nil
}

// sealed returns how many of ents, from the first, one leaf holds: at
// least one, however wide.
func (pg *packing) sealed(ents []packedEntry) int {
	lo, hi := ents[0], ents[0]
	for n := 1; n < len(ents); n++ {
		nlo, nhi := widen(lo, hi, ents[n])
		if !pg.fits(n+1, &nlo, &nhi) {
			return n
		}
		lo, hi = nlo, nhi
	}
	return len(ents)
}

// count returns how many leaves the packer seals ents into. Sealing each
// leaf as late as it can needs the fewest, so the count falls as the budget
// grows.
func (pg *packing) count(ents []packedEntry) (k int) {
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

// decodeBufs hold the bytes a Scan over packed leaves yields each entry in:
// fn may retain what it is handed only for the callback, and a buffer on the
// scan's stack would escape through fn into one allocation per Scan.
var decodeBufs = sync.Pool{New: func() any { return new([packedEntryLen]byte) }}

// validatePacked bounds-checks a packed leaf's widths and cell area.
func validatePacked(data []byte, num int) error {
	ly := packedLayoutOf(pageKind(data))
	width := uint(0)
	for j, limit := range ly.maxWidths {
		w := uint(data[7+j])
		if w > limit {
			return fmt.Errorf("packed field %d is %d bits wide, above %d", j, w, limit)
		}
		width += w
	}
	if end := ly.used(num, width); end > len(data) {
		return fmt.Errorf("%d packed cells of %d bits overflow the page (end at %d)", num, width, end)
	}
	return nil
}
