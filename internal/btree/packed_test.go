package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/pager"
)

// Tests of the packed leaf codec, in both its layouts: bulk loads of sorted
// entries derived from random bytes, then inserts and deletes derived from
// the same bytes, held against a sorted-slice model (runPackedOps, shared by
// TestLeafOpsAgainstModel and FuzzPackedLeaf), the widest fields, edits that
// widen and narrow cells and split a leaf three ways, the allocation-free
// scans and in-place edits, power-cut sweeps over packed inserts and what
// Check says about a damaged leaf.

// postingEntry is one 12+12-byte entry of the postings' shape.
func postingEntry(sym uint32, left, right uint64, level uint32) [2][]byte {
	k := make([]byte, 12)
	binary.BigEndian.PutUint32(k, sym)
	binary.BigEndian.PutUint64(k[4:], left)
	v := make([]byte, 12)
	binary.BigEndian.PutUint64(v, right)
	binary.LittleEndian.PutUint32(v[8:], level)
	return [2][]byte{k, v}
}

// docIDEntry is one Docid entry: a terminal's 8-byte key and a DocIDValue.
func docIDEntry(term uint64, docID uint32, tombVersion uint64) [2][]byte {
	return [2][]byte{KeyUint64(term), DocIDValue(docID, tombVersion)}
}

// A packedCase is one layout as runPackedOps drives it.
type packedCase struct {
	ly      *packedLayout
	newTree func(f *Forest, name string) (*Tree, error)
	// model derives entries in key order from ops, four bytes an op.
	model func(ops []byte) [][2][]byte
	// insert returns the entry an insert op adds beside base, the fields of
	// the entry it selected.
	insert func(base packedEntry, op []byte) [2][]byte
	// fieldScans are the layout's field scans, as Scans.
	fieldScans func(tr *Tree) []scanFunc
}

type scanFunc = func(lo, hi []byte, loIncl, hiIncl bool, fn func(k, v []byte) bool) error

var (
	postingsCase = packedCase{
		ly:      postingsLayout,
		newTree: (*Forest).PackedTree,
		model:   packedModel,
		insert:  postingInsert,
		fieldScans: func(tr *Tree) []scanFunc {
			return []scanFunc{postingsScan(tr.ScanPostings), postingsScan(tr.ScanPostingsNoFill)}
		},
	}
	docIDCase = packedCase{
		ly:      docIDLayout,
		newTree: (*Forest).PackedDocIDTree,
		model:   docIDModel,
		insert:  docIDInsert,
		fieldScans: func(tr *Tree) []scanFunc {
			return []scanFunc{docIDScan(tr.ScanDocIDs), docIDScan(tr.ScanDocIDsNoFill)}
		},
	}
	packedCases = []packedCase{postingsCase, docIDCase}
)

// packedModel derives postings in key order from ops, four bytes an op:
// opcode, step, value and run length. An op either starts a new symbol,
// with Lefts that restart anywhere below or above the last one (a leaf
// crossing it must not wrap its deltas), or emits a run of Lefts under the
// current symbol, steps of 0 (duplicate keys) up to 2^63, with scopes and
// levels small, wide or needing the full 64 and 32 bits.
func packedModel(ops []byte) [][2][]byte {
	var (
		out  [][2][]byte
		sym  uint32
		left uint64
	)
	for i := 0; i+3 < len(ops); i += 4 {
		c, a, b, d := ops[i], uint64(ops[i+1]), uint64(ops[i+2]), ops[i+3]
		shift := uint(c>>3) % 8 * 8
		if c%4 == 0 {
			if restart := b<<shift | uint64(d); sym < math.MaxUint32 {
				sym = uint32(min(uint64(sym)+1+a<<(shift/2), math.MaxUint32))
				left = restart
			} else {
				left = max(left, restart) // no symbol above: Lefts go on
			}
			continue
		}
		for n := 1 + int(d%16); n > 0; n-- {
			if step := a << shift; left > math.MaxUint64-step {
				left = math.MaxUint64
			} else {
				left += step
			}
			var scope uint64
			level := uint32(a) + uint32(b)<<(shift%32)
			switch c % 4 {
			case 1:
				scope = b
			case 2:
				scope = b << shift
			case 3: // Right below Left: the scope wraps to 64 bits
				scope, level = math.MaxUint64-b, math.MaxUint32-uint32(b)
			}
			out = append(out, postingEntry(sym, left, left+scope, level))
		}
	}
	return out
}

// docIDModel derives Docid entries in key order from ops, four bytes an op:
// opcode, step, value and run length. Each op emits a run of terminals,
// steps of 0 (several documents on one terminal) up to 2^63, whose docIDs
// repeat, count up or scatter over all 32 bits, and one op in four makes
// them tombstones, of versions small or needing all 64 bits.
func docIDModel(ops []byte) [][2][]byte {
	var (
		out  [][2][]byte
		term uint64
	)
	for i := 0; i+3 < len(ops); i += 4 {
		c, a, b, d := ops[i], uint64(ops[i+1]), uint64(ops[i+2]), ops[i+3]
		shift := uint(c>>3) % 8 * 8
		for n := 1 + int(d%16); n > 0; n-- {
			if step := a << shift; term > math.MaxUint64-step {
				term = math.MaxUint64
			} else {
				term += step
			}
			docID := uint32(b)
			switch c >> 6 {
			case 1:
				docID += uint32(n)
			case 2:
				docID = uint32(b<<24|a<<16) + uint32(n)*2654435761
			}
			var tomb uint64
			if c%4 == 0 {
				tomb = 1 + b<<shift
				if c&4 != 0 {
					tomb = math.MaxUint64 - b
				}
			}
			out = append(out, docIDEntry(term, docID, tomb))
		}
	}
	return out
}

// runPackedOps bulk-loads pc.model(ops) into a packed tree over a small
// pool — insertable or static by ops' first byte — then replays ops as
// Insert and Delete calls against the model (packedEdit), and checks the
// tree against it after the load, every few edits, after the last and after
// a reopen: Check, a full Scan, ScanNoFill and field scan (every cell
// decoded, the leaf chain followed), range scans from and to keys in the
// model and between them (each leaf's lower and upper bounds), and packed
// leaves.
func runPackedOps(t *testing.T, pc packedCase, ops []byte) {
	t.Helper()
	model := pc.model(ops)
	file := pager.NewMemFile()
	f, err := Open(pager.NewBufferPool(file, 16))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pc.newTree(f, "p")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(Fill{Insertable: len(ops) > 0 && ops[0]&1 == 1}, sliceFeeder(model)); err != nil {
		t.Fatal(err)
	}
	key := func(j int) []byte { return model[j][0] }
	check := func(stage string) {
		t.Helper()
		if errs := f.Check(); len(errs) > 0 {
			t.Fatalf("%s: %v", stage, errs[0])
		}
		if tr.Len() != uint64(len(model)) {
			t.Fatalf("%s: Len %d, model %d", stage, tr.Len(), len(model))
		}
		fieldScans := pc.fieldScans(tr)
		for _, scan := range append([]scanFunc{tr.Scan, tr.ScanNoFill}, fieldScans...) {
			scanMatches(t, stage, scan, nil, nil, true, true, model)
		}
		probes := [][]byte{nil}
		for j := 0; j < len(model); j += 1 + len(model)/16 {
			between := bytes.Clone(key(j))
			between[len(between)-1]++
			probes = append(probes, key(j), between)
		}
		probes = append(probes, bytes.Repeat([]byte{0xff}, pc.ly.keyLen))
		if len(model) > 0 {
			probes = append(probes, key(len(model) / 2)[:5]) // compared as bytes, not as key fields
		}
		for pi, lo := range probes {
			hi := probes[(pi*7+3)%len(probes)]
			loIncl, hiIncl := pi%2 == 0, pi%3 != 0
			start := sort.Search(len(model), func(j int) bool {
				c := bytes.Compare(key(j), lo)
				return lo == nil || c > 0 || (c == 0 && loIncl)
			})
			end := sort.Search(len(model), func(j int) bool {
				c := bytes.Compare(key(j), hi)
				return hi != nil && (c > 0 || (c == 0 && !hiIncl))
			})
			want := model[start:max(start, end)]
			scanMatches(t, stage, tr.Scan, lo, hi, loIncl, hiIncl, want)
			scanMatches(t, stage, fieldScans[0], lo, hi, loIncl, hiIncl, want)
		}
		if s, err := tr.Shape(); err != nil || !strings.HasPrefix(s.LeafFormat, "packed ") {
			t.Fatalf("%s: leaves are %q (%v)", stage, s.LeafFormat, err)
		}
	}
	check("loaded")
	edits := len(ops) / 4
	for i := 0; i < edits; i++ {
		model = packedEdit(t, pc, tr, model, ops[4*i:4*i+4])
		if tr.Len() != uint64(len(model)) {
			t.Fatalf("edit %d: Len %d, model %d", i, tr.Len(), len(model))
		}
		if (i+1)%(1+edits/8) == 0 {
			check(fmt.Sprintf("edit %d", i))
		}
	}
	check("edited")
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if f, err = Open(pager.NewBufferPool(file, 16)); err != nil {
		t.Fatal(err)
	}
	tr = f.Lookup("p")
	check("reopened")
}

// packedEdit applies one edit derived from op — opcode, selector, value,
// variant — to tr and to the model it returns. One op in four deletes the
// selected entry, by key or as the exact pair; the others insert the entry
// pc.insert derives from the selected one.
func packedEdit(t *testing.T, pc packedCase, tr *Tree, model [][2][]byte, op []byte) [][2][]byte {
	t.Helper()
	var base packedEntry
	j := 0
	if len(model) > 0 {
		j = int(uint(op[1])<<8|uint(op[2])) % len(model)
		base, _ = pc.ly.parse(model[j][0], model[j][1])
	}
	if op[0]%4 == 0 && len(model) > 0 {
		k, v := model[j][0], model[j][1]
		if op[3]&1 == 0 {
			v = nil
		}
		ok, err := tr.Delete(k, v)
		if err != nil || !ok {
			t.Fatalf("Delete(%x, %x) = %v, %v; the model holds it", k, v, ok, err)
		}
		pos := 0
		for !bytes.Equal(model[pos][0], k) || v != nil && !bytes.Equal(model[pos][1], v) {
			pos++
		}
		return slices.Delete(model, pos, pos+1)
	}
	ent := pc.insert(base, op)
	if err := tr.Insert(ent[0], ent[1]); err != nil {
		t.Fatalf("Insert(%x, %x): %v", ent[0], ent[1], err)
	}
	pos := sort.Search(len(model), func(i int) bool { return bytes.Compare(model[i][0], ent[0]) > 0 })
	return slices.Insert(model, pos, ent)
}

// postingInsert is a posting beside base: a duplicate of its key, a Left a
// step of up to 2^63 above it, or the next or previous symbol at a Left
// anywhere, with a scope kept, small, wide or needing all 64 bits and a
// level near or far from base's, so cells widen, bases move and leaves
// split, by bits, into two leaves or more.
func postingInsert(e packedEntry, op []byte) [2][]byte {
	c, a, b, d := op[0], uint64(op[1]), uint64(op[2]), op[3]
	shift := uint(d>>3) % 8 * 8
	switch c % 4 {
	case 1: // a duplicate key
	case 2:
		e[1] += a << shift
	case 3:
		if c&4 == 0 {
			e[0]++
		} else {
			e[0]--
		}
		e[1] = b<<shift | uint64(d)
	}
	switch d % 4 {
	case 1:
		e[2] = b
	case 2:
		e[2] = b << shift
	case 3:
		e[2] = math.MaxUint64 - b
	}
	if c&8 != 0 {
		e[3] = math.MaxUint32 - b
	}
	return postingEntry(uint32(e[0]), e[1], e[1]+e[2], uint32(e[3]))
}

// docIDInsert is a Docid entry beside base: another document on its
// terminal, its tombstone — small, or widening the version field to all 64
// bits — beside the live entry, or a terminal a step of up to 2^63 above or
// below it, with a docID kept, near or anywhere in 32 bits.
func docIDInsert(e packedEntry, op []byte) [2][]byte {
	c, a, b, d := op[0], uint64(op[1]), uint64(op[2]), op[3]
	shift := uint(d>>3) % 8 * 8
	e[2] = 0
	switch c % 4 {
	case 1: // another document on the terminal
		e[1] += 1 + a
	case 2: // a tombstone
		e[2] = 1 + b<<shift
		if c&4 != 0 {
			e[2] = math.MaxUint64 - b
		}
	case 3:
		if c&4 == 0 {
			e[0] += a << shift
		} else {
			e[0] -= a << shift
		}
	}
	if d%4 == 3 {
		e[1] = uint64(uint32(b<<24 | a<<8 | uint64(d)))
	}
	return docIDEntry(e[0], uint32(e[1]), e[2])
}

// postingsScan adapts ScanPostings to Scan's callback, re-encoding each
// entry's fields, so scanMatches holds both to the same model.
func postingsScan(scan func([]byte, []byte, bool, bool, func(uint32, uint64, uint64, uint32) bool) error) scanFunc {
	return func(lo, hi []byte, loIncl, hiIncl bool, fn func(k, v []byte) bool) error {
		return scan(lo, hi, loIncl, hiIncl, func(sym uint32, left, right uint64, level uint32) bool {
			e := postingEntry(sym, left, right, level)
			return fn(e[0], e[1])
		})
	}
}

// docIDScan is postingsScan for ScanDocIDs.
func docIDScan(scan func([]byte, []byte, bool, bool, func(uint64, uint32, uint64) bool) error) scanFunc {
	return func(lo, hi []byte, loIncl, hiIncl bool, fn func(k, v []byte) bool) error {
		return scan(lo, hi, loIncl, hiIncl, func(term uint64, docID uint32, tomb uint64) bool {
			e := docIDEntry(term, docID, tomb)
			return fn(e[0], e[1])
		})
	}
}

// scanMatches runs one scan and holds what it yields to want, entry by entry.
func scanMatches(t *testing.T, stage string, scan scanFunc, lo, hi []byte, loIncl, hiIncl bool, want [][2][]byte) {
	t.Helper()
	j := 0
	err := scan(lo, hi, loIncl, hiIncl, func(k, v []byte) bool {
		if j >= len(want) || !bytes.Equal(k, want[j][0]) || !bytes.Equal(v, want[j][1]) {
			t.Fatalf("%s: scan [%x, %x] entry %d is (%x, %x), model disagrees", stage, lo, hi, j, k, v)
		}
		j++
		return true
	})
	if err != nil || j != len(want) {
		t.Fatalf("%s: scan [%x, %x] saw %d of %d entries (err %v)", stage, lo, hi, j, len(want), err)
	}
}

func FuzzPackedLeaf(f *testing.F) {
	f.Add([]byte{0, 1, 200, 7, 1, 3, 9, 15, 4, 0, 0, 255, 3, 1, 2, 15})
	f.Add(bytes.Repeat([]byte{1, 1, 3, 15, 0, 0, 0, 0}, 200))
	f.Add(bytes.Repeat([]byte{59, 255, 255, 15, 56, 255, 255, 255}, 60))
	// 3,200 copies of one entry in zero-width cells, then copies of its key
	// with 64-bit scopes (postings) or 64-bit tombstone versions (Docid).
	f.Add(bytes.Repeat([]byte{1, 0, 0, 15}, 200))
	f.Add(append(bytes.Repeat([]byte{1, 0, 0, 15}, 200), bytes.Repeat([]byte{6, 0, 0, 7, 3, 0, 0, 7}, 20)...))
	// Deletes by key and by pair among widening inserts, symbol steps both
	// ways and far levels; Docid duplicates, tombstones and far terminals.
	f.Add(bytes.Repeat([]byte{2, 7, 1, 7, 0, 3, 3, 2, 3, 5, 2, 12, 12, 1, 9, 3, 8, 0, 1, 1, 15, 4, 4, 10}, 50))
	f.Add(bytes.Repeat([]byte{65, 7, 1, 7, 0, 3, 3, 3, 130, 5, 2, 12, 6, 1, 9, 3, 8, 0, 1, 1, 199, 4, 4, 10}, 50))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*300 {
			ops = ops[:4*300]
		}
		for _, pc := range packedCases {
			runPackedOps(t, pc, ops)
		}
	})
}

// Fields at their widest — the symbol, Left, scope and level spanning
// their whole ranges within one leaf — pack at 32+64+64+32 bits and read
// back exactly.
func TestPackedFullWidths(t *testing.T) {
	entries := [][2][]byte{
		postingEntry(0, 0, math.MaxUint64, 0),
		postingEntry(0, math.MaxUint64, 0, math.MaxUint32),
		postingEntry(math.MaxUint32, 0, 5, 7),
		postingEntry(math.MaxUint32, math.MaxUint64, math.MaxUint64, 1),
	}
	f := memForest(t)
	tr, _ := f.PackedTree("p")
	if err := tr.BulkLoad(Fill{}, sliceFeeder(entries)); err != nil {
		t.Fatal(err)
	}
	if errs := f.Check(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	scanMatches(t, "full widths", tr.Scan, nil, nil, true, true, entries)
	if s, _ := tr.Shape(); s.LeafFormat != "packed 32+64+64+32-bit" || s.Pages[0] != 1 {
		t.Fatalf("shape %+v", s)
	}
}

// An insert the leaf's widths cannot hold re-encodes it at wider cells, and
// deleting that entry again narrows them back: the leaf comes out byte for
// byte as it was loaded.
func TestPackedEditsWidenAndNarrow(t *testing.T) {
	entries := packedPostings(40)
	f := memForest(t)
	tr, _ := f.PackedTree("p")
	if err := tr.BulkLoad(Fill{Insertable: true}, sliceFeeder(entries)); err != nil {
		t.Fatal(err)
	}
	leaf := func() []byte {
		p, err := f.bp.Get(tr.root)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Unpin(false)
		return bytes.Clone(p.Data)
	}
	loaded := leaf()
	s0, _ := tr.Shape()
	wide := postingEntry(0, 7, 6, math.MaxUint32) // Right below Left: a 64-bit scope
	if err := tr.Insert(wide[0], wide[1]); err != nil {
		t.Fatal(err)
	}
	want := slices.Insert(slices.Clone(entries), 4, wide) // after the Left-7 entry
	scanMatches(t, "widened", tr.Scan, nil, nil, true, true, want)
	if s, _ := tr.Shape(); s.LeafFormat == s0.LeafFormat || !strings.Contains(s.LeafFormat, "+64+32-bit") || len(s.Pages) != 1 {
		t.Fatalf("after a wide insert: %+v, loaded as %q", s, s0.LeafFormat)
	}
	if ok, err := tr.Delete(wide[0], wide[1]); !ok || err != nil {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if got := leaf(); !bytes.Equal(got, loaded) {
		t.Fatalf("leaf after insert and delete differs from the loaded one (%q)", s0.LeafFormat)
	}
	if errs := f.Check(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
}

// A packed leaf splits by bits into as many leaves as the packer seals. A
// leaf of 1-bit cells, 30,000 copies of one key then 30,000 of the next,
// takes a copy of the first key with a 64-bit scope between them: no leaf
// holds the wide cell beside more than a thousand others, so the leaf splits
// three ways, and the two new separators overflow the full root, which
// splits in turn. A leaf of zero-width cells at the cell-count limit takes
// an entry 192 bits wide from its bases, before them, in a two-way split.
func TestPackedSplitByBits(t *testing.T) {
	t.Run("three ways", func(t *testing.T) {
		// 408 leaves of 449 entries in 145-bit cells (49-bit Left deltas, 64-bit
		// scopes, 32-bit levels), then the leaf of 1-bit cells: 409 leaves
		// fill one root, leftmost child and 408 separators of 20 bytes.
		const wideLeaves, perWide, dups = 408, 449, 30000
		entry := func(i int) [2][]byte {
			switch {
			case i < wideLeaves*perWide:
				left := uint64(i) << 40
				if i%2 == 0 {
					return postingEntry(0, left, left, 0)
				}
				return postingEntry(0, left, left-1, math.MaxUint32)
			case i < wideLeaves*perWide+dups:
				return postingEntry(1, 0, 0, 0)
			default:
				return postingEntry(1, 1, 1, 0)
			}
		}
		n := wideLeaves*perWide + 2*dups
		i := 0
		f := memForest(t)
		tr, _ := f.PackedTree("p")
		err := tr.BulkLoad(Fill{}, func() ([]byte, []byte, error) {
			if i == n {
				return nil, nil, io.EOF
			}
			i++
			e := entry(i - 1)
			return e[0], e[1], nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if s, _ := tr.Shape(); !slices.Equal(s.Pages, []int{1, wideLeaves + 1}) {
			t.Fatalf("loaded shape %+v, want one full root over %d leaves", s, wideLeaves+1)
		}
		wide := postingEntry(1, 0, math.MaxUint64, 0)
		if err := tr.Insert(wide[0], wide[1]); err != nil {
			t.Fatal(err)
		}
		if errs := f.Check(); len(errs) > 0 {
			t.Fatal(errs[0])
		}
		s, _ := tr.Shape()
		if !slices.Equal(s.Pages, []int{1, 2, wideLeaves + 3}) || f.LeafSplits() != 1 {
			t.Fatalf("after the insert: shape %+v, %d splits; want one split into three leaves under a split root", s, f.LeafSplits())
		}
		j := 0
		err = tr.Scan(nil, nil, true, true, func(k, v []byte) bool {
			want := wide
			switch at := wideLeaves*perWide + dups; {
			case j < at:
				want = entry(j)
			case j > at:
				want = entry(j - 1)
			}
			if !bytes.Equal(k, want[0]) || !bytes.Equal(v, want[1]) {
				t.Fatalf("entry %d is (%x, %x), want (%x, %x)", j, k, v, want[0], want[1])
			}
			j++
			return true
		})
		if err != nil || j != n+1 {
			t.Fatalf("scan saw %d of %d entries (%v)", j, n+1, err)
		}
	})
	t.Run("zero-width leaf", func(t *testing.T) {
		same := postingEntry(1<<31+5, 0, 0, 7)
		entries := make([][2][]byte, maxPackedCells)
		for i := range entries {
			entries[i] = same
		}
		f := memForest(t)
		tr, _ := f.PackedTree("p")
		if err := tr.BulkLoad(Fill{}, sliceFeeder(entries)); err != nil {
			t.Fatal(err)
		}
		if s, _ := tr.Shape(); s.LeafFormat != "packed 0+0+0+0-bit" || len(s.Pages) != 1 {
			t.Fatalf("loaded shape %+v, want one leaf of zero-width cells", s)
		}
		wide := postingEntry(5, math.MaxUint64, math.MaxUint64-1, 7+1<<31) // 32+64+64+32 bits from the leaf's bases
		if err := tr.Insert(wide[0], wide[1]); err != nil {
			t.Fatal(err)
		}
		if errs := f.Check(); len(errs) > 0 {
			t.Fatal(errs[0])
		}
		// The wide entry's leaf takes it and a few copies at 192 bits a
		// cell; the other copies keep their zero-width cells.
		if s, _ := tr.Shape(); s.LeafFormat != "packed 32+64+64+32-bit" || !slices.Equal(s.Pages, []int{1, 2}) {
			t.Fatalf("after the insert: %+v", s)
		}
		scanMatches(t, "zero-width", tr.Scan, nil, nil, true, true, append([][2][]byte{wide}, entries...))
	})
	t.Run("docid three ways", func(t *testing.T) {
		// 30,000 documents on terminal 0 and 30,000 on terminal 1 in 1-bit
		// cells take a tombstone of the last one on terminal 0, between
		// them: its 64-bit version makes 72-bit cells (the docID field
		// padded to whole bytes), about 900 a leaf, so the leaf splits three
		// ways.
		const dups = 30000
		entries := make([][2][]byte, 2*dups)
		for i := range entries {
			entries[i] = docIDEntry(uint64(i/dups), 7, 0)
		}
		f := memForest(t)
		tr, _ := f.PackedDocIDTree("docid")
		if err := tr.BulkLoad(Fill{}, sliceFeeder(entries)); err != nil {
			t.Fatal(err)
		}
		if s, _ := tr.Shape(); s.LeafFormat != "packed 1+0+0-bit" || len(s.Pages) != 1 {
			t.Fatalf("loaded shape %+v, want one leaf of 1-bit cells", s)
		}
		tomb := docIDEntry(0, 7, math.MaxUint64)
		if err := tr.Insert(tomb[0], tomb[1]); err != nil {
			t.Fatal(err)
		}
		if errs := f.Check(); len(errs) > 0 {
			t.Fatal(errs[0])
		}
		if s, _ := tr.Shape(); s.LeafFormat != "packed 1+7+64-bit" || !slices.Equal(s.Pages, []int{1, 3}) || f.LeafSplits() != 1 {
			t.Fatalf("after the insert: shape %+v, %d splits; want one split into three leaves", s, f.LeafSplits())
		}
		want := slices.Insert(slices.Clone(entries), dups, tomb)
		scanMatches(t, "docid three ways", tr.Scan, nil, nil, true, true, want)
		scanMatches(t, "docid three ways", docIDScan(tr.ScanDocIDs), nil, nil, true, true, want)
	})
}

// An insert the leaf's widths hold moves the cells after it in place, and a
// delete re-encodes the leaf through a pooled packer: neither allocates, in
// either layout.
func TestPackedEditAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	for _, c := range []struct {
		pc      packedCase
		entries [][2][]byte
		e       [2][]byte // between two loaded keys, inside the leaf's widths
	}{
		{postingsCase, packedPostings(400), postingEntry(0, 201, 203, 5)},
		{docIDCase, packedDocIDs(400), docIDEntry(201, 150, 0)},
	} {
		t.Run(c.pc.ly.entries, func(t *testing.T) {
			f := memForest(t)
			tr, _ := c.pc.newTree(f, "p")
			if err := tr.BulkLoad(Fill{Insertable: true}, sliceFeeder(c.entries)); err != nil {
				t.Fatal(err)
			}
			n := testing.AllocsPerRun(100, func() {
				if err := tr.Insert(c.e[0], c.e[1]); err != nil {
					t.Fatal(err)
				}
				if ok, err := tr.Delete(c.e[0], c.e[1]); err != nil || !ok {
					t.Fatalf("Delete = %v, %v", ok, err)
				}
			})
			if n != 0 {
				t.Errorf("an in-place packed Insert+Delete allocates %v objects, want 0", n)
			}
			if s, _ := tr.Shape(); len(s.Pages) != 1 || f.LeafSplits() != 0 {
				t.Fatalf("fixture split: %+v", s)
			}
			scanMatches(t, "after edits", tr.Scan, nil, nil, true, true, c.entries)
		})
	}
}

// BenchmarkPackedMove is an in-place insert's move of the cells after it:
// 2,700 bytes of cells — what an insert into a dynamic build's leaves moves
// on average — up by a 136-bit cell, a byte copy, and by a 137-bit one,
// which shifts every moved word.
func BenchmarkPackedMove(b *testing.B) {
	for _, d := range []uint{136, 137} {
		b.Run(fmt.Sprintf("%d-bit", d), func(b *testing.B) {
			cells := make([]byte, postingsLayout.cellBits/8)
			for i := range cells[:2700] {
				cells[i] = byte(i * 7)
			}
			for i := 0; i < b.N; i++ {
				moveBitsUp(cells, 3, 2700*8-3, d)
			}
		})
	}
}

// packedPostings are n entries shaped like a dense-labeled posting list:
// Lefts one to four apart, small scopes and levels.
func packedPostings(n int) [][2][]byte {
	out := make([][2][]byte, n)
	left := uint64(1)
	for i := range out {
		out[i] = postingEntry(uint32(i/3000), left, left+uint64(i%9), uint32(1+i%20))
		left += 1 + uint64(i%4)
	}
	return out
}

// packedDocIDs are n Docid entries shaped like a static index's: terminals
// one to four apart, a document on each, one in seven sharing its terminal
// with the next.
func packedDocIDs(n int) [][2][]byte {
	out := make([][2][]byte, n)
	term := uint64(1)
	for i := range out {
		out[i] = docIDEntry(term, uint32(i*37%n), 0)
		if i%7 != 0 {
			term += 1 + uint64(i%4)
		}
	}
	return out
}

// An insertable load of Docid entries leaves each leaf room for the version
// field its first tombstone gives every cell, wide enough for versions up to
// twice the index's: tombstones of versions from the index's up to twice
// it, one beside every hundredth entry, re-encode their leaves in place and
// split none. A load at version 0 leaves no such room.
func TestPackedDocIDLoadLeavesTombstoneRoom(t *testing.T) {
	const version = 40000
	entries := make([][2][]byte, 3000)
	for i := range entries {
		entries[i] = docIDEntry(uint64(i)<<50, uint32(i), 0) // a dynamic index's spread terminals
	}
	f := memForest(t)
	tr, _ := f.PackedDocIDTree("docid")
	if err := tr.BulkLoad(Fill{Insertable: true, Version: version}, sliceFeeder(entries)); err != nil {
		t.Fatal(err)
	}
	loaded, _ := tr.Shape()
	want := slices.Clone(entries)
	for i := len(entries) - 1; i >= 0; i -= 100 {
		tomb := docIDEntry(uint64(i)<<50, uint32(i), 2*version-uint64(i))
		if err := tr.Insert(tomb[0], tomb[1]); err != nil {
			t.Fatal(err)
		}
		want = slices.Insert(want, i+1, tomb)
	}
	if errs := f.Check(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	s, _ := tr.Shape()
	if f.LeafSplits() != 0 || !slices.Equal(s.Pages, loaded.Pages) || strings.HasSuffix(s.LeafFormat, "+0-bit") {
		t.Fatalf("30 tombstones split %d leaves: loaded %+v, now %+v", f.LeafSplits(), loaded, s)
	}
	scanMatches(t, "tombstoned", docIDScan(tr.ScanDocIDs), nil, nil, true, true, want)

	bare, _ := f.PackedDocIDTree("bare")
	if err := bare.BulkLoad(Fill{Insertable: true}, sliceFeeder(entries)); err != nil {
		t.Fatal(err)
	}
	if b, _ := bare.Shape(); b.Pages[len(b.Pages)-1] >= loaded.Pages[len(loaded.Pages)-1] {
		t.Errorf("a load at version 0 takes %d leaves, one at version %d %d", b.Pages[len(b.Pages)-1], version, loaded.Pages[len(loaded.Pages)-1])
	}
}

// BulkLoad seals a packed leaf where the next entry would not fit: dense
// postings pack several times more entries per leaf than 24-byte cells.
func TestPackedBulkLoadPacksLeaves(t *testing.T) {
	const n = 20000
	f := memForest(t)
	tr, _ := f.PackedTree("p")
	if err := tr.BulkLoad(Fill{}, sliceFeeder(packedPostings(n))); err != nil {
		t.Fatal(err)
	}
	s, err := tr.Shape()
	if err != nil {
		t.Fatal(err)
	}
	leaves := s.Pages[len(s.Pages)-1]
	if leaves > n/340/3 {
		t.Errorf("%d entries take %d packed leaves, want at most %d", n, leaves, n/340/3)
	}
	t.Logf("%d entries: %d leaves, %s, %.2f B per entry", n, leaves, s.LeafFormat, float64(leaves*pager.PageDataSize)/n)
	// An empty packed tree is a valid one, and BulkLoad rejects other shapes.
	empty, _ := f.PackedTree("empty")
	if err := empty.BulkLoad(Fill{}, sliceFeeder(nil)); err != nil {
		t.Fatal(err)
	}
	bad, _ := f.PackedTree("bad")
	if err := bad.BulkLoad(Fill{}, sliceFeeder([][2][]byte{{make([]byte, 8), make([]byte, 12)}})); err == nil {
		t.Error("BulkLoad of an 8+12-byte entry into a packed tree accepted")
	}
	if errs := f.Check(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
}

// A Scan over packed leaves decodes into a pooled buffer, a ScanPostings or
// ScanDocIDs into its callback's arguments: a range query crossing leaves
// allocates nothing either way.
func TestPackedScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	entries := packedPostings(20000)
	f := memForest(t)
	tr, _ := f.PackedTree("p")
	if err := tr.BulkLoad(Fill{}, sliceFeeder(entries)); err != nil {
		t.Fatal(err)
	}
	lo, hi := entries[1000][0], entries[9000][0]
	docIDs := packedDocIDs(60000)
	dtr, _ := f.PackedDocIDTree("docid")
	if err := dtr.BulkLoad(Fill{}, sliceFeeder(docIDs)); err != nil {
		t.Fatal(err)
	}
	dlo, dhi := docIDs[3000][0], docIDs[57000][0]
	if s, _ := dtr.Shape(); s.Pages[len(s.Pages)-1] < 4 {
		t.Fatalf("docid fixture %+v: want a range over several leaves", s)
	}
	seen, docs := 0, 0
	n := testing.AllocsPerRun(100, func() {
		seen, docs = 0, 0
		if err := tr.Scan(lo, hi, false, true, func(k, v []byte) bool {
			seen++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if err := tr.ScanPostings(lo, hi, false, true, func(uint32, uint64, uint64, uint32) bool {
			seen++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if err := dtr.ScanDocIDs(dlo, dhi, true, true, func(uint64, uint32, uint64) bool {
			docs++
			return true
		}); err != nil {
			t.Fatal(err)
		}
	})
	if seen != 2*8000 || docs < 54000 {
		t.Fatalf("scans saw %d entries and %d Docid entries, want 8000 each and 54,000 or more", seen, docs)
	}
	if n != 0 {
		t.Errorf("a packed range scan allocates %v objects, want 0", n)
	}
}

// Check must report a damaged packed leaf, never read past it: a field
// wider than its type, cells that overflow the page, a base that lifts the
// leaf's keys past its separator, and a sibling of another codec.
func TestCheckReportsDamagedPackedLeaf(t *testing.T) {
	damage := map[string]struct {
		edit func(data []byte)
		want string
	}{
		"wide field":     {func(data []byte) { data[8] = 65 }, "65 bits wide"},
		"cells overflow": {func(data []byte) { binary.LittleEndian.PutUint16(data[1:3], 60000) }, "overflow the page"},
		"base past separator": {func(data []byte) {
			binary.LittleEndian.PutUint32(data[11:15], 1<<30)
		}, "above its subtree bound"},
		"fixed sibling": {func(data []byte) {
			(&nodePage{kind: fixedLeafNode, extra: pageExtra(data), widths: [2]byte{12, 12}}).encode(data)
		}, "its siblings' packed"},
	}
	for name, d := range damage {
		t.Run(name, func(t *testing.T) {
			bp := pager.NewBufferPool(pager.NewMemFile(), 64)
			f, err := Open(bp)
			if err != nil {
				t.Fatal(err)
			}
			tr, _ := f.PackedTree("post")
			if err := tr.BulkLoad(Fill{}, sliceFeeder(packedPostings(20000))); err != nil {
				t.Fatal(err)
			}
			if errs := f.Check(); len(errs) > 0 {
				t.Fatal(errs[0])
			}
			root, err := bp.Get(tr.root)
			if err != nil {
				t.Fatal(err)
			}
			leaf := pageChildAt(root.Data, 1) // the second leaf: the first sets the format
			root.Unpin(false)
			p, err := bp.Get(leaf)
			if err != nil {
				t.Fatal(err)
			}
			d.edit(p.Data)
			p.Unpin(true)
			errs := f.Check()
			if len(errs) == 0 || !strings.Contains(errs[0].Error(), d.want) {
				t.Fatalf("Check = %v, want an error naming %q", errs, d.want)
			}
		})
	}
}
