package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/pager"
)

// Tests of the packed leaf codec: bulk loads of sorted entries derived from
// random bytes held against a sorted-slice model (runPackedOps, shared by
// TestLeafOpsAgainstModel and FuzzPackedLeaf), the refused edits, the widest
// fields, the allocation-free Scan and what Check says about a damaged leaf.

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

// packedModel derives entries in key order from ops, four bytes an op:
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

// runPackedOps bulk-loads packedModel(ops) into a PackedTree over a small
// pool and checks it against the model: Check, a full Scan and a ScanNoFill
// (every cell decoded, the leaf chain followed), range scans from and to
// keys in the model and between them (each leaf's lower and upper bounds),
// refused edits, and all of it again after a reopen.
func runPackedOps(t *testing.T, ops []byte) {
	t.Helper()
	model := packedModel(ops)
	file := pager.NewMemFile()
	f, err := Open(pager.NewBufferPool(file, 16))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := f.PackedTree("p")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(sliceFeeder(model)); err != nil {
		t.Fatal(err)
	}
	key := func(j int) []byte { return model[j][0] }
	probes := [][]byte{nil}
	for j := 0; j < len(model); j += 1 + len(model)/16 {
		between := bytes.Clone(key(j))
		between[11]++
		probes = append(probes, key(j), between)
	}
	probes = append(probes, bytes.Repeat([]byte{0xff}, 12))
	check := func(stage string) {
		t.Helper()
		if errs := f.Check(); len(errs) > 0 {
			t.Fatalf("%s: %v", stage, errs[0])
		}
		if tr.Len() != uint64(len(model)) {
			t.Fatalf("%s: Len %d, model %d", stage, tr.Len(), len(model))
		}
		for _, scan := range []func([]byte, []byte, bool, bool, func(k, v []byte) bool) error{tr.Scan, tr.ScanNoFill} {
			scanMatches(t, stage, scan, nil, nil, true, true, model)
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
		}
		if len(model) > 0 {
			if err := tr.Insert(model[0][0], model[0][1]); !errors.Is(err, errPackedEdit) {
				t.Fatalf("%s: Insert into a packed tree = %v", stage, err)
			}
			if ok, err := tr.Delete(model[0][0], nil); ok || !errors.Is(err, errPackedEdit) {
				t.Fatalf("%s: Delete from a packed tree = %v, %v", stage, ok, err)
			}
		}
		if s, err := tr.Shape(); err != nil || !strings.HasPrefix(s.LeafFormat, "packed ") {
			t.Fatalf("%s: leaves are %q (%v)", stage, s.LeafFormat, err)
		}
	}
	check("loaded")
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if f, err = Open(pager.NewBufferPool(file, 16)); err != nil {
		t.Fatal(err)
	}
	tr = f.Lookup("p")
	check("reopened")
}

// scanMatches runs one scan and holds what it yields to want, entry by entry.
func scanMatches(t *testing.T, stage string, scan func([]byte, []byte, bool, bool, func(k, v []byte) bool) error,
	lo, hi []byte, loIncl, hiIncl bool, want [][2][]byte) {
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
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*300 {
			ops = ops[:4*300]
		}
		runPackedOps(t, ops)
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
	if err := tr.BulkLoad(sliceFeeder(entries)); err != nil {
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

// BulkLoad seals a packed leaf where the next entry would not fit: dense
// postings pack several times more entries per leaf than 24-byte cells.
func TestPackedBulkLoadPacksLeaves(t *testing.T) {
	const n = 20000
	f := memForest(t)
	tr, _ := f.PackedTree("p")
	if err := tr.BulkLoad(sliceFeeder(packedPostings(n))); err != nil {
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
	if err := empty.BulkLoad(sliceFeeder(nil)); err != nil {
		t.Fatal(err)
	}
	bad, _ := f.PackedTree("bad")
	if err := bad.BulkLoad(sliceFeeder([][2][]byte{{make([]byte, 8), make([]byte, 12)}})); err == nil {
		t.Error("BulkLoad of an 8+12-byte entry into a packed tree accepted")
	}
	if errs := f.Check(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
}

// A Scan over packed leaves decodes into a pooled buffer: a range query
// crossing leaves allocates nothing.
func TestPackedScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	entries := packedPostings(20000)
	f := memForest(t)
	tr, _ := f.PackedTree("p")
	if err := tr.BulkLoad(sliceFeeder(entries)); err != nil {
		t.Fatal(err)
	}
	lo, hi := entries[1000][0], entries[9000][0]
	seen := 0
	n := testing.AllocsPerRun(100, func() {
		seen = 0
		if err := tr.Scan(lo, hi, false, true, func(k, v []byte) bool {
			seen++
			return true
		}); err != nil {
			t.Fatal(err)
		}
	})
	if seen != 8000 {
		t.Fatalf("scan saw %d entries, want 8000", seen)
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
			if err := tr.BulkLoad(sliceFeeder(packedPostings(20000))); err != nil {
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
