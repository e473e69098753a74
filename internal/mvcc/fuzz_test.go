package mvcc

import (
	"encoding/binary"
	"testing"
)

// FuzzSeqDiffPatch: for arbitrary before/after sequence pairs, the diff
// must apply back to the target (apply-equivalence with a full rebuild),
// and Size and RewriteSize must count the bytes encodePatch writes.
func FuzzSeqDiffPatch(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{1, 9, 3})
	f.Add([]byte{}, []byte{5, 5, 5})
	f.Add([]byte{7, 7}, []byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{1, 2, 9, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) > 1<<12 || len(b) > 1<<12 {
			return
		}
		aPairs, aLeaves := seqFrom(a)
		bPairs, bLeaves := seqFrom(b)
		p := Diff(aPairs, bPairs, aLeaves, bLeaves, int32(len(bPairs)+1))
		gotP, gotL, err := p.Apply(aPairs, aLeaves)
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		if !seqEqual(gotP, bPairs) {
			t.Fatalf("apply != rebuild: got %v want %v", gotP, bPairs)
		}
		if !leafEqual(gotL, bLeaves) {
			t.Fatalf("apply leaves != rebuild: got %v want %v", gotL, bLeaves)
		}
		if got, want := p.Size(), len(encodePatch(p)); got != want {
			t.Fatalf("Size = %d, the patch encodes to %d bytes", got, want)
		}
		full := Diff(nil, bPairs, nil, bLeaves, p.NumNodes)
		if got, want := RewriteSize(bPairs, bLeaves, p.NumNodes), len(encodePatch(full)); got != want {
			t.Fatalf("RewriteSize = %d, the rewrite patch encodes to %d bytes", got, want)
		}
	})
}

// encodePatch writes the varint stream Size counts: the magic, the node
// count, then each op list as its length and per op a kind byte and either
// a count or its inserted entries.
func encodePatch(p *Patch) []byte {
	buf := binary.AppendVarint([]byte(patchMagic), int64(p.NumNodes))
	buf = binary.AppendUvarint(buf, uint64(len(p.Pairs)))
	for _, op := range p.Pairs {
		buf = appendOpHead(buf, op.Kind, op.Count, len(op.Ins))
		for _, pr := range op.Ins {
			buf = binary.AppendUvarint(binary.AppendVarint(buf, int64(pr.N)), uint64(pr.L))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Leaves)))
	for _, op := range p.Leaves {
		buf = appendOpHead(buf, op.Kind, op.Count, len(op.Ins))
		for _, lf := range op.Ins {
			buf = binary.AppendUvarint(binary.AppendVarint(buf, int64(lf.Post)), uint64(lf.Sym))
		}
	}
	return buf
}

// appendOpHead writes an op's kind and its count, or for an insert the
// number of entries that follow.
func appendOpHead(buf []byte, kind byte, count uint32, ins int) []byte {
	if buf = append(buf, kind); kind == OpInsert {
		return binary.AppendUvarint(buf, uint64(ins))
	}
	return binary.AppendUvarint(buf, uint64(count))
}

// Encode renders the map deterministically (documents ascending).
func (m *Map) Encode() []byte {
	buf, _ := m.AppendEncode(nil, nil)
	return buf
}

// FuzzDecodeMapNeverPanics: arbitrary bytes either decode to a map that
// re-encodes decodably, or fail cleanly.
func FuzzDecodeMapNeverPanics(f *testing.F) {
	f.Add([]byte(mapMagic))
	f.Add(script(&testing.T{}).Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMap(b)
		if err != nil {
			return
		}
		if _, err := DecodeMap(m.Encode()); err != nil {
			t.Fatalf("re-decode of decoded map failed: %v", err)
		}
	})
}

func seqFrom(b []byte) ([]Pair, []Leaf) {
	var pairs []Pair
	var lvs []Leaf
	for i, v := range b {
		pairs = append(pairs, Pair{N: int32(v), L: uint32(v) % 16})
		if v%3 == 0 {
			lvs = append(lvs, Leaf{Post: int32(i), Sym: uint32(v) % 8})
		}
	}
	return pairs, lvs
}

func seqEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func leafEqual(a, b []Leaf) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
