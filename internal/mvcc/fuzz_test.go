package mvcc

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzSeqDiffPatch: for arbitrary before/after sequence pairs, the diff
// must apply back to the target (apply-equivalence with a full rebuild)
// and the patch codec must round-trip byte-for-byte.
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
		enc := p.Encode()
		if p.Size() != len(enc) {
			t.Fatalf("Size = %d, Encode wrote %d bytes", p.Size(), len(enc))
		}
		full := Diff(nil, bPairs, nil, bLeaves, p.NumNodes)
		if got, want := RewriteSize(bPairs, bLeaves, p.NumNodes), len(full.Encode()); got != want {
			t.Fatalf("RewriteSize = %d, the rewrite patch encodes to %d bytes", got, want)
		}
		dec, err := DecodePatch(enc)
		if err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		if !bytes.Equal(dec.Encode(), enc) {
			t.Fatal("codec round-trip not byte-identical")
		}
		if !reflect.DeepEqual(dec, p) {
			t.Fatalf("decoded patch differs: %+v vs %+v", dec, p)
		}
	})
}

// FuzzDecodeMapNeverPanics: arbitrary bytes either decode to a map that
// re-encodes decodably, or fail cleanly.
func FuzzDecodeMapNeverPanics(f *testing.F) {
	f.Add([]byte("MVC1"))
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
