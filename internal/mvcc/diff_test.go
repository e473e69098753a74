package mvcc

import (
	"reflect"
	"testing"
)

func pairs(vals ...int32) []Pair {
	var out []Pair
	for _, v := range vals {
		out = append(out, Pair{N: v, L: uint32(v) * 7})
	}
	return out
}

func leaves(vals ...int32) []Leaf {
	var out []Leaf
	for _, v := range vals {
		out = append(out, Leaf{Post: v, Sym: uint32(v) + 3})
	}
	return out
}

func roundTrip(t *testing.T, a, b []Pair, al, bl []Leaf) *Patch {
	t.Helper()
	p := Diff(a, b, al, bl, int32(len(b)+1))
	gotP, gotL, err := p.Apply(a, al)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if !reflect.DeepEqual(normPairs(gotP), normPairs(b)) {
		t.Fatalf("pairs: got %v want %v", gotP, b)
	}
	if !reflect.DeepEqual(normLeaves(gotL), normLeaves(bl)) {
		t.Fatalf("leaves: got %v want %v", gotL, bl)
	}
	if got, want := p.Size(), len(encodePatch(p)); got != want {
		t.Fatalf("Size = %d, the patch encodes to %d bytes", got, want)
	}
	return p
}

func normPairs(p []Pair) []Pair {
	if len(p) == 0 {
		return nil
	}
	return p
}

func normLeaves(l []Leaf) []Leaf {
	if len(l) == 0 {
		return nil
	}
	return l
}

func TestDiffApplyShapes(t *testing.T) {
	cases := []struct{ a, b []Pair }{
		{pairs(1, 2, 3), pairs(1, 2, 3)},         // identical
		{pairs(1, 2, 3), pairs(1, 9, 3)},         // middle replace
		{pairs(1, 2, 3), pairs(1, 2, 3, 4)},      // append
		{pairs(1, 2, 3, 4), pairs(1, 2)},         // truncate
		{pairs(), pairs(5, 6)},                   // from empty
		{pairs(5, 6), pairs()},                   // to empty
		{pairs(1, 2, 3), pairs(7, 8, 9, 10, 11)}, // full replace
		{pairs(1, 1, 1, 1), pairs(1, 1)},         // repeated entries
	}
	for i, c := range cases {
		roundTrip(t, c.a, c.b, leaves(1, 2), leaves(2, 3))
		_ = i
	}
}

func TestDiffSmallEditSmallPatch(t *testing.T) {
	a := pairs(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
	b := append(append([]Pair{}, a...), Pair{})
	copy(b, a)
	b[8] = Pair{N: 99, L: 7}
	b = b[:len(a)]
	p := roundTrip(t, a, b, leaves(1), leaves(1))
	full := Diff(nil, b, nil, leaves(1), int32(len(b)+1))
	if p.Size() >= full.Size() {
		t.Fatalf("single-entry edit patch (%d bytes) not smaller than full insert (%d bytes)", p.Size(), full.Size())
	}
}

func TestApplyWrongBaseRejected(t *testing.T) {
	p := Diff(pairs(1, 2, 3), pairs(1, 2), leaves(1), leaves(1), 3)
	if _, _, err := p.Apply(pairs(1, 2), leaves(1)); err == nil {
		t.Fatal("patch applied to a shorter base")
	}
	if _, _, err := p.Apply(pairs(1, 2, 3, 4), leaves(1)); err == nil {
		t.Fatal("patch applied to a longer base")
	}
}
