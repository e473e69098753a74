package bitpack

import (
	"math/rand"
	"testing"
)

// TestRoundTrip writes fields of every width at every alignment, packed end
// to end as cells are, and reads each back with Get, and with Window where
// the field fits one — the last fields from within 8 bytes of the end, where
// Window loads the slice's last 8 bytes.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		type field struct {
			off, w uint
			v      uint64
		}
		var fs []field
		off := uint(rng.Intn(8))
		for n := 1 + rng.Intn(40); len(fs) < n; {
			w := uint(rng.Intn(65))
			if trial%2 == 0 {
				w = uint(rng.Intn(12)) // narrow fields, many near the end
			}
			fs = append(fs, field{off, w, rng.Uint64() & Mask(w)})
			off += w
		}
		b := make([]byte, max(Bytes(off), 8))
		for _, f := range fs {
			Put(b, f.off, f.w, f.v)
		}
		for i, f := range fs {
			if got := Get(b, f.off, f.w); got != f.v {
				t.Fatalf("trial %d field %d (%d bits at %d of %d bytes): Get = %#x, want %#x", trial, i, f.w, f.off, len(b), got, f.v)
			}
			if f.w <= MaxWindow {
				if got := Window(b, f.off) & Mask(f.w); got != f.v {
					t.Fatalf("trial %d field %d (%d bits at %d of %d bytes): Window = %#x, want %#x", trial, i, f.w, f.off, len(b), got, f.v)
				}
			}
		}
	}
}

// TestWindowAtEnd reads every bit offset of an 8-byte slice: the bits from
// off up to the end are the slice's, and a zero-width read at the very end
// is 0.
func TestWindowAtEnd(t *testing.T) {
	b := []byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef}
	all := uint64(0xefcdab8967452301)
	for off := uint(0); off <= 64; off++ {
		if got, want := Window(b, off), all>>off; off < 64 && got != want {
			t.Fatalf("Window at %d = %#x, want %#x", off, got, want)
		}
		if got := Get(b, off, 0); got != 0 {
			t.Fatalf("zero-width Get at %d = %#x", off, got)
		}
	}
}
