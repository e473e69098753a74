// Package bitpack reads and writes fixed-width unsigned fields in a byte
// slice, bits numbered from the least significant bit of b[0] up. It is the
// bit I/O under both frame-of-reference cell codecs: the packed B+-tree
// leaves (internal/btree) and the hot tier's posting lists (internal/hot).
// Both lay a list out as cells of one width, so cell i starts at bit
// i × width and is reached by arithmetic alone.
//
// Reads take slices of at least 8 bytes: every read is one 8-byte load,
// which near the end of b loads b's last 8 bytes instead of running past
// them.
package bitpack

import "encoding/binary"

// MaxWindow is the widest cell Window returns whole: a cell may start at any
// bit of its first byte, and one 8-byte load reaches 57 bits past it.
const MaxWindow = 57

// Window returns the bits of b from bit off up, shifted down so bit off is
// bit 0: the low MaxWindow bits, or every bit up to b's end when that comes
// sooner, are b's. It is one 8-byte load and a shift, so a cell of at most
// MaxWindow bits is decoded by shifts and masks of the result. b must be at
// least 8 bytes long and off below its end; a zero-width field may sit at
// the end, since whatever Window returns there is masked to nothing.
func Window(b []byte, off uint) uint64 {
	i := min(off>>3, uint(len(b))-8)
	return binary.LittleEndian.Uint64(b[i:i+8]) >> ((off - 8*i) & 63)
}

// Mask returns w one bits (w <= 64).
func Mask(w uint) uint64 { return 1<<w - 1 }

// Get returns the w-bit field (w <= 64) at bit offset off of b, which must
// be at least 8 bytes long.
func Get(b []byte, off, w uint) uint64 {
	if s := off & 7; s+w > 64 { // the field spans nine bytes
		i := off >> 3
		return (binary.LittleEndian.Uint64(b[i:])>>s | uint64(b[i+8])<<(64-s)) & Mask(w)
	}
	return Window(b, off) & Mask(w)
}

// Put ORs the low w bits of v into b at bit offset off, Get's layout. The
// field's bits must be zero beforehand.
func Put(b []byte, off, w uint, v uint64) {
	for w > 0 {
		i, s := off>>3, off&7
		n := min(8-s, w)
		b[i] |= byte(v&(1<<n-1)) << s
		v >>= n
		off += n
		w -= n
	}
}

// Bytes returns the bytes n bits occupy.
func Bytes(n uint) int { return int((n + 7) / 8) }
