package docstore

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/pager"
	"repro/internal/vtrie"
)

// decodeFresh decodes data into a new Record, as Get does.
func decodeFresh(data []byte) (*Record, error) {
	r := new(Record)
	if err := r.decode(data, "decode", true); err != nil {
		return nil, err
	}
	return r, nil
}

// sameRecord compares two decoded records by content: a reused destination
// holds empty slices where a fresh one holds nil ones.
func sameRecord(a, b *Record) bool {
	return a.DocID == b.DocID && a.NumNodes == b.NumNodes &&
		slices.Equal(a.NPS, b.NPS) && slices.Equal(a.LPS, b.LPS) && slices.Equal(a.Leaves, b.Leaves)
}

// FuzzDecodeRecord feeds arbitrary (and mutated-valid, via the seeds) bytes
// to the record decoder. The properties: it never panics, it never
// allocates slices beyond what the input length can justify (a flipped
// length varint must not turn into a giant make), a valid encoding
// round-trips, and decoding into a destination some earlier record left
// dirty — a longer one, a shorter one, a failed decode — gives what a fresh
// decode gives: the same record or the same error, an empty destination on
// error, and no growth the input does not justify.
func FuzzDecodeRecord(f *testing.F) {
	long := &Record{DocID: 99, NumNodes: 41, Leaves: make([]Leaf, 23)}
	for i := 0; i < 40; i++ {
		long.NPS, long.LPS = append(long.NPS, 41), append(long.LPS, vtrie.Symbol(1000+i))
	}
	short := &Record{DocID: 3, NumNodes: 2, NPS: []int32{2}, LPS: []vtrie.Symbol{5}, Leaves: []Leaf{{Post: 1, Sym: 6}}}
	enc := func(r *Record) []byte {
		var buf bytes.Buffer
		r.encode(&buf)
		return buf.Bytes()
	}
	longEnc, shortEnc := enc(long), enc(short)
	f.Add(enc(&Record{DocID: 0, NumNodes: 1}))
	f.Add(enc(&Record{
		DocID:    7,
		NumNodes: 4,
		NPS:      []int32{4, 4, 4},
		LPS:      []vtrie.Symbol{1, 2, 1},
		Leaves:   []Leaf{{Post: 1, Sym: 2}, {Post: 2, Sym: 3}},
	}))
	f.Add(longEnc)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{1, 2, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}) // NPS length 2^40

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeFresh(data)
		if err == nil {
			// Accepted: allocation must be justified by the input size. Each
			// NPS/LPS element and each leaf consumed at least one varint byte.
			if len(rec.NPS) > len(data) || len(rec.Leaves) > len(data) {
				t.Fatalf("decoded %d NPS / %d leaves from %d input bytes",
					len(rec.NPS), len(rec.Leaves), len(data))
			}
			if len(rec.NPS) != len(rec.LPS) {
				t.Fatalf("NPS/LPS length mismatch: %d vs %d", len(rec.NPS), len(rec.LPS))
			}
		}
		// The same bytes into dirty destinations.
		for _, prime := range [][]byte{longEnc, shortEnc, {0xff}} {
			var dst Record
			dst.decode(longEnc, "decode", true) // capacity for the failed-decode case to keep
			dst.decode(prime, "decode", true)
			capBefore := cap(dst.NPS) + cap(dst.LPS) + cap(dst.Leaves)
			derr := dst.decode(data, "decode", true)
			if (derr == nil) != (err == nil) || derr != nil && derr.Error() != err.Error() {
				t.Fatalf("dirty destination: error %v, fresh decode %v", derr, err)
			}
			if derr != nil {
				if dst.DocID != 0 || dst.NumNodes != 0 || len(dst.NPS)+len(dst.LPS)+len(dst.Leaves) != 0 {
					t.Fatalf("failed decode left a half-filled record: %+v", dst)
				}
			} else if !sameRecord(&dst, rec) {
				t.Fatalf("dirty destination decoded %+v, fresh decode %+v", dst, rec)
			}
			if grew := cap(dst.NPS) + cap(dst.LPS) + cap(dst.Leaves) - capBefore; grew > 3*len(data) {
				t.Fatalf("decode of %d bytes grew the destination by %d elements", len(data), grew)
			}
		}
	})
}

// TestDecodeIntoAllocs: once a destination has the capacity, decoding record
// after record into it allocates nothing.
func TestDecodeIntoAllocs(t *testing.T) {
	var big, small bytes.Buffer
	(&Record{DocID: 1, NumNodes: 6, NPS: []int32{6, 6, 5, 5, 6}, LPS: []vtrie.Symbol{1, 1, 2, 2, 1},
		Leaves: []Leaf{{Post: 1, Sym: 3}, {Post: 2, Sym: 4}, {Post: 3, Sym: 5}}}).encode(&big)
	(&Record{DocID: 2, NumNodes: 2, NPS: []int32{2}, LPS: []vtrie.Symbol{1}, Leaves: []Leaf{{Post: 1, Sym: 3}}}).encode(&small)
	var dst Record
	run := func() {
		for _, enc := range [][]byte{big.Bytes(), small.Bytes()} {
			if err := dst.decode(enc, "decode", true); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	if got := testing.AllocsPerRun(50, run); got != 0 {
		t.Errorf("decode into a sized destination allocates %.0f objects per run, want 0", got)
	}
}

func TestDecodeRecordRoundTrip(t *testing.T) {
	in := &Record{
		DocID:    42,
		NumNodes: 5,
		NPS:      []int32{5, 3, 3, 5},
		LPS:      []vtrie.Symbol{9, 8, 8, 9},
		Leaves:   []Leaf{{Post: 1, Sym: 7}, {Post: 2, Sym: 6}},
	}
	var buf bytes.Buffer
	in.encode(&buf)
	out, err := decodeFresh(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}
}

// A huge claimed element count with a tiny body must be rejected up front,
// not allocated.
func TestDecodeRecordRejectsOversizedLengths(t *testing.T) {
	// docID=1, numNodes=2, then claimed NPS length 2^40.
	data := []byte{1, 2, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	if _, err := decodeFresh(data); err == nil {
		t.Fatal("oversized NPS length accepted")
	}
	// Valid empty NPS/LPS, then oversized leaf count.
	data = []byte{1, 2, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	if _, err := decodeFresh(data); err == nil {
		t.Fatal("oversized leaf count accepted")
	}
}

// FuzzOpenMeta overwrites four bytes anywhere in a flushed store — the fuzzer
// soon finds the header's heads, chain lengths, stream lengths and counts, the
// chain pointers and the directory block counts — re-seals the page so the
// checksum passes, and opens the result. Open must answer with an error or a
// store whose records can all be asked for: no panic, no hang on a chain that
// loops or runs off the file, no allocation sized by a corrupt length.
func FuzzOpenMeta(f *testing.F) {
	main := pager.NewMemFile()
	s := bigStore(f, main, pager.NewMemFile(), 2000, 800)
	img := memImage(f, main)
	secs := s.meta.sections
	f.Add(uint16(0), uint16(8), uint32(0))                                           // dictionary head: none
	f.Add(uint16(0), uint16(8), uint32(secs[secDir].pages[0]))                       // dictionary head on the directory chain
	f.Add(uint16(0), uint16(12), uint32(1<<31))                                      // chain length
	f.Add(uint16(0), uint16(16), uint32(1<<30))                                      // stream length
	f.Add(uint16(0), uint16(8+16*numSections), uint32(1<<31))                        // document count
	f.Add(uint16(0), uint16(8+16*numSections+4), uint32(1<<31))                      // name count
	f.Add(uint16(secs[secDict].pages[1]), uint16(0), uint32(secs[secDict].pages[0])) // a cycle
	f.Add(uint16(secs[secDict].pages[0]), uint16(0), uint32(len(img)+7))             // a pointer off the file
	f.Add(uint16(secs[secDir].pages[0]), uint16(chainHeader), uint32(0xffff))        // block count
	f.Add(uint16(secs[secSmall].pages[0]), uint16(chainHeader), uint32(1<<31))       // catalog count

	f.Fuzz(func(t *testing.T, page, off uint16, val uint32) {
		id := int(page) % len(img)
		at := pager.PageHeaderSize + int(off)%(pager.PageDataSize-4)
		mem := pager.NewMemFile()
		for i, src := range img {
			if _, err := mem.Allocate(); err != nil {
				t.Fatal(err)
			}
			buf := bytes.Clone(src)
			if i == id {
				binary.LittleEndian.PutUint32(buf[at:], val)
				pager.SealPage(pager.PageID(i), buf)
			}
			if err := mem.WritePage(pager.PageID(i), buf); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		re, err := Open(pager.NewBufferPool(mem, 64))
		runtime.ReadMemStats(&after)
		// The whole file is under 1 MB; the pool's frames, the dictionary and
		// the directory account for about as much again.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Fatalf("Open allocated %d bytes over a %d-page file (err %v)", grew, len(img), err)
		}
		if err != nil {
			return
		}
		re.Verify()
		re.MetaSections()
	})
}
