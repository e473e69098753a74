package docstore

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/pager"
	"repro/internal/vtrie"
)

// FuzzDecodeRecord feeds arbitrary (and mutated-valid, via the seeds) bytes
// to the record decoder. The properties: it never panics, it never
// allocates slices beyond what the input length can justify (a flipped
// length varint must not turn into a giant make), and a valid encoding
// round-trips.
func FuzzDecodeRecord(f *testing.F) {
	seed := func(r *Record) {
		var buf bytes.Buffer
		r.encode(&buf)
		f.Add(buf.Bytes())
	}
	seed(&Record{DocID: 0, NumNodes: 1})
	seed(&Record{
		DocID:    7,
		NumNodes: 4,
		NPS:      []int32{4, 4, 4},
		LPS:      []vtrie.Symbol{1, 2, 1},
		Leaves:   []Leaf{{Post: 1, Sym: 2}, {Post: 2, Sym: 3}},
	})
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		// Accepted: allocation must be justified by the input size. Each
		// NPS/LPS element and each leaf consumed at least one varint byte.
		if len(rec.NPS) > len(data) || len(rec.Leaves) > len(data) {
			t.Fatalf("decoded %d NPS / %d leaves from %d input bytes",
				len(rec.NPS), len(rec.Leaves), len(data))
		}
		if len(rec.NPS) != len(rec.LPS) {
			t.Fatalf("NPS/LPS length mismatch: %d vs %d", len(rec.NPS), len(rec.LPS))
		}
	})
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
	out, err := decodeRecord(buf.Bytes())
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
	if _, err := decodeRecord(data); err == nil {
		t.Fatal("oversized NPS length accepted")
	}
	// Valid empty NPS/LPS, then oversized leaf count.
	data = []byte{1, 2, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	if _, err := decodeRecord(data); err == nil {
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
