package mvcc

import (
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// script builds a map by replaying a mutation history the way the engine
// does: insert opens, update closes-with-Loc and reopens, delete closes.
func script(t *testing.T) *Map {
	t.Helper()
	m := NewMap()
	// doc 0: insert v1, update v3, delete v5
	m.Counter = 1
	m.Docs[0] = []Interval{{From: 1, Terminal: 100}}
	// doc 1: insert v2
	m.Counter = 2
	m.Docs[1] = []Interval{{From: 2, Terminal: 200}}
	// update doc 0 at v3 (relabeled)
	m.Counter = 3
	m.Docs[0][0].To = 3
	m.Docs[0][0].Loc = Loc{Page: 7, Off: 64, Len: 500}
	m.Docs[0] = append(m.Docs[0], Interval{From: 3, Terminal: 150})
	m.MutOps = 1
	// delete doc 0 at v5
	m.Counter = 5
	m.Docs[0][1].To = 5
	m.MutOps = 2
	return m
}

func TestAtResolvesHistory(t *testing.T) {
	m := script(t)
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		doc  uint32
		v    uint64
		ok   bool
		from uint64
	}{
		{0, 1, true, 1}, // original version
		{0, 2, true, 1},
		{0, 3, true, 3}, // updated version
		{0, 4, true, 3},
		{0, 5, false, 0}, // deleted
		{0, 0, false, 0}, // latest: deleted
		{1, 0, true, 2},  // live at latest
		{1, 1, false, 0}, // before its insert
		{9, 0, true, 0},  // legacy doc: always visible
		{9, 3, true, 0},
	}
	for _, c := range cases {
		iv, ok := m.At(c.doc, c.v)
		if ok != c.ok || (ok && iv.From != c.from) {
			t.Errorf("At(%d, %d) = %+v %v, want ok=%v from=%d", c.doc, c.v, iv, ok, c.ok, c.from)
		}
	}
	if got := m.Tombstones(); got != 1 {
		t.Errorf("Tombstones = %d, want 1", got)
	}
	if got := m.Versioned(); got != 2 {
		t.Errorf("Versioned = %d, want 2", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := script(t)
	dec, err := DecodeMap(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, m) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", dec, m)
	}
	// Deterministic bytes.
	if string(m.Encode()) != string(m.Clone().Encode()) {
		t.Fatal("encode not deterministic across Clone")
	}
}

// TestAppendEncodeAllocs: appending into kept buffers writes Encode's bytes,
// and once the buffers have grown to the map a re-encode allocates nothing —
// what lets a commit persist the map without a fresh buffer each time.
func TestAppendEncodeAllocs(t *testing.T) {
	m := script(t)
	for id := uint32(100); id < 1100; id++ {
		m.Docs[id] = []Interval{{From: 1, Terminal: uint64(id) << 8}}
	}
	buf, ids := m.AppendEncode(nil, nil)
	if string(buf) != string(m.Encode()) {
		t.Fatal("AppendEncode differs from Encode")
	}
	if got := testing.AllocsPerRun(20, func() { buf, ids = m.AppendEncode(buf[:0], ids) }); got != 0 {
		t.Fatalf("re-encoding into kept buffers allocates %.0f objects, want 0", got)
	}
}

// A map an older build encoded with a pending op — the forest half of an
// update or delete it may never have written — is refused, naming the op.
func TestDecodeMapRefusesPendingOp(t *testing.T) {
	b := []byte(mapMagic)
	for _, v := range []uint64{3, 3} { // counter, mutation ops
		b = binary.AppendUvarint(b, v)
	}
	b = append(b, 2)                 // an update
	b = binary.AppendUvarint(b, 7)   // of document 7
	b = binary.AppendUvarint(b, 3)   // at version 3
	b = binary.AppendUvarint(b, 150) // its terminal
	b = append(b, 1)                 // a new terminal
	b = binary.AppendUvarint(b, 0)   // no created postings
	b = binary.AppendUvarint(b, 0)   // no documents
	_, err := DecodeMap(b)
	if !errors.Is(err, ErrPendingOp) || !strings.Contains(err.Error(), "update of document 7 at version 3") {
		t.Fatalf("DecodeMap = %v, want ErrPendingOp naming the update", err)
	}
}

func TestDecodeMapRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, []byte("nope"), []byte("MVC1"), append([]byte("MVC1"), 1, 1, 1, 9), append([]byte(mapMagic), 1, 1, 9)} {
		if _, err := DecodeMap(b); err == nil {
			t.Fatalf("decoded garbage %v", b)
		}
	}
	enc := script(t).Encode()
	if _, err := DecodeMap(enc[:len(enc)-1]); err == nil {
		t.Fatal("decoded truncated map")
	}
	if _, err := DecodeMap(append(enc, 7)); err == nil {
		t.Fatal("decoded map with trailing bytes")
	}
}

func TestCheckCatchesTornShapes(t *testing.T) {
	m := NewMap()
	m.Counter = 4
	m.Docs[0] = []Interval{{From: 1}, {From: 2, To: 3}}
	if err := m.Check(); err == nil {
		t.Fatal("open interval before the last accepted")
	}
	m.Docs[0] = []Interval{{From: 3, To: 2}}
	if err := m.Check(); err == nil {
		t.Fatal("inverted interval accepted")
	}
	m.Docs[0] = []Interval{{From: 1, To: 3}, {From: 2}}
	if err := m.Check(); err == nil {
		t.Fatal("overlapping intervals accepted")
	}
	m.Docs[0] = []Interval{{From: 1, To: 99}}
	if err := m.Check(); err == nil {
		t.Fatal("interval past the counter accepted")
	}
}

func TestCollapse(t *testing.T) {
	m := script(t)
	// doc 2: deleted recently (inside retention).
	m.Docs[2] = []Interval{{From: 4, To: 5, Terminal: 300}}
	m.Counter = 5

	// Watermark 5: doc 0 (deleted at 5) reclaimed, doc 2 (deleted at 5) too.
	c, reclaimed, retained := m.Collapse(5)
	if !reflect.DeepEqual(reclaimed, []uint32{0, 2}) || retained != 0 {
		t.Fatalf("watermark 5: reclaimed %v retained %d", reclaimed, retained)
	}
	if iv := c.Docs[0][0]; !iv.Marker() {
		t.Fatalf("reclaimed doc 0 interval %+v not a marker", iv)
	}
	if iv, ok := c.At(1, 0); !ok || iv.Terminal != 0 || !iv.Loc.Zero() {
		t.Fatalf("live doc 1 not collapsed to a bare open interval: %+v %v", iv, ok)
	}

	// Watermark 4: both tombstones are younger — retained with content.
	c, reclaimed, retained = m.Collapse(4)
	if len(reclaimed) != 0 || retained != 2 {
		t.Fatalf("watermark 4: reclaimed %v retained %d", reclaimed, retained)
	}
	if iv, ok := c.At(0, 4); !ok || iv.From != 3 || iv.To != 5 {
		t.Fatalf("retained tombstone lost its span: %+v %v", iv, ok)
	}
	if _, ok := c.At(0, 0); ok {
		t.Fatal("retained tombstone visible at latest")
	}
	if c.Counter != m.Counter {
		t.Fatal("collapse dropped the counter")
	}

	// A marker stays a marker (and re-reports as reclaimed).
	c2, reclaimed, _ := c.Collapse(0)
	if !reflect.DeepEqual(reclaimed, []uint32{}) && len(reclaimed) != 0 {
		t.Fatalf("watermark 0 reclaimed %v", reclaimed)
	}
	_ = c2
}
