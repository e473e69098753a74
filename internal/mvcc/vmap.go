package mvcc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Loc is an opaque record location inside the document store (page,
// intra-page offset, byte length). The map never interprets it; it is the
// back-pointer from a closed version interval to the superseded record
// bytes an AS OF read resolves through.
type Loc struct {
	Page uint32
	Off  uint16
	Len  uint32
}

// Zero reports an unset location.
func (l Loc) Zero() bool { return l == Loc{} }

// Interval is one version span of a document's life: visible at version v
// iff From <= v < To (To == 0 means open — the current version). A marker
// interval (From == To) is never visible; compaction leaves one behind
// when it reclaims a tombstoned document so the stub record stays
// unreachable forever.
type Interval struct {
	From uint64
	To   uint64 // 0 = open
	// Terminal is the docid-tree key (trie range Left) the document's
	// sequence attaches to during this interval; 0 = unknown (a legacy
	// base interval, or a sequence-less document), which the emit filter
	// accepts at any key. A rebuilt forest re-anchors it
	// (prix.Index.AdoptVersions).
	Terminal uint64
	// Loc points at the superseded record bytes when this interval was
	// closed by an update; zero when the current record serves this
	// interval (open intervals, delete-closed intervals, retained
	// tombstones after compaction).
	Loc Loc
}

// Covers reports whether version v falls inside the interval. v == 0 asks
// for "latest" and matches only the open interval.
func (iv Interval) Covers(v uint64) bool {
	if v == 0 {
		return iv.To == 0
	}
	return iv.From <= v && (iv.To == 0 || v < iv.To)
}

// Marker reports a never-visible placeholder interval.
func (iv Interval) Marker() bool { return iv.To != 0 && iv.From == iv.To }

// ErrPendingOp reports an encoded map that carries the pending-op record of
// an older build's split commit: an update or delete whose forest half may
// never have been written. This build commits a mutation in one transaction
// and has no redo for it.
var ErrPendingOp = errors.New("mvcc: version map holds a pending op of an older build")

// Map is the version state of one index: the mutation counter and
// per-document interval lists. A nil *Map (or an absent document entry)
// means legacy always-visible semantics — indexes never mutated pay nothing.
type Map struct {
	Counter uint64 // last assigned version; versions start at 1
	MutOps  uint64 // deletes+updates (not inserts); compaction drift check
	Docs    map[uint32][]Interval
}

// NewMap returns an empty version map.
func NewMap() *Map {
	return &Map{Docs: map[uint32][]Interval{}}
}

// At finds the interval covering version v (0 = latest). ok is false when
// the document has an entry but no covering interval (invisible at v);
// legacy documents (no entry) report ok with a zero interval.
func (m *Map) At(docID uint32, v uint64) (Interval, bool) {
	ivs, exists := m.Docs[docID]
	if !exists {
		return Interval{}, true
	}
	for _, iv := range ivs {
		if !iv.Marker() && iv.Covers(v) {
			return iv, true
		}
	}
	return Interval{}, false
}

// Tombstones counts documents whose latest interval is closed — deleted
// (or reclaimed) at the current version.
func (m *Map) Tombstones() int {
	if m == nil {
		return 0
	}
	n := 0
	for _, ivs := range m.Docs {
		if len(ivs) > 0 && ivs[len(ivs)-1].To != 0 {
			n++
		}
	}
	return n
}

// Versioned counts documents with any version state.
func (m *Map) Versioned() int {
	if m == nil {
		return 0
	}
	return len(m.Docs)
}

// Clone deep-copies the map (compaction snapshots it at drain time).
func (m *Map) Clone() *Map {
	out := &Map{Counter: m.Counter, MutOps: m.MutOps, Docs: map[uint32][]Interval{}}
	for id, ivs := range m.Docs {
		out.Docs[id] = append([]Interval(nil), ivs...)
	}
	return out
}

// Collapse folds history for a rebuilt epoch: live documents keep a single
// open interval (Loc dropped, Terminal reset — the rebuilt forest
// relabels everything, and prix's AdoptVersions fills in the new terminal),
// tombstones older than the watermark become reclaimable (the caller
// replaces the record with a stub; the map keeps a
// never-visible marker), younger tombstones keep one closed interval so
// AS OF inside it still resolves against the record the rebuild carried
// over. It returns the collapsed map, the reclaimed docids (ascending) and
// the count of tombstones retained.
func (m *Map) Collapse(watermark uint64) (*Map, []uint32, int) {
	out := NewMap()
	out.Counter = m.Counter
	var reclaimed []uint32
	retained := 0
	for id, ivs := range m.Docs {
		if len(ivs) == 0 {
			continue
		}
		last := ivs[len(ivs)-1]
		switch {
		case last.To == 0: // live
			out.Docs[id] = []Interval{{From: last.From}}
		case last.Marker() || last.To <= watermark: // reclaim (or already reclaimed)
			out.Docs[id] = []Interval{{From: 1, To: 1}}
			reclaimed = append(reclaimed, id)
		default: // recent tombstone: keep the closed span, content survives
			out.Docs[id] = []Interval{{From: last.From, To: last.To}}
			retained++
		}
	}
	slices.Sort(reclaimed)
	return out, reclaimed, retained
}

// mapMagic heads an encoded map. MVC1, the encoding before it, also carried
// the dynamic labeler's replay order (a label counter, and a label per
// interval); an index directory that holds one is refused before its map is
// read (prix.ErrOldLayout).
const mapMagic = "MVC2"

// noPendingOp is the byte after the counters. Older builds wrote a pending
// op's kind there (1 delete, 2 update) followed by the op; this one writes
// and accepts only 0.
const noPendingOp = 0

// AppendEncode appends the map's encoding (documents ascending) to buf,
// sorting the document ids in ids' storage. It returns both slices, so a
// caller that encodes after every commit keeps them and encodes without
// allocating once they have grown to the map's size.
func (m *Map) AppendEncode(buf []byte, ids []uint32) ([]byte, []uint32) {
	buf = append(buf, mapMagic...)
	buf = binary.AppendUvarint(buf, m.Counter)
	buf = binary.AppendUvarint(buf, m.MutOps)
	buf = append(buf, noPendingOp)
	ids = ids[:0]
	for id := range m.Docs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		ivs := m.Docs[id]
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = binary.AppendUvarint(buf, uint64(len(ivs)))
		for _, iv := range ivs {
			buf = binary.AppendUvarint(buf, iv.From)
			buf = binary.AppendUvarint(buf, iv.To)
			buf = binary.AppendUvarint(buf, iv.Terminal)
			buf = binary.AppendUvarint(buf, uint64(iv.Loc.Page))
			buf = binary.AppendUvarint(buf, uint64(iv.Loc.Off))
			buf = binary.AppendUvarint(buf, uint64(iv.Loc.Len))
		}
	}
	return buf, ids
}

// maxMapEntries bounds decoded allocation against corrupt lengths.
const maxMapEntries = 1 << 26

// byteReader walks an encode buffer with sticky errors.
type byteReader struct {
	b   []byte
	pos int
	err error
}

func (r *byteReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.err = fmt.Errorf("mvcc: truncated uvarint at %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *byteReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.b) {
		r.err = fmt.Errorf("mvcc: truncated byte at %d", r.pos)
		return 0
	}
	v := r.b[r.pos]
	r.pos++
	return v
}

// DecodeMap parses an AppendEncode buffer.
func DecodeMap(b []byte) (*Map, error) {
	if len(b) < len(mapMagic) || string(b[:len(mapMagic)]) != mapMagic {
		return nil, fmt.Errorf("mvcc: bad version-map magic")
	}
	r := &byteReader{b: b, pos: len(mapMagic)}
	m := NewMap()
	m.Counter = r.uvarint()
	m.MutOps = r.uvarint()
	if kind := r.byte(); kind != noPendingOp && r.err == nil {
		op := map[byte]string{1: "delete", 2: "update"}[kind]
		if op == "" {
			return nil, fmt.Errorf("mvcc: unknown pending op kind %d", kind)
		}
		docID, version := r.uvarint(), r.uvarint()
		return nil, fmt.Errorf("%w: %s of document %d at version %d", ErrPendingOp, op, docID, version)
	}
	nDocs := r.uvarint()
	if nDocs > maxMapEntries {
		return nil, fmt.Errorf("mvcc: %d versioned documents", nDocs)
	}
	for i := uint64(0); i < nDocs && r.err == nil; i++ {
		id := uint32(r.uvarint())
		n := r.uvarint()
		if n > maxMapEntries {
			return nil, fmt.Errorf("mvcc: doc %d has %d intervals", id, n)
		}
		ivs := make([]Interval, 0, n)
		for j := uint64(0); j < n && r.err == nil; j++ {
			ivs = append(ivs, Interval{
				From: r.uvarint(), To: r.uvarint(), Terminal: r.uvarint(),
				Loc: Loc{Page: uint32(r.uvarint()), Off: uint16(r.uvarint()), Len: uint32(r.uvarint())},
			})
		}
		m.Docs[id] = ivs
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(b) {
		return nil, fmt.Errorf("mvcc: %d trailing version-map bytes", len(b)-r.pos)
	}
	if err := m.Check(); err != nil {
		return nil, err
	}
	return m, nil
}

// Check validates the structural invariants every well-formed map holds:
// per document, intervals are chronological and disjoint, only the last
// may be open, and every closed non-marker interval ends at or before the
// counter.
func (m *Map) Check() error {
	for id, ivs := range m.Docs {
		for i, iv := range ivs {
			if iv.To == 0 && i != len(ivs)-1 {
				return fmt.Errorf("mvcc: doc %d interval %d open before the last", id, i)
			}
			if iv.To != 0 && iv.From > iv.To {
				return fmt.Errorf("mvcc: doc %d interval %d inverted (%d > %d)", id, i, iv.From, iv.To)
			}
			if i > 0 {
				prev := ivs[i-1]
				if prev.To == 0 || iv.From < prev.To {
					return fmt.Errorf("mvcc: doc %d intervals %d/%d overlap", id, i-1, i)
				}
			}
			if iv.To > m.Counter+1 && !iv.Marker() {
				return fmt.Errorf("mvcc: doc %d interval %d ends at %d past counter %d", id, i, iv.To, m.Counter)
			}
		}
	}
	return nil
}
