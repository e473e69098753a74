package ingest

import (
	"encoding/binary"
	"fmt"

	"repro/internal/prix"
)

// Run files carry prix.DocSeq values — the dictionary-free Prüfer
// transforms — in a compact uvarint framing. Keeping the records
// dictionary-free is what makes checkpoints single-file atomic: no symbol
// table has to be snapshotted alongside them, because the merge phase
// re-interns labels in replay order and reproduces the same dictionary.

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// encodeDocSeq appends ds to buf.
func encodeDocSeq(buf []byte, ds *prix.DocSeq) []byte {
	buf = appendUvarint(buf, uint64(ds.DocID))
	buf = appendUvarint(buf, uint64(ds.NumNodes))
	buf = appendUvarint(buf, uint64(len(ds.NPS)))
	for i := range ds.NPS {
		buf = appendUvarint(buf, uint64(uint32(ds.NPS[i])))
		buf = appendBool(buf, ds.LPS[i].IsValue)
		buf = appendString(buf, ds.LPS[i].Label)
	}
	buf = appendUvarint(buf, uint64(len(ds.Leaves)))
	for _, lf := range ds.Leaves {
		buf = appendUvarint(buf, uint64(uint32(lf.Post)))
		buf = appendBool(buf, lf.IsValue)
		buf = appendString(buf, lf.Label)
	}
	buf = appendUvarint(buf, uint64(len(ds.Gaps)))
	for _, g := range ds.Gaps {
		buf = appendBool(buf, g.IsValue)
		buf = appendString(buf, g.Label)
		buf = appendUvarint(buf, uint64(g.Gap))
	}
	buf = appendUvarint(buf, uint64(ds.Elements))
	buf = appendUvarint(buf, uint64(ds.Values))
	buf = appendUvarint(buf, uint64(ds.MaxDepth))
	return buf
}

// docSeqDecoder walks one record. Labels are handed out as substrings of s, a
// single string copy of the record, rather than one string each; whoever
// keeps a label beyond the DocSeq (the dictionary, on a miss) clones it.
type docSeqDecoder struct {
	b   []byte
	s   string
	pos int
}

var errTruncatedDocSeq = fmt.Errorf("ingest: truncated DocSeq record")

func (d *docSeqDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		return 0, errTruncatedDocSeq
	}
	d.pos += n
	return v, nil
}

func (d *docSeqDecoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.b)-d.pos) {
		return "", errTruncatedDocSeq
	}
	s := d.s[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return s, nil
}

func (d *docSeqDecoder) boolean() (bool, error) {
	if d.pos >= len(d.b) {
		return false, errTruncatedDocSeq
	}
	v := d.b[d.pos] != 0
	d.pos++
	return v, nil
}

// decodeDocSeq parses one record from buf (the full record payload).
func decodeDocSeq(buf []byte) (*prix.DocSeq, error) {
	d := docSeqDecoder{b: buf, s: string(buf)}
	ds := &prix.DocSeq{}
	v, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	ds.DocID = uint32(v)
	if v, err = d.uvarint(); err != nil {
		return nil, err
	}
	ds.NumNodes = int32(v)
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(buf)) { // each position needs at least 3 bytes
		return nil, errTruncatedDocSeq
	}
	ds.NPS = make([]int32, n)
	ds.LPS = make([]prix.SeqLabel, n)
	for i := uint64(0); i < n; i++ {
		if v, err = d.uvarint(); err != nil {
			return nil, err
		}
		ds.NPS[i] = int32(v)
		if ds.LPS[i].IsValue, err = d.boolean(); err != nil {
			return nil, err
		}
		if ds.LPS[i].Label, err = d.str(); err != nil {
			return nil, err
		}
	}
	if n, err = d.uvarint(); err != nil {
		return nil, err
	}
	if n > uint64(len(buf)) {
		return nil, errTruncatedDocSeq
	}
	ds.Leaves = make([]prix.LeafLabel, n)
	for i := uint64(0); i < n; i++ {
		if v, err = d.uvarint(); err != nil {
			return nil, err
		}
		ds.Leaves[i].Post = int32(v)
		if ds.Leaves[i].IsValue, err = d.boolean(); err != nil {
			return nil, err
		}
		if ds.Leaves[i].Label, err = d.str(); err != nil {
			return nil, err
		}
	}
	if n, err = d.uvarint(); err != nil {
		return nil, err
	}
	if n > uint64(len(buf)) {
		return nil, errTruncatedDocSeq
	}
	ds.Gaps = make([]prix.GapLabel, n)
	for i := uint64(0); i < n; i++ {
		if ds.Gaps[i].IsValue, err = d.boolean(); err != nil {
			return nil, err
		}
		if ds.Gaps[i].Label, err = d.str(); err != nil {
			return nil, err
		}
		if v, err = d.uvarint(); err != nil {
			return nil, err
		}
		ds.Gaps[i].Gap = int64(v)
	}
	if v, err = d.uvarint(); err != nil {
		return nil, err
	}
	ds.Elements = int64(v)
	if v, err = d.uvarint(); err != nil {
		return nil, err
	}
	ds.Values = int64(v)
	if v, err = d.uvarint(); err != nil {
		return nil, err
	}
	ds.MaxDepth = int64(v)
	if d.pos != len(buf) {
		return nil, fmt.Errorf("ingest: %d trailing bytes after DocSeq record", len(buf)-d.pos)
	}
	return ds, nil
}
