package ingest

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"repro/internal/prix"
)

// Run files carry prix.DocSeq values — the dictionary-free Prüfer
// transforms — in a compact uvarint framing. Keeping the records
// dictionary-free makes a run self-contained: no symbol table is written
// alongside it, because the merge phase re-interns labels in replay order
// and reproduces the same dictionary.

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

// docSeqDecoder walks one record. Labels are handed out as transient strings
// over b itself, not copies: they are valid while b is, which the run reader
// keeps until its next record. Whoever keeps a label beyond that (the
// dictionary, on a miss) copies it.
type docSeqDecoder struct {
	b   []byte
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
	s := unsafe.String(unsafe.SliceData(d.b[d.pos:]), int(n))
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

// decodeDocSeq parses one record from buf (the full record payload) into ds,
// reusing the storage of its slices. ds's labels point into buf, so ds is
// valid only while buf is unchanged.
func decodeDocSeq(ds *prix.DocSeq, buf []byte) error {
	d := docSeqDecoder{b: buf}
	v, err := d.uvarint()
	if err != nil {
		return err
	}
	ds.DocID = uint32(v)
	if v, err = d.uvarint(); err != nil {
		return err
	}
	ds.NumNodes = int32(v)
	n, err := d.uvarint()
	if err != nil {
		return err
	}
	if n > uint64(len(buf)) { // each position needs at least 3 bytes
		return errTruncatedDocSeq
	}
	ds.NPS = resize(ds.NPS, n)
	ds.LPS = resize(ds.LPS, n)
	for i := uint64(0); i < n; i++ {
		if v, err = d.uvarint(); err != nil {
			return err
		}
		ds.NPS[i] = int32(v)
		if ds.LPS[i].IsValue, err = d.boolean(); err != nil {
			return err
		}
		if ds.LPS[i].Label, err = d.str(); err != nil {
			return err
		}
	}
	if n, err = d.uvarint(); err != nil {
		return err
	}
	if n > uint64(len(buf)) {
		return errTruncatedDocSeq
	}
	ds.Leaves = resize(ds.Leaves, n)
	for i := uint64(0); i < n; i++ {
		if v, err = d.uvarint(); err != nil {
			return err
		}
		ds.Leaves[i].Post = int32(v)
		if ds.Leaves[i].IsValue, err = d.boolean(); err != nil {
			return err
		}
		if ds.Leaves[i].Label, err = d.str(); err != nil {
			return err
		}
	}
	if n, err = d.uvarint(); err != nil {
		return err
	}
	if n > uint64(len(buf)) {
		return errTruncatedDocSeq
	}
	ds.Gaps = resize(ds.Gaps, n)
	for i := uint64(0); i < n; i++ {
		if ds.Gaps[i].IsValue, err = d.boolean(); err != nil {
			return err
		}
		if ds.Gaps[i].Label, err = d.str(); err != nil {
			return err
		}
		if v, err = d.uvarint(); err != nil {
			return err
		}
		ds.Gaps[i].Gap = int64(v)
	}
	if v, err = d.uvarint(); err != nil {
		return err
	}
	ds.Elements = int64(v)
	if v, err = d.uvarint(); err != nil {
		return err
	}
	ds.Values = int64(v)
	if v, err = d.uvarint(); err != nil {
		return err
	}
	ds.MaxDepth = int64(v)
	if d.pos != len(buf) {
		return fmt.Errorf("ingest: %d trailing bytes after DocSeq record", len(buf)-d.pos)
	}
	return nil
}

// resize returns s with length n, reusing its storage when it is large
// enough. Every element is overwritten by the decoder.
func resize[T any](s []T, n uint64) []T {
	if uint64(cap(s)) < n {
		return make([]T, n)
	}
	return s[:n]
}
