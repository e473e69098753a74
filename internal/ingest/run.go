package ingest

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"repro/internal/pager"
	"repro/internal/prix"
)

// Run file layout:
//
//	"PRIXRUN1"                       8-byte magic
//	repeat: uvarint len, DocSeq payload
//	uvarint 0                        terminator
//	uint32 LE doc count
//	uint32 LE CRC-32C of everything above
//
// A run is written through a pager.AtomicFile (to <name>.tmp, sealed with
// trailer + sync, renamed to <name>) and only then recorded in the manifest
// — so every run the manifest lists is complete and checksummed, and
// anything else in the work directory is debris from a crash, deleted on
// resume.

const runMagic = "PRIXRUN1"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// runWriter streams DocSeq records into one run file.
type runWriter struct {
	path  string
	f     *pager.AtomicFile
	crc   hash.Hash32
	docs  uint32
	bytes int64
	buf   []byte
	hdr   [binary.MaxVarintLen64]byte // add's length prefix: a local would escape into the CRC write
}

func newRunWriter(fs pager.FS, path string) (*runWriter, error) {
	f, err := pager.CreateAtomic(fs, path)
	if err != nil {
		return nil, err
	}
	w := &runWriter{path: path, f: f, crc: crc32.New(castagnoli)}
	if err := w.write([]byte(runMagic)); err != nil {
		f.Abort()
		return nil, err
	}
	return w, nil
}

func (w *runWriter) write(p []byte) error {
	w.crc.Write(p)
	w.bytes += int64(len(p))
	_, err := w.f.Write(p)
	return err
}

func (w *runWriter) add(ds *prix.DocSeq) error {
	w.buf = encodeDocSeq(w.buf[:0], ds)
	n := binary.PutUvarint(w.hdr[:], uint64(len(w.buf)))
	if err := w.write(w.hdr[:n]); err != nil {
		return err
	}
	if err := w.write(w.buf); err != nil {
		return err
	}
	w.docs++
	return nil
}

// seal writes the trailer and commits the run into place. It returns the
// CRC recorded in the trailer (the manifest pins it too).
func (w *runWriter) seal() (crc uint32, err error) {
	var trailer [9]byte
	trailer[0] = 0 // terminator: a zero-length record
	binary.LittleEndian.PutUint32(trailer[1:5], w.docs)
	if err := w.write(trailer[:5]); err != nil {
		w.f.Abort()
		return 0, err
	}
	crc = w.crc.Sum32()
	binary.LittleEndian.PutUint32(trailer[5:9], crc)
	if _, err := w.f.Write(trailer[5:9]); err != nil {
		w.f.Abort()
		return 0, err
	}
	if err := w.f.Commit(); err != nil {
		return 0, err
	}
	return crc, nil
}

// abort drops an unsealed run (error paths only; best-effort).
func (w *runWriter) abort() { w.f.Abort() }

// runReader replays a sealed run, verifying its CRC as it goes.
type runReader struct {
	rc      io.ReadCloser
	br      *bufio.Reader
	crc     hash.Hash32
	path    string
	docs    uint32
	read    uint32
	sealCRC uint32 // trailer CRC, for cross-checking against the manifest
	buf     []byte
	ds      prix.DocSeq // next's result, decoded over buf anew each record
	one     [1]byte     // readUvarint's CRC feed, one byte at a time
	done    bool
}

func openRun(fs pager.FS, path string) (*runReader, error) {
	rc, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	r := &runReader{rc: rc, br: bufio.NewReaderSize(rc, 1<<16), crc: crc32.New(castagnoli), path: path}
	magic := make([]byte, len(runMagic))
	if _, err := io.ReadFull(r.br, magic); err != nil || string(magic) != runMagic {
		rc.Close()
		return nil, fmt.Errorf("ingest: %s: bad run magic", path)
	}
	r.crc.Write(magic)
	return r, nil
}

// next returns the next DocSeq or io.EOF after the trailer verifies. The
// DocSeq is the reader's own, labels included: it is valid only until the
// next call, which decodes the next record into the same storage.
func (r *runReader) next() (*prix.DocSeq, error) {
	if r.done {
		return nil, io.EOF
	}
	n, err := r.readUvarint()
	if err != nil {
		return nil, fmt.Errorf("ingest: %s: %w", r.path, err)
	}
	if n == 0 {
		return nil, r.finishTrailer()
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		return nil, fmt.Errorf("ingest: %s: truncated record: %w", r.path, err)
	}
	r.crc.Write(r.buf)
	if err := decodeDocSeq(&r.ds, r.buf); err != nil {
		return nil, fmt.Errorf("ingest: %s: %w", r.path, err)
	}
	r.read++
	return &r.ds, nil
}

// readUvarint reads a varint while feeding the CRC.
func (r *runReader) readUvarint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		b, err := r.br.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("truncated run: %w", err)
		}
		r.one[0] = b
		r.crc.Write(r.one[:])
		if b < 0x80 {
			if shift >= 64 {
				return 0, fmt.Errorf("malformed varint")
			}
			return v | uint64(b)<<shift, nil
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
		if shift >= 64 {
			return 0, fmt.Errorf("malformed varint")
		}
	}
}

// finishTrailer validates count and CRC, then reports io.EOF.
func (r *runReader) finishTrailer() error {
	var tail [8]byte
	if _, err := io.ReadFull(r.br, tail[:]); err != nil {
		return fmt.Errorf("ingest: %s: truncated trailer: %w", r.path, err)
	}
	r.docs = binary.LittleEndian.Uint32(tail[0:4])
	r.crc.Write(tail[0:4])
	want := binary.LittleEndian.Uint32(tail[4:8])
	r.sealCRC = want
	if got := r.crc.Sum32(); got != want {
		return fmt.Errorf("ingest: %s: CRC mismatch (stored %08x, computed %08x)", r.path, want, got)
	}
	if r.docs != r.read {
		return fmt.Errorf("ingest: %s: trailer says %d docs, read %d", r.path, r.docs, r.read)
	}
	// Any byte past the trailer means the file was appended to after
	// sealing; a sealed run ends exactly at its CRC.
	if _, err := r.br.ReadByte(); err != io.EOF {
		return fmt.Errorf("ingest: %s: trailing bytes after sealed trailer", r.path)
	}
	r.done = true
	return io.EOF
}

func (r *runReader) close() error { return r.rc.Close() }
