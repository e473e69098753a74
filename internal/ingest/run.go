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
// A run is scratch, like a spill chunk: it is written, read back and
// removed by the process that made it, and every user deletes whatever runs
// a crashed process left before it writes again (ingest by removing its
// work directory, compaction by recovering its root). So a run is not
// synced; its trailer count and CRC catch a run that a bug, not a power
// cut, left short.

const runMagic = "PRIXRUN1"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// runWriter streams DocSeq records into one run file.
type runWriter struct {
	f     pager.FSFile
	bw    *bufio.Writer
	crc   hash.Hash32
	docs  uint32
	bytes int64
	buf   []byte
	hdr   [binary.MaxVarintLen64]byte // add's length prefix: a local would escape into the CRC write
}

func newRunWriter(fs pager.FS, path string) (*runWriter, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	w := &runWriter{f: f, bw: bufio.NewWriterSize(f, 64<<10), crc: crc32.New(castagnoli)}
	if err := w.write([]byte(runMagic)); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

func (w *runWriter) write(p []byte) error {
	w.crc.Write(p)
	w.bytes += int64(len(p))
	_, err := w.bw.Write(p)
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

// seal writes the trailer, flushes and closes the run.
func (w *runWriter) seal() error {
	var trailer [9]byte
	trailer[0] = 0 // terminator: a zero-length record
	binary.LittleEndian.PutUint32(trailer[1:5], w.docs)
	err := w.write(trailer[:5])
	if err == nil {
		binary.LittleEndian.PutUint32(trailer[5:9], w.crc.Sum32())
		_, err = w.bw.Write(trailer[5:9])
	}
	if err == nil {
		err = w.bw.Flush()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// abort closes an unsealed run (error paths only). The file stays behind,
// debris the next ingest or compaction deletes before it writes.
func (w *runWriter) abort() { _ = w.f.Close() }

// runReader replays a sealed run, verifying its CRC as it goes.
type runReader struct {
	rc   io.ReadCloser
	br   *bufio.Reader
	crc  hash.Hash32
	path string
	docs uint32
	read uint32
	buf  []byte
	ds   prix.DocSeq // next's result, decoded over buf anew each record
	one  [1]byte     // readUvarint's CRC feed, one byte at a time
	done bool
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
