package ingest

import (
	"repro/internal/pager"
	"repro/internal/prix"
)

// The run-file machinery (CRC-checked DocSeq spools) is reused by
// internal/compact: the compactor drains a live DynamicIndex into the exact
// same run format the streaming bulk loader uses. These thin exported
// wrappers keep the underlying types unexported (their invariants — the
// trailer count and checksum — stay package-internal). A run is scratch:
// it is not synced, and a crashed process's runs are deleted before the
// next one writes.

// RunWriter streams DocSeq records into a run file.
type RunWriter struct{ w *runWriter }

// NewRunWriter creates a run file at path.
func NewRunWriter(fs pager.FS, path string) (*RunWriter, error) {
	w, err := newRunWriter(fs, path)
	if err != nil {
		return nil, err
	}
	return &RunWriter{w: w}, nil
}

// Add appends one record to the run.
func (w *RunWriter) Add(ds *prix.DocSeq) error { return w.w.add(ds) }

// Bytes is the run's body size so far (callers chunk runs by byte budget).
func (w *RunWriter) Bytes() int64 { return w.w.bytes }

// Seal writes the trailer and closes the run.
func (w *RunWriter) Seal() error { return w.w.seal() }

// Abort closes an unsealed run (error paths only; best-effort).
func (w *RunWriter) Abort() { w.w.abort() }

// RunReader replays a sealed run, verifying its CRC as it goes.
type RunReader struct{ r *runReader }

// OpenRun opens a sealed run file for replay.
func OpenRun(fs pager.FS, path string) (*RunReader, error) {
	r, err := openRun(fs, path)
	if err != nil {
		return nil, err
	}
	return &RunReader{r: r}, nil
}

// Next returns the next DocSeq, or io.EOF once the trailer verifies. The
// DocSeq, its slices and its labels belong to the reader and are valid only
// until the next call.
func (r *RunReader) Next() (*prix.DocSeq, error) { return r.r.next() }

// Close releases the underlying file.
func (r *RunReader) Close() error { return r.r.close() }
