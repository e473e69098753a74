package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/pager"
)

// ManifestFile is the checkpoint descriptor inside the work directory. It
// is replaced only by pager.WriteFileAtomic, so a crash leaves either the
// previous checkpoint or the new one — never a torn file — and its payload
// is CRC-32C-sealed so silent corruption is detected rather than resumed
// from.
const ManifestFile = "manifest.json"

// Build phases recorded in the manifest. scan → merge → done; resume
// re-enters at the recorded phase.
const (
	phaseScan  = "scan"
	phaseMerge = "merge"
	phaseDone  = "done"
)

// RunInfo describes one sealed run file: what it holds and where the input
// cursor stood after producing it — the resume point.
type RunInfo struct {
	Name string `json:"name"`
	// Docs is the number of DocSeq records in the run; Skips the number of
	// malformed records skipped while producing it.
	Docs  uint32 `json:"docs"`
	Skips uint32 `json:"skips"`
	// CRC pins the sealed file's trailer checksum.
	CRC uint32 `json:"crc"`
	// EndOffset / EndOrdinal are the cursor position after the run's last
	// record: byte offset into the input and record ordinal.
	EndOffset  int64 `json:"end_offset"`
	EndOrdinal int   `json:"end_ordinal"`
}

// SkipRecord reports one malformed record: where it sat in the input and
// why it was rejected.
type SkipRecord struct {
	Ordinal int    `json:"ordinal"`
	Offset  int64  `json:"offset"`
	Error   string `json:"error"`
}

// maxSkipDetail bounds the per-skip detail kept in the manifest; the total
// count is always exact.
const maxSkipDetail = 64

// Manifest is the durable checkpoint state of one streaming build.
type Manifest struct {
	Version int    `json:"version"`
	Phase   string `json:"phase"`

	// Build configuration; a resume must present the same values or fail,
	// since they all shape the produced bytes.
	Input     string `json:"input"`
	Split     bool   `json:"split"`
	Wrapper   string `json:"wrapper,omitempty"`
	Extended  bool   `json:"extended"`
	Shards    int    `json:"shards"`
	Replicas  int    `json:"replicas"`
	MemBudget int64  `json:"mem_budget"`
	Epoch     uint64 `json:"epoch"`

	Runs       []RunInfo    `json:"runs"`
	TotalDocs  uint32       `json:"total_docs"`
	TotalSkips int          `json:"total_skips"`
	SkipDetail []SkipRecord `json:"skip_detail,omitempty"`

	// Checksum is the CRC-32C of this document serialized with Checksum 0.
	Checksum uint32 `json:"checksum"`
}

// ErrNoManifest reports a work directory with no checkpoint to resume from.
var ErrNoManifest = errors.New("ingest: no manifest (nothing to resume)")

func manifestBytes(m *Manifest) ([]byte, error) {
	cp := *m
	cp.Checksum = 0
	return json.MarshalIndent(&cp, "", "  ")
}

// save commits the manifest atomically. Every write point ticks the FS's
// power clock when one is attached.
func (m *Manifest) save(fs pager.FS, dir string) error {
	raw, err := manifestBytes(m)
	if err != nil {
		return err
	}
	m.Checksum = crc32.Checksum(raw, castagnoli)
	sealed, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	sealed = append(sealed, '\n')
	return pager.WriteFileAtomic(fs, filepath.Join(dir, ManifestFile), sealed)
}

// loadManifest reads and verifies dir/manifest.json.
func loadManifest(fs pager.FS, dir string) (*Manifest, error) {
	rc, err := fs.Open(filepath.Join(dir, ManifestFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoManifest
	}
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if err := json.Unmarshal(raw, m); err != nil {
		return nil, fmt.Errorf("ingest: %s: %w", ManifestFile, err)
	}
	unsealed, err := manifestBytes(m)
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(unsealed, castagnoli); got != m.Checksum {
		return nil, fmt.Errorf("ingest: %s: checksum mismatch (stored %08x, computed %08x)", ManifestFile, m.Checksum, got)
	}
	if m.Version != 1 {
		return nil, fmt.Errorf("ingest: %s: unsupported version %d", ManifestFile, m.Version)
	}
	return m, nil
}

// matches rejects a resume whose configuration differs from the checkpoint:
// every listed field shapes the bytes the build produces, so continuing
// under different values could not converge on the uninterrupted index.
func (m *Manifest) matches(o *Options) error {
	mismatch := func(field string, was, now any) error {
		return fmt.Errorf("ingest: resume %s mismatch: checkpoint has %v, options have %v", field, was, now)
	}
	switch {
	case m.Input != o.Input:
		return mismatch("input", m.Input, o.Input)
	case m.Split != o.Split:
		return mismatch("split", m.Split, o.Split)
	case m.Extended != o.Extended:
		return mismatch("extended", m.Extended, o.Extended)
	case m.Shards != o.shards():
		return mismatch("shards", m.Shards, o.shards())
	case m.Replicas != o.replicas():
		return mismatch("replicas", m.Replicas, o.replicas())
	case m.MemBudget != o.budget():
		return mismatch("mem-budget", m.MemBudget, o.budget())
	}
	return nil
}
