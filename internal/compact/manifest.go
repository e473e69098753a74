// Package compact rewrites append-heavy dynamic indexes into the packed
// bulk-loaded layout — online (a rate-limited background compactor over a
// live serving Root, with a zero-downtime epoch swap) or offline (the
// prixscrub -compact path over a closed index directory).
//
// Durability follows the streaming-ingest idiom: every intermediate
// artifact is either sealed-and-checksummed (run files), written atomically
// (manifest, CURRENT pointer), or rebuilt deterministically from scratch
// (the bulk-loaded index itself), so a power cut at any write ordinal
// resumes to a byte-identical compacted index — or, before the commit
// point, leaves the old epoch serving untouched. The commit point is a
// single atomic write of the CURRENT pointer file; there is no state in
// which readers can observe half a swap.
package compact

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

// Layout of an epoch root directory:
//
//	CURRENT             CRC-sealed pointer to the serving epoch directory
//	epoch-000001/       a complete index (seq.idx, docs.db and their shared
//	                    journal prix.jnl, empty while the index is closed)
//	.compact/           compaction work directory (manifest, runs, next/)
//
// A plain index directory (seq.idx directly at the root, no CURRENT) is
// auto-converted on its first compaction: the compacted index lands in
// epoch-000001/, CURRENT is committed, and the plain page files are removed.
const (
	// CurrentFile is the epoch pointer at the root of an epoch layout.
	CurrentFile = "CURRENT"
	// WorkDirName is the compaction work directory under the root.
	WorkDirName = ".compact"
	// ManifestFile is the checkpoint manifest inside the work directory.
	ManifestFile = "manifest.json"
	// nextDirName holds the index being built, renamed to epoch-N on publish.
	nextDirName = "next"
	// spillDirName holds the bulk loader's sorted spill chunks.
	spillDirName = "spill"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EpochDirName renders an epoch's directory name ("epoch-000001").
func EpochDirName(epoch uint64) string { return fmt.Sprintf("epoch-%06d", epoch) }

// current is the CURRENT pointer payload.
type current struct {
	Version int    `json:"version"`
	Epoch   uint64 `json:"epoch"`
	Dir     string `json:"dir"`
	// Checksum is CRC-32C over the JSON with this field zeroed.
	Checksum uint32 `json:"checksum"`
}

func (c *current) bytes() ([]byte, error) {
	shadow := *c
	shadow.Checksum = 0
	return json.MarshalIndent(&shadow, "", "  ")
}

func (c *current) save(fs pager.FS, root string) error {
	raw, err := c.bytes()
	if err != nil {
		return err
	}
	c.Checksum = crc32.Checksum(raw, castagnoli)
	sealed, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return pager.WriteFileAtomic(fs, filepath.Join(root, CurrentFile), append(sealed, '\n'))
}

func loadCurrent(fs pager.FS, root string) (*current, error) {
	rc, err := fs.Open(filepath.Join(root, CurrentFile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return nil, err
	}
	c := &current{}
	if err := json.Unmarshal(raw, c); err != nil {
		return nil, fmt.Errorf("compact: %s: %w", CurrentFile, err)
	}
	want := c.Checksum
	unsealed, err := c.bytes()
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(unsealed, castagnoli); got != want {
		return nil, fmt.Errorf("compact: %s: checksum mismatch (stored %08x, computed %08x)", CurrentFile, want, got)
	}
	if c.Version != 1 {
		return nil, fmt.Errorf("compact: %s: unsupported version %d", CurrentFile, c.Version)
	}
	return c, nil
}

// ResolveDir resolves an index directory through its epoch pointer: an
// epoch root yields the serving epoch's directory, a plain index directory
// (no CURRENT) yields itself. Every opener — prixserve, prixscrub, the
// shard coordinator's replica loop — routes through this, which is what
// makes a compacted layout a drop-in replacement for a plain one. A CURRENT
// that exists but fails its checksum is an error, not a fallback: the plain
// files it superseded may already be gone.
func ResolveDir(dir string) (string, error) {
	resolved, _, err := resolveDir(pager.OSFS{}, dir)
	return resolved, err
}

// resolveDir is ResolveDir plus the epoch number (0 for a plain directory),
// over an injectable filesystem.
func resolveDir(fs pager.FS, dir string) (string, uint64, error) {
	c, err := loadCurrent(fs, dir)
	if err != nil {
		if isNotExist(err) {
			return dir, 0, nil
		}
		return "", 0, err
	}
	return filepath.Join(dir, c.Dir), c.Epoch, nil
}

func isNotExist(err error) bool { return errors.Is(err, os.ErrNotExist) }

// RunInfo records one sealed drain run in the manifest.
type RunInfo struct {
	// Name is the run's file name inside the work directory.
	Name string `json:"name"`
	// Docs is the number of DocSeq records the run carries.
	Docs uint32 `json:"docs"`
	// CRC is the run's sealed trailer CRC; replay cross-checks it.
	CRC uint32 `json:"crc"`
}

// Compaction phases, in order. drain and build may be revisited (a resumed
// online compaction re-drains documents inserted after the manifest's Docs
// watermark and rebuilds from scratch); publish and done are monotonic.
const (
	phaseDrain   = "drain"
	phaseBuild   = "build"
	phasePublish = "publish"
	phaseDone    = "done"
)

// Manifest is the compaction checkpoint: which phase was reached, the
// sealed runs drained so far, and the configuration that must not drift
// across a resume. It is CRC-sealed and written atomically, so a crash
// leaves either the previous checkpoint or the new one.
type Manifest struct {
	Version int    `json:"version"`
	Phase   string `json:"phase"`
	// SourceEpoch is the epoch being compacted (0 = plain directory);
	// NextEpoch = SourceEpoch + 1 is where the compacted index lands.
	SourceEpoch uint64 `json:"source_epoch"`
	NextEpoch   uint64 `json:"next_epoch"`
	// Dynamic selects the build mode: a dynamic source is rebuilt through
	// BulkLoadDynamic (still insertable afterwards), a static one through
	// FinalizeBulk.
	Dynamic  bool `json:"dynamic"`
	Extended bool `json:"extended"`
	// Alpha / Spread are the dynamic labeler parameters carried into the
	// compacted index.
	Alpha  int    `json:"alpha"`
	Spread uint64 `json:"spread"`
	// MemBudget pins the spill budget: it decides run and chunk boundaries,
	// so resuming under a different budget would break byte-identity.
	MemBudget int64 `json:"mem_budget"`
	// Docs is the drain watermark: documents [0, Docs) are covered by Runs.
	Docs uint32 `json:"docs"`
	// DeltaDocs is how many catch-up documents an online compaction
	// inserted directly into the built index during its freeze window
	// (set just before the phase moves to publish). Docs+DeltaDocs is the
	// built epoch's true watermark: a resume at phasePublish that finds
	// the source grown past it knows inserts were acknowledged after a
	// failed publish and must re-drain instead of committing the stale
	// build.
	DeltaDocs uint32 `json:"delta_docs,omitempty"`
	// Retain is the version-retention window the drain collapsed under; it
	// decides which documents spool as stubs, so a resume adopts it like
	// MemBudget.
	Retain uint64 `json:"retain,omitempty"`
	// Muts pins the source's mutation counter (MutOps) at the last drain
	// snapshot: runs drained under a different mutation history are stale
	// and force a full re-drain.
	Muts uint64 `json:"muts,omitempty"`
	// Versions is the collapsed version map captured with the drain
	// snapshot; the built epoch adopts it wholesale. Empty when the source
	// carries no version state.
	Versions []byte `json:"versions,omitempty"`
	// Runs lists the sealed drain runs in replay order.
	Runs []RunInfo `json:"runs"`
	// Checksum is CRC-32C over the JSON with this field zeroed.
	Checksum uint32 `json:"checksum"`
}

// ErrNoManifest reports that the work directory holds no (valid) manifest —
// nothing to resume.
var ErrNoManifest = errors.New("compact: no manifest to resume")

func (m *Manifest) bytes() ([]byte, error) {
	shadow := *m
	shadow.Checksum = 0
	return json.MarshalIndent(&shadow, "", "  ")
}

// save seals and atomically replaces the manifest checkpoint.
func (m *Manifest) save(fs pager.FS, workdir string) error {
	raw, err := m.bytes()
	if err != nil {
		return err
	}
	m.Checksum = crc32.Checksum(raw, castagnoli)
	sealed, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return pager.WriteFileAtomic(fs, filepath.Join(workdir, ManifestFile), append(sealed, '\n'))
}

func loadManifest(fs pager.FS, workdir string) (*Manifest, error) {
	rc, err := fs.Open(filepath.Join(workdir, ManifestFile))
	if err != nil {
		return nil, fmt.Errorf("%w (%v)", ErrNoManifest, err)
	}
	raw, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if err := json.Unmarshal(raw, m); err != nil {
		return nil, fmt.Errorf("compact: %s: %w", ManifestFile, err)
	}
	want := m.Checksum
	unsealed, err := m.bytes()
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(unsealed, castagnoli); got != want {
		return nil, fmt.Errorf("compact: %s: checksum mismatch (stored %08x, computed %08x)", ManifestFile, want, got)
	}
	if m.Version != 1 {
		return nil, fmt.Errorf("compact: %s: unsupported version %d", ManifestFile, m.Version)
	}
	return m, nil
}

// matches rejects resuming under drifted configuration: the budget decides
// run/chunk boundaries and the epochs decide where files land, so any drift
// would silently break the byte-identity guarantee instead of failing here.
func (m *Manifest) matches(other *Manifest) error {
	switch {
	case m.SourceEpoch != other.SourceEpoch || m.NextEpoch != other.NextEpoch:
		return fmt.Errorf("compact: resume epoch mismatch (manifest %d→%d, current %d→%d)",
			m.SourceEpoch, m.NextEpoch, other.SourceEpoch, other.NextEpoch)
	case m.Dynamic != other.Dynamic:
		return fmt.Errorf("compact: resume build-mode mismatch (manifest dynamic=%v, source dynamic=%v)", m.Dynamic, other.Dynamic)
	case m.Extended != other.Extended:
		return fmt.Errorf("compact: resume sequence-flavor mismatch (manifest extended=%v, source extended=%v)", m.Extended, other.Extended)
	case m.Alpha != other.Alpha || m.Spread != other.Spread:
		return fmt.Errorf("compact: resume labeler mismatch (manifest α=%d spread=%d, source α=%d spread=%d)",
			m.Alpha, m.Spread, other.Alpha, other.Spread)
	case m.MemBudget != other.MemBudget:
		return fmt.Errorf("compact: resume budget mismatch (manifest %d, current %d)", m.MemBudget, other.MemBudget)
	case m.Retain != other.Retain:
		return fmt.Errorf("compact: resume retention mismatch (manifest %d, current %d)", m.Retain, other.Retain)
	}
	return nil
}

// clearDebris removes everything in the work directory that is not the
// manifest or a sealed, manifest-listed run: unsealed .tmp runs, and stale
// next/ or spill/ trees from an interrupted build (the build phase recreates
// both from scratch).
func clearDebris(fs pager.FS, workdir string, m *Manifest) error {
	keep := map[string]bool{ManifestFile: true}
	for _, r := range m.Runs {
		keep[r.Name] = true
	}
	names, err := fs.ReadDir(workdir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if keep[name] {
			continue
		}
		if err := fs.RemoveAll(filepath.Join(workdir, name)); err != nil {
			return err
		}
	}
	return nil
}
