// Package compact rewrites append-heavy dynamic indexes into the packed
// bulk-loaded layout — online (a rate-limited background compactor over a
// live serving Root, with a zero-downtime epoch swap) or offline (the
// prixscrub -compact path over a closed index directory).
//
// The crash contract is one rule: until the rename of the CURRENT pointer
// is durable the old layout is the index, and after it the new epoch is.
// Everything else a compaction writes — drain runs, the half-built next
// index, a published but uncommitted epoch directory — is debris, and
// recovery (recoverRoot, run by OpenRoot, Run and Root.Compact before they
// do anything else) only deletes it: it never drains, builds or commits. A
// compaction a crash interrupted is simply run again; by Prüfer's
// one-to-one correspondence every posting and record of an epoch is rebuilt
// from the documents' sequences anyway, so the rerun rebuilds the same
// index.
package compact

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/pager"
	"repro/internal/prix"
)

// Layout of an epoch root directory:
//
//	CURRENT             CRC-sealed pointer to the serving epoch directory
//	epoch-000001/       a complete index (seq.idx, docs.db and their shared
//	                    journal prix.jnl, empty while the index is closed)
//	.compact/           a running compaction's work directory (runs, next/)
//
// A plain index directory (seq.idx directly at the root, no CURRENT) is
// auto-converted on its first compaction: the compacted index lands in
// epoch-000001/, CURRENT is committed, and the plain page files are removed.
const (
	// CurrentFile is the epoch pointer at the root of an epoch layout.
	CurrentFile = "CURRENT"
	// WorkDirName is the compaction work directory under the root.
	WorkDirName = ".compact"
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

// recoverRoot applies the crash contract to an index root before anything
// reads or compacts it: CURRENT is the only commit record, so whatever a
// compaction left that CURRENT does not name is deleted — the work
// directory, every epoch directory but CURRENT's (all of them when there is
// no CURRENT), a CURRENT temp file and, once CURRENT exists, a converted
// root's plain page files. Nothing else is touched. It returns the serving
// epoch (0 for a plain root); a CURRENT that fails its checksum is an error
// and nothing is removed.
func recoverRoot(fs pager.FS, root string) (uint64, error) {
	_, epoch, err := resolveDir(fs, root)
	if err != nil {
		return 0, err
	}
	names, err := fs.ReadDir(root)
	if err != nil {
		return 0, err
	}
	for _, name := range names {
		var debris bool
		switch name {
		case WorkDirName, CurrentFile + ".tmp":
			debris = true
		case prix.ForestFileName, prix.DocsFileName, prix.JournalFileName:
			debris = epoch > 0
		default:
			debris = strings.HasPrefix(name, "epoch-") && name != EpochDirName(epoch)
		}
		if debris {
			if err := fs.RemoveAll(filepath.Join(root, name)); err != nil {
				return 0, err
			}
		}
	}
	return epoch, nil
}
