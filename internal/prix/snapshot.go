package prix

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/pager"
)

// Snapshot copies the index's two page files into dir, cut exactly at a
// journal commit point, while queries keep running. Holding the repair lock
// in read mode excludes every writer (inserts, repairs, sweeps), so after
// both pools commit there are no dirty frames and nothing can write a page
// until the copy finishes; concurrent readers at most re-read. Each page is
// checksum-verified on the way out — a snapshot of damage is refused, since
// restoring it later would resurrect the corruption.
func (ix *Index) Snapshot(dir string) error {
	ix.repairMu.RLock()
	defer ix.repairMu.RUnlock()
	if ix.halfWritten != nil {
		return ix.halfWritten
	}
	// One commit covers both pools: they share the journal.
	if err := ix.forest.BufferPool().FlushAll(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("prix: snapshot: %w", err)
	}
	if err := copyPagesVerified(ix.forest.BufferPool().File(), filepath.Join(dir, forestFile)); err != nil {
		return err
	}
	return copyPagesVerified(ix.store.BufferPool().File(), filepath.Join(dir, docsFile))
}

// RestoreSnapshot replaces the index files in indexDir with the snapshot in
// snapDir. Offline only: the index must not be open. Every snapshot page is
// verified before the first byte of the live index is touched, each file is
// swapped in atomically via rename, and the stale journal is removed (the
// snapshot is itself a committed image, so there is nothing to roll back).
func RestoreSnapshot(indexDir, snapDir string) error {
	for _, name := range []string{forestFile, docsFile} {
		if err := verifyPageFile(filepath.Join(snapDir, name)); err != nil {
			return fmt.Errorf("prix: restore refused: %w", err)
		}
	}
	for _, name := range []string{forestFile, docsFile} {
		if err := restoreFile(filepath.Join(snapDir, name), filepath.Join(indexDir, name)); err != nil {
			return err
		}
	}
	for _, name := range append([]string{journalFile}, LegacyJournalFileNames[:]...) {
		if err := os.Remove(filepath.Join(indexDir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// copyPagesVerified writes every page of f to a fresh file at path
// through an atomic replace, refusing on the first checksum failure.
func copyPagesVerified(f pager.File, path string) error {
	out, err := pager.CreateAtomic(pager.OSFS{}, path)
	if err != nil {
		return fmt.Errorf("prix: snapshot: %w", err)
	}
	buf := make([]byte, pager.PageSize)
	for id := uint32(0); id < f.NumPages(); id++ {
		if err := f.ReadPage(pager.PageID(id), buf); err != nil {
			out.Abort()
			return fmt.Errorf("prix: snapshot: %w", err)
		}
		if err := pager.VerifyPage(pager.PageID(id), buf); err != nil {
			out.Abort()
			return fmt.Errorf("prix: snapshot refused, page damaged: %w", err)
		}
		if _, err := out.Write(buf); err != nil {
			out.Abort()
			return fmt.Errorf("prix: snapshot: %w", err)
		}
	}
	if err := out.Commit(); err != nil {
		return fmt.Errorf("prix: snapshot: %w", err)
	}
	return nil
}

// verifyPageFile checks every page of a snapshot file.
func verifyPageFile(path string) error {
	f, err := pager.OpenOSFilePadded(path)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, pager.PageSize)
	for id := uint32(0); id < f.NumPages(); id++ {
		if err := f.ReadPage(pager.PageID(id), buf); err != nil {
			return err
		}
		if err := pager.VerifyPage(pager.PageID(id), buf); err != nil {
			return fmt.Errorf("%s page %d: %w", path, id, err)
		}
	}
	return nil
}

// restoreFile copies src over dst through an atomic replace.
func restoreFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := pager.CreateAtomic(pager.OSFS{}, dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Abort()
		return err
	}
	return out.Commit()
}
