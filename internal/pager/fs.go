package pager

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
)

// FSFile is a sequentially written artifact: a run file, a manifest or
// pointer temp, a spill chunk, a replica or snapshot copy.
type FSFile interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the slice of filesystem every non-page artifact is written through.
// The default is the real OS; crash-sweep tests substitute FaultFS, whose
// write-class operations tick the same PowerClock as the index page files,
// so one sweep covers every write point of a build or a compaction.
type FS interface {
	Create(path string) (FSFile, error)
	Open(path string) (io.ReadCloser, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
	RemoveAll(path string) error
	MkdirAll(path string) error
	// ReadDir lists the names (not paths) of directory entries; a missing
	// directory returns an empty list.
	ReadDir(path string) ([]string, error)
	// SyncDir makes the directory's entries durable: a rename or create in
	// it survives a power loss only once its parent directory is synced.
	SyncDir(path string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) Create(path string) (FSFile, error) { return os.Create(path) }

func (OSFS) Open(path string) (io.ReadCloser, error) { return os.Open(path) }

func (OSFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (OSFS) Remove(path string) error { return os.Remove(path) }

func (OSFS) RemoveAll(path string) error { return os.RemoveAll(path) }

func (OSFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

func (OSFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (OSFS) ReadDir(path string) ([]string, error) {
	ents, err := os.ReadDir(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names, nil
}

// tmpSuffix names the temp file an AtomicFile writes before its rename.
const tmpSuffix = ".tmp"

// AtomicFile replaces the file at a path as a whole: writes go to
// path+tmpSuffix, and Commit makes them durable before renaming the temp
// over path, so a crash at any point leaves either the old file or the new
// one — never a torn one.
type AtomicFile struct {
	fs   FS
	path string
	f    FSFile
	w    *bufio.Writer
}

// CreateAtomic starts replacing path on fs.
func CreateAtomic(fs FS, path string) (*AtomicFile, error) {
	return createAtomic(fs, path, 64<<10)
}

func createAtomic(fs FS, path string, bufSize int) (*AtomicFile, error) {
	f, err := fs.Create(path + tmpSuffix)
	if err != nil {
		return nil, err
	}
	return &AtomicFile{fs: fs, path: path, f: f, w: bufio.NewWriterSize(f, bufSize)}, nil
}

// Write buffers p for the temp file.
func (a *AtomicFile) Write(p []byte) (int, error) { return a.w.Write(p) }

// Commit flushes, syncs and closes the temp file, renames it over the path
// and syncs the directory, so the rename is durable when Commit returns. On
// a failure before the rename the temp is removed.
func (a *AtomicFile) Commit() error {
	err := a.w.Flush()
	if err == nil {
		err = a.f.Sync()
	}
	if cerr := a.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// Best effort: a temp left behind is debris the next attempt's
		// create replaces.
		_ = a.fs.Remove(a.path + tmpSuffix)
		return err
	}
	if err := a.fs.Rename(a.path+tmpSuffix, a.path); err != nil {
		return err
	}
	return a.fs.SyncDir(filepath.Dir(a.path))
}

// Abort drops the temp file and leaves the path untouched. It runs on
// error paths only, so its own failures are dropped: a temp left behind is
// debris the next attempt's create replaces.
func (a *AtomicFile) Abort() {
	_ = a.f.Close()
	_ = a.fs.Remove(a.path + tmpSuffix)
}

// WriteFileAtomic replaces path with data through an AtomicFile whose
// buffer is sized to data, so the temp gets data in one write.
func WriteFileAtomic(fs FS, path string, data []byte) error {
	a, err := createAtomic(fs, path, len(data))
	if err != nil {
		return err
	}
	if _, err := a.Write(data); err != nil {
		a.Abort()
		return err
	}
	return a.Commit()
}
