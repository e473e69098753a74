package pager_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pager"
	"repro/internal/pager/pagertest"
)

// recordFS logs every operation on an OSFS, and fails Sync on command.
type recordFS struct {
	pager.OSFS
	log      []string
	failSync bool
}

type recordFile struct {
	f    pager.FSFile
	fs   *recordFS
	name string
}

var errSync = errors.New("sync refused")

func (r *recordFS) Create(path string) (pager.FSFile, error) {
	r.log = append(r.log, "create "+filepath.Base(path))
	f, err := r.OSFS.Create(path)
	if err != nil {
		return nil, err
	}
	return &recordFile{f: f, fs: r, name: filepath.Base(path)}, nil
}

func (r *recordFS) Rename(oldPath, newPath string) error {
	r.log = append(r.log, "rename "+filepath.Base(oldPath)+" "+filepath.Base(newPath))
	return r.OSFS.Rename(oldPath, newPath)
}

func (r *recordFS) Remove(path string) error {
	r.log = append(r.log, "remove "+filepath.Base(path))
	return r.OSFS.Remove(path)
}

func (r *recordFS) SyncDir(path string) error {
	r.log = append(r.log, "syncdir "+filepath.Base(path))
	return r.OSFS.SyncDir(path)
}

func (w *recordFile) Write(p []byte) (int, error) {
	w.fs.log = append(w.fs.log, fmt.Sprintf("write %s %d", w.name, len(p)))
	return w.f.Write(p)
}

func (w *recordFile) Sync() error {
	w.fs.log = append(w.fs.log, "sync "+w.name)
	if w.fs.failSync {
		return errSync
	}
	return w.f.Sync()
}

func (w *recordFile) Close() error {
	w.fs.log = append(w.fs.log, "close "+w.name)
	return w.f.Close()
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestAtomicWriteOrder pins the one durable-write protocol every artifact
// goes through: the temp is written, synced and closed before it is renamed
// over the path, the directory is synced after the rename, nothing but the
// rename touches the path, and a power cut at any of its write points leaves
// the old bytes or the new ones.
func TestAtomicWriteOrder(t *testing.T) {
	t.Run("commit", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "f")
		fs := &recordFS{}
		a, err := pager.CreateAtomic(fs, path)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []string{"new ", "bytes"} {
			if _, err := a.Write([]byte(chunk)); err != nil {
				t.Fatal(err)
			}
		}
		if want := []string{"create f.tmp"}; !reflect.DeepEqual(fs.log, want) {
			t.Fatalf("before Commit: %q, want %q", fs.log, want)
		}
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
		want := []string{"create f.tmp", "write f.tmp 9", "sync f.tmp", "close f.tmp", "rename f.tmp f", "syncdir " + filepath.Base(filepath.Dir(path))}
		if !reflect.DeepEqual(fs.log, want) {
			t.Fatalf("Commit ran %q, want %q", fs.log, want)
		}
		if got := readFile(t, path); got != "new bytes" {
			t.Fatalf("path holds %q", got)
		}
	})

	t.Run("abort and failed sync", func(t *testing.T) {
		for _, failSync := range []bool{false, true} {
			path := filepath.Join(t.TempDir(), "f")
			if err := pager.WriteFileAtomic(pager.OSFS{}, path, []byte("old")); err != nil {
				t.Fatal(err)
			}
			fs := &recordFS{failSync: failSync}
			a, err := pager.CreateAtomic(fs, path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Write([]byte("new")); err != nil {
				t.Fatal(err)
			}
			var want []string
			if failSync {
				if err := a.Commit(); !errors.Is(err, errSync) {
					t.Fatalf("Commit = %v, want the sync error", err)
				}
				want = []string{"create f.tmp", "write f.tmp 3", "sync f.tmp", "close f.tmp", "remove f.tmp"}
			} else {
				a.Abort()
				want = []string{"create f.tmp", "close f.tmp", "remove f.tmp"}
			}
			if !reflect.DeepEqual(fs.log, want) {
				t.Errorf("failSync=%v: ran %q, want %q", failSync, fs.log, want)
			}
			if got := readFile(t, path); got != "old" {
				t.Errorf("failSync=%v: path holds %q, want the old bytes", failSync, got)
			}
			if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
				t.Errorf("failSync=%v: temp left behind (%v)", failSync, err)
			}
		}
	})

	t.Run("power cut", func(t *testing.T) {
		var path string
		run := func(t *testing.T, k int64, clock *pagertest.PowerClock) error {
			path = filepath.Join(t.TempDir(), "f")
			if err := os.WriteFile(path, []byte("old bytes"), 0o644); err != nil {
				t.Fatal(err)
			}
			return pager.WriteFileAtomic(pagertest.NewFaultFS(pager.OSFS{}, clock), path, []byte("new bytes, longer"))
		}
		pagertest.Sweep(t, 4, nil, run, func(t *testing.T, k int64) {
			if got := readFile(t, path); got != "old bytes" && got != "new bytes, longer" {
				t.Errorf("path holds %q: neither the old bytes nor the new", got)
			}
		})
	})
}

// Every rename an AtomicFile commit makes is followed by a sync of the
// target's directory, on a recording FaultFS whose clock also ticks for the
// directory sync.
func TestAtomicCommitSyncsDir(t *testing.T) {
	clock := pagertest.NewPowerClock(0)
	fs := &pagertest.RecordFS{FS: pagertest.NewFaultFS(pager.OSFS{}, clock)}
	if err := pager.WriteFileAtomic(fs, filepath.Join(t.TempDir(), "f"), []byte("bytes")); err != nil {
		t.Fatal(err)
	}
	fs.CheckRenamesSynced(t)
	// create, write, sync, rename, syncdir
	if got := clock.Writes(); got != 5 {
		t.Errorf("the commit ticked the clock %d times, want 5", got)
	}
}

// A FaultFS rename is durable only once a SyncDir of its target's directory
// follows: a cut undoes the pending ones as the clock's Loss says, moving
// each back and restoring the file it replaced — TearLast undoes the older
// of two renames in one directory and keeps the later.
func TestFaultFSRenamesPendingUntilSyncDir(t *testing.T) {
	for _, tc := range []struct {
		name         string
		loss         pagertest.Loss
		synced       bool
		keepA, keepB bool
	}{
		{"lose-all", pagertest.LoseAll, false, false, false},
		{"tear-last", pagertest.TearLast, false, false, true},
		{"synced", pagertest.LoseAll, true, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
			for path, data := range map[string]string{a: "old a", a + ".tmp": "new a", b + ".tmp": "new b"} {
				if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			cutAt := int64(3)
			if tc.synced {
				cutAt++
			}
			clock := pagertest.NewPowerClock(cutAt)
			clock.SetLoss(tc.loss, 1)
			fs := pagertest.NewFaultFS(pager.OSFS{}, clock)
			if err := fs.Rename(a+".tmp", a); err != nil {
				t.Fatal(err)
			}
			if err := fs.Rename(b+".tmp", b); err != nil {
				t.Fatal(err)
			}
			if tc.synced {
				if err := fs.SyncDir(dir); err != nil {
					t.Fatal(err)
				}
			}
			if err := fs.MkdirAll(filepath.Join(dir, "x")); !errors.Is(err, pagertest.ErrPowerCut) {
				t.Fatalf("the cut operation returned %v, want ErrPowerCut", err)
			}
			wantA, wantTmpA := "old a", "new a"
			if tc.keepA {
				wantA, wantTmpA = "new a", ""
			}
			wantB, wantTmpB := "", "new b"
			if tc.keepB {
				wantB, wantTmpB = "new b", ""
			}
			for path, want := range map[string]string{a: wantA, a + ".tmp": wantTmpA, b: wantB, b + ".tmp": wantTmpB} {
				got, err := os.ReadFile(path)
				if want == "" {
					if !os.IsNotExist(err) {
						t.Errorf("%s exists after the cut (%q), want it gone", filepath.Base(path), got)
					}
					continue
				}
				if string(got) != want {
					t.Errorf("%s holds %q after the cut (%v), want %q", filepath.Base(path), got, err, want)
				}
			}
		})
	}
}

// TestFaultFSWritesPendingUntilSync: a file a FaultFS created keeps, after a
// cut, what its last Sync made durable plus what the loss keeps of the rest
// — nothing (LoseAll), a prefix (LoseSubset), or all but the torn second
// half of its last write (TearLast) — under the name a later rename gave
// it. A file no write reached after its Sync loses nothing.
func TestFaultFSWritesPendingUntilSync(t *testing.T) {
	for _, tc := range []struct {
		name   string
		loss   pagertest.Loss
		synced bool
		want   func(got string) bool
	}{
		{"lose-all", pagertest.LoseAll, false, func(got string) bool { return got == "durable" }},
		{"lose-subset", pagertest.LoseSubset, false, func(got string) bool {
			return strings.HasPrefix("durable+pending+cutting", got) && strings.HasPrefix(got, "durable")
		}},
		{"tear-last", pagertest.TearLast, false, func(got string) bool { return got == "durable+pending+cut" }},
		{"synced", pagertest.LoseAll, true, func(got string) bool { return got == "durable+pending" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			clock := pagertest.NewPowerClock(6)
			if tc.synced {
				clock = pagertest.NewPowerClock(7)
			}
			clock.SetLoss(tc.loss, 3)
			fs := pagertest.NewFaultFS(pager.OSFS{}, clock)
			path := filepath.Join(dir, "f.tmp")
			f, err := fs.Create(path) // write 1
			if err != nil {
				t.Fatal(err)
			}
			ops := []func() error{
				func() error { _, err := f.Write([]byte("durable")); return err },
				f.Sync,
				func() error { _, err := f.Write([]byte("+pending")); return err },
				func() error { return fs.Rename(path, filepath.Join(dir, "f")) },
				func() error { _, err := f.Write([]byte("+cutting")); return err }, // write 6
			}
			if tc.synced {
				ops[4] = f.Sync
				ops = append(ops, func() error { return fs.MkdirAll(filepath.Join(dir, "x")) })
			}
			for i, op := range ops {
				err := op()
				if cut := i == len(ops)-1; cut != errors.Is(err, pagertest.ErrPowerCut) {
					t.Fatalf("op %d returned %v (cut %v)", i+2, err, cut)
				}
			}
			f.Close()
			got, err := os.ReadFile(filepath.Join(dir, "f"))
			if err != nil {
				// LoseAll and LoseSubset may undo the rename too.
				got, err = os.ReadFile(path)
			}
			if err != nil || !tc.want(string(got)) {
				t.Fatalf("the crash image holds %q (%v)", got, err)
			}
		})
	}
}
