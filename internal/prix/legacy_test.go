package prix

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/docstore"
	"repro/internal/mvcc"
	"repro/internal/pager"
)

// legacyDir builds and closes a small dynamic index with one delete, the
// state a directory of the one-journal-per-file build is in after a clean
// close, minus its journals.
func legacyDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	di, err := NewDynamicIndex(parallelCorpus()[:6], Options{Extended: true, Dir: dir}, DynamicOptions{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := di.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := di.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// legacyHeader is page 0 of a per-file journal of the older format:
// magic(8) version(1) active(1) pad(2) seq(8) orig(4) crc(4).
func legacyHeader(active bool) []byte {
	page := make([]byte, pager.PageSize)
	copy(page, "PRIXJNL1")
	page[8] = 1
	if active {
		page[9] = 1
	}
	binary.LittleEndian.PutUint64(page[12:20], 7)
	binary.LittleEndian.PutUint32(page[20:24], 3)
	binary.LittleEndian.PutUint32(page[24:28], crc32.Checksum(page[:24], crc32.MakeTable(crc32.Castagnoli)))
	return page
}

// A directory the older build closed cleanly holds two empty per-file
// journals (or, after a crash past a commit, inactive ones): it opens as
// usual, and the open removes them.
func TestOpenRemovesLegacyJournals(t *testing.T) {
	dir := legacyDir(t)
	legacy := LegacyJournalFileNames
	if err := os.WriteFile(filepath.Join(dir, legacy[0]), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, legacy[1]), legacyHeader(false), 0o644); err != nil {
		t.Fatal(err)
	}
	di, err := OpenDynamic(dir, Options{Extended: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range legacy {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived the open (%v)", name, err)
		}
	}
}

// A per-file journal of the older build that still holds an open
// transaction is refused, naming the file: this build cannot roll it back,
// and opening past it would serve a torn commit.
func TestOpenRefusesActiveLegacyJournal(t *testing.T) {
	dir := legacyDir(t)
	path := filepath.Join(dir, LegacyJournalFileNames[1])
	if err := os.WriteFile(path, legacyHeader(true), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("Open = %v, want a refusal naming %s", err, path)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("the refused journal is gone: %v", err)
	}
}

// A version map the older build left with a pending op — a mutation whose
// forest half it may not have written — is refused, naming the op.
func TestOpenRefusesPendingOp(t *testing.T) {
	dir := legacyDir(t)
	var enc []byte
	editStore(t, dir, func(store *docstore.Store) {
		m, err := mvcc.DecodeMap(store.Blob(VersionsBlobName))
		if err != nil {
			t.Fatal(err)
		}
		enc, _ = m.AppendEncode(nil, nil)
		// The byte after the magic and the two counters is the pending-op
		// kind: a delete of document 1 at version 2, terminal 0.
		at := len("MVC2")
		for i := 0; i < 2; i++ {
			_, n := binary.Uvarint(enc[at:])
			at += n
		}
		op := []byte{1}
		for _, v := range []uint64{1, 2, 0} {
			op = binary.AppendUvarint(op, v)
		}
		enc = append(append(append([]byte{}, enc[:at]...), op...), enc[at+1:]...)
		store.SetBlob(VersionsBlobName, enc)
	})
	_, err := Open(dir, Options{})
	if !errors.Is(err, mvcc.ErrPendingOp) || !strings.Contains(err.Error(), "delete of document 1 at version 2") {
		t.Fatalf("Open = %v, want mvcc.ErrPendingOp naming the delete", err)
	}
}
