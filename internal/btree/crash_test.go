package btree

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/pager"
	"repro/internal/pager/pagertest"
)

// btreeWorkload inserts batches of keys into a forest tree over a
// journaled pool, committing (Forest.Flush) after each batch. It returns
// how many batches committed cleanly. Keys are deterministic so recovered
// states can be checked against expected batch boundaries.
const crashBatches = 4
const crashBatchKeys = 30

func crashKey(i int) []byte { return KeyUint64(uint64(i)*7 + 1) }

func crashVal(i int) []byte { return []byte(fmt.Sprintf("v%d", i)) }

func btreeWorkload(main, journalFile pager.File) error {
	j, err := pager.NewJournal(journalFile, main)
	if err != nil {
		return err
	}
	bp, err := pager.NewJournaledPool(main, j, 8)
	if err != nil {
		return err
	}
	forest, err := Open(bp)
	if err != nil {
		return err
	}
	tr, err := forest.Tree("t")
	if err != nil {
		return err
	}
	for batch := 0; batch < crashBatches; batch++ {
		for i := 0; i < crashBatchKeys; i++ {
			k := batch*crashBatchKeys + i
			if err := tr.Insert(crashKey(k), crashVal(k)); err != nil {
				return err
			}
		}
		if err := forest.Flush(); err != nil {
			return err
		}
	}
	return bp.Close()
}

// TestBtreeCrashSweep cuts power at every write point of a batched B+-tree
// build and asserts that reopening always recovers a consistent tree holding
// exactly the keys of some committed batch prefix — the paper's index
// structures never come back half-built or silently wrong.
func TestBtreeCrashSweep(t *testing.T) {
	var mainMem, journalMem *pager.MemFile
	run := func(t *testing.T, k int64, clock *pagertest.PowerClock) error {
		mainMem, journalMem = pager.NewMemFile(), pager.NewMemFile()
		main, journalFile := pagertest.NewFaultFile(mainMem), pagertest.NewFaultFile(journalMem)
		main.SetPowerClock(clock)
		journalFile.SetPowerClock(clock)
		return btreeWorkload(main, journalFile)
	}
	pagertest.Sweep(t, 30, pagertest.TearEvery(2, 1021), run, func(t *testing.T, k int64) {
		// Reboot on the frozen images.
		j, err := pager.NewJournal(journalMem, mainMem)
		if err != nil {
			t.Fatalf("reopen journal: %v", err)
		}
		bp, err := pager.NewJournaledPool(mainMem, j, 8)
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		forest, err := Open(bp)
		if err != nil {
			t.Fatalf("reopen forest: %v", err)
		}
		if errs := forest.Check(); len(errs) != 0 {
			t.Fatalf("invariants violated after recovery: %v", errs[0])
		}

		// The tree must hold exactly the keys of a committed batch
		// prefix: 0, 30, 60, ... — anything else is a torn commit.
		var gotKeys int
		tr := forest.Lookup("t")
		if tr != nil {
			err := tr.Scan(nil, nil, true, true, func(key, val []byte) bool {
				want := crashKey(gotKeys)
				if string(key) != string(want) {
					t.Errorf("key %d mismatch", gotKeys)
				}
				if string(val) != string(crashVal(gotKeys)) {
					t.Errorf("value %d mismatch: %q", gotKeys, val)
				}
				gotKeys++
				return true
			})
			if err != nil {
				t.Fatalf("scan after recovery: %v", err)
			}
		}
		if gotKeys%crashBatchKeys != 0 || gotKeys > crashBatches*crashBatchKeys {
			t.Errorf("recovered %d keys: not a committed batch boundary", gotKeys)
		}
	})
}

// crashPackedKeys is the packed sweeps' batch size: 4 batches of entries
// about 160 bits wide in a packed leaf, about 400 to a full leaf, so the
// third batch splits a leaf inside a swept commit.
const crashPackedKeys = 150

// crashPackedEntry is a posting 162 bits wide in a packed leaf: scattered
// Lefts, scopes that wrap, scattered levels, three symbols.
func crashPackedEntry(i int) [2][]byte {
	left := uint64(i+1) * 0x9E3779B97F4A7C15
	scope := uint64(i)
	if i%2 == 1 {
		scope = math.MaxUint64 - scope
	}
	return postingEntry(uint32(i%3), left, left+scope, uint32(i)*2654435761)
}

// crashDocIDEntry is a Docid entry 160 bits wide in a packed leaf:
// scattered terminals and docIDs, every other one a tombstone of a
// scattered version.
func crashDocIDEntry(i int) [2][]byte {
	var tomb uint64
	if i%2 == 1 {
		tomb = uint64(i) * 0xBF58476D1CE4E5B9
	}
	return docIDEntry(uint64(i+1)*0x9E3779B97F4A7C15, uint32(i)*2654435761, tomb)
}

// packedWorkload inserts crashBatches batches of pc's entries into a packed
// tree over a journaled pool, each batch in a scrambled order and committed
// by Forest.Flush.
func packedWorkload(main, journalFile pager.File, pc packedCrash) error {
	j, err := pager.NewJournal(journalFile, main)
	if err != nil {
		return err
	}
	bp, err := pager.NewJournaledPool(main, j, 8)
	if err != nil {
		return err
	}
	forest, err := Open(bp)
	if err != nil {
		return err
	}
	tr, err := pc.newTree(forest, "t")
	if err != nil {
		return err
	}
	for batch := 0; batch < crashBatches; batch++ {
		for i := 0; i < crashPackedKeys; i++ {
			e := pc.entry(batch*crashPackedKeys + i*7%crashPackedKeys)
			if err := tr.Insert(e[0], e[1]); err != nil {
				return err
			}
		}
		if err := forest.Flush(); err != nil {
			return err
		}
	}
	return bp.Close()
}

// packedCrash is one layout's packed sweep: its tree and its i-th entry.
type packedCrash struct {
	newTree func(f *Forest, name string) (*Tree, error)
	entry   func(i int) [2][]byte
}

// TestBtreeCrashSweepPacked is the sweep over a packed postings tree's
// in-place inserts and splits by bits: every recovered tree must hold
// exactly the entries of a committed batch prefix, in key order, in packed
// leaves.
func TestBtreeCrashSweepPacked(t *testing.T) {
	packedCrashSweep(t, packedCrash{(*Forest).PackedTree, crashPackedEntry})
}

// TestBtreeCrashSweepPackedDocID is the same sweep over a packed Docid
// tree, tombstones among its entries.
func TestBtreeCrashSweepPackedDocID(t *testing.T) {
	packedCrashSweep(t, packedCrash{(*Forest).PackedDocIDTree, crashDocIDEntry})
}

func packedCrashSweep(t *testing.T, pc packedCrash) {
	var mainMem, journalMem *pager.MemFile
	run := func(t *testing.T, k int64, clock *pagertest.PowerClock) error {
		mainMem, journalMem = pager.NewMemFile(), pager.NewMemFile()
		main, journalFile := pagertest.NewFaultFile(mainMem), pagertest.NewFaultFile(journalMem)
		main.SetPowerClock(clock)
		journalFile.SetPowerClock(clock)
		return packedWorkload(main, journalFile, pc)
	}
	pagertest.Sweep(t, 30, pagertest.TearEvery(2, 1021), run, func(t *testing.T, k int64) {
		j, err := pager.NewJournal(journalMem, mainMem)
		if err != nil {
			t.Fatalf("reopen journal: %v", err)
		}
		bp, err := pager.NewJournaledPool(mainMem, j, 8)
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		forest, err := Open(bp)
		if err != nil {
			t.Fatalf("reopen forest: %v", err)
		}
		if errs := forest.Check(); len(errs) != 0 {
			t.Fatalf("invariants violated after recovery: %v", errs[0])
		}
		var got [][2][]byte
		tr := forest.Lookup("t")
		if tr != nil {
			err := tr.Scan(nil, nil, true, true, func(key, val []byte) bool {
				got = append(got, [2][]byte{bytes.Clone(key), bytes.Clone(val)})
				return true
			})
			if err != nil {
				t.Fatalf("scan after recovery: %v", err)
			}
		}
		if len(got)%crashPackedKeys != 0 || len(got) > crashBatches*crashPackedKeys {
			t.Fatalf("recovered %d entries: not a committed batch boundary", len(got))
		}
		want := make([][2][]byte, len(got))
		for i := range want {
			want[i] = pc.entry(i)
		}
		slices.SortFunc(want, func(a, b [2][]byte) int { return bytes.Compare(a[0], b[0]) })
		for i := range want {
			if !bytes.Equal(got[i][0], want[i][0]) || !bytes.Equal(got[i][1], want[i][1]) {
				t.Fatalf("entry %d of %d recovered is (%x, %x), want (%x, %x)", i, len(got), got[i][0], got[i][1], want[i][0], want[i][1])
			}
		}
		if len(got) > 0 {
			if s, err := tr.Shape(); err != nil || !strings.HasPrefix(s.LeafFormat, "packed ") || (len(got) > 2*crashPackedKeys) != (len(s.Pages) > 1) {
				t.Errorf("recovered tree of %d entries: %d levels of %q leaves (%v)", len(got), len(s.Pages), s.LeafFormat, err)
			}
		}
	})
}
