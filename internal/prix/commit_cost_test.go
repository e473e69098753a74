package prix

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/mvcc"
)

// TestCommitCosts pins what one committed mutation costs the device on the
// BenchmarkCommitUpdate corpus: an Insert + Flush, an Update, a Patch and a
// Delete each take at most four syncs — one commit through the journal both
// page files share — and fewer page writes than the three-flush protocol
// with one journal per file it replaced took on this workload (Insert +
// Flush 49.0, Update 55.5, Patch 58.9, Delete 24.0 pages at 8, 12, 12 and 12
// syncs). -v prints each operation's pages per file.
func TestCommitCosts(t *testing.T) {
	docs := append(datagen.DBLP(1, 1).Docs, datagen.SwissProt(2, 1).Docs...)[:3000]
	c := &fileCounter{}
	c.reset()
	di, err := NewDynamicIndex(docs, Options{
		Extended:        true,
		Dir:             t.TempDir(),
		BufferPoolPages: 256,
		OpenFile:        c.open,
	}, DynamicOptions{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	if err := di.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // the first mutation creates the version map
		if _, err := di.Update(uint32(i), variantDoc(docs[i], i)); err != nil {
			t.Fatal(err)
		}
	}
	patchOf := func(id uint32, salt int) *mvcc.Patch {
		a, err := di.ix.store.GetAny(id)
		if err != nil {
			t.Fatal(err)
		}
		di.mu.Lock()
		b, _, err := di.ix.prepareDocument(id, variantDoc(docs[id], salt))
		di.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		return mvcc.Diff(recPairs(a), recPairs(b), recLeaves(a), recLeaves(b), b.NumNodes)
	}
	const n = 8
	ops := []struct {
		name     string
		maxPages float64
		run      func(i int) error
	}{
		{"Insert + Flush", 49.0, func(i int) error {
			if err := di.Insert(variantDoc(docs[100+i], i)); err != nil {
				return err
			}
			return di.Flush()
		}},
		{"Update", 55.5, func(i int) error {
			id := 200 + i*37
			_, err := di.Update(uint32(id), variantDoc(docs[id], i))
			return err
		}},
		{"Patch", 58.9, func(i int) error {
			id := uint32(1200 + i*37)
			p := patchOf(id, i+1)
			c.reset() // the patch's own dictionary interning is not the mutation
			_, err := di.Patch(id, p)
			return err
		}},
		{"Delete", 24.0, func(i int) error {
			_, err := di.Delete(uint32(2200 + i*37))
			return err
		}},
	}
	for _, op := range ops {
		writes, syncs := map[string]int{}, 0
		for i := 0; i < n; i++ {
			c.reset()
			if err := op.run(i); err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
			opSyncs := total(c.syncs)
			if opSyncs > 4 {
				t.Errorf("%s %d: %d syncs %v, want at most 4", op.name, i, opSyncs, c.syncs)
			}
			syncs += opSyncs
			for name, k := range c.writes {
				writes[name] += k
			}
		}
		total := 0
		var cols []string
		for name, k := range writes {
			total += k
			cols = append(cols, fmt.Sprintf("%s %.1f", name, float64(k)/n))
		}
		sort.Strings(cols)
		pages := float64(total) / n
		t.Logf("%-14s %5.1f pages (%s), %.1f syncs", op.name, pages, strings.Join(cols, ", "), float64(syncs)/n)
		if pages >= op.maxPages {
			t.Errorf("%s writes %.1f pages, want fewer than %.1f", op.name, pages, op.maxPages)
		}
	}
}

// TestVersionPersistAllocs: a committed mutation re-encodes the version map
// into the index's kept buffer, so persisting the map allocates nothing, and
// a whole Delete allocates far less than the map's encoding (each commit
// encoded it into a fresh buffer, and sorted its ids in another, before).
func TestVersionPersistAllocs(t *testing.T) {
	docs := datagen.DBLP(1, 1).Docs
	di, err := NewDynamicIndex(docs[:8], Options{Extended: true, BufferPoolPages: 1024}, DynamicOptions{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	if _, err := di.Delete(0); err != nil { // creates the version map
		t.Fatal(err)
	}
	for _, doc := range docs[8:] { // every insert from here on is versioned
		if err := di.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	encoded := len(di.ix.versions.Encode())
	di.ix.repairMu.Lock()
	persist := testing.AllocsPerRun(20, func() {
		di.ix.versions.Counter++ // a changed map, so the blob is restaged
		di.ix.persistVersionsLocked()
	})
	di.ix.repairMu.Unlock()
	if persist != 0 {
		t.Fatalf("persisting a %d-byte version map allocates %.0f objects, want 0", encoded, persist)
	}
	const deletes = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for id := uint32(100); id < 100+deletes; id++ {
		if _, err := di.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perDelete := (after.TotalAlloc - before.TotalAlloc) / deletes
	t.Logf("a committed Delete allocates %d B; the map encodes to %d B", perDelete, encoded)
	if perDelete >= uint64(encoded)/2 {
		t.Fatalf("a committed Delete allocates %d B, want under half the %d-byte map encoding", perDelete, encoded)
	}
}

// TestStageCatalogsAllocs: every Flush, bulk load and compaction build
// restages the catalogs, and the posted set is encoded into a buffer the
// Index keeps, so staging an unchanged index allocates nothing (the set was
// encoded into a fresh slice each time before).
func TestStageCatalogsAllocs(t *testing.T) {
	ix, err := Build(datagen.DBLP(1, 1).Docs[:64], Options{Extended: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if got := testing.AllocsPerRun(20, ix.stageCatalogs); got != 0 {
		t.Fatalf("staging an unchanged index's catalogs allocates %.0f objects, want 0", got)
	}
}
