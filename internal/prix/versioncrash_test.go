package prix

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mvcc"
	"repro/internal/pager/pagertest"
	"repro/internal/twig"
)

// The crash-sweep-over-mutations property: a power cut at ANY write
// ordinal of a Delete, Update or Patch commit sequence must recover, on
// reopen, to exactly the pre-mutation or the post-mutation image — never a
// torn in-between — and AS OF queries at the pre-mutation version must
// answer identically on both sides of the cut. pagertest.Sweep cuts each
// mutation at every write k (every third cut tearing the final page
// write); each cut reopens through journal recovery.

// versionCrashQueries is the probe set; small so W runs stay fast while
// still spanning exact, branch and single-node shapes.
var versionCrashQueries = []string{`//a/b`, `//b/c`, `//a[./b][./d]`, `//a`}

// copyIndexDir clones the page and journal files of a closed index.
func copyIndexDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ForestFileName, DocsFileName, JournalFileName} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func versionCrashCounts(t *testing.T, di *DynamicIndex, asOf uint64) []int {
	t.Helper()
	counts := make([]int, len(versionCrashQueries))
	for i, src := range versionCrashQueries {
		ms, _, err := di.Match(twig.MustParse(src), MatchOptions{WarmCache: true, AsOf: asOf})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		counts[i] = len(ms)
	}
	return counts
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// versionCrashBaseline builds the swept index: the corpus plus one update,
// so the version map already exists and the pre-mutation state has an
// addressable version of its own. 33 documents, so the postings tree spans
// several leaves: with one leaf, the forest half of a commit would be a single
// page and the sweep would cross no multi-page commit at all. (Fixed-width
// leaves hold 340 postings where slotted ones held 272; 33 documents give the
// update the 82 write ordinals 26 gave it over slotted leaves.)
func versionCrashBaseline(t *testing.T, dir string) {
	t.Helper()
	docs := parallelCorpus()[:33]
	di, err := NewDynamicIndex(docs, Options{
		Dir:             dir,
		Extended:        true,
		BufferPoolPages: 64,
	}, DynamicOptions{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := di.Update(0, variantDoc(docs[0], 9)); err != nil {
		t.Fatal(err)
	}
	if err := di.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestVersionCrashSweepMutations(t *testing.T) {
	base := t.TempDir()
	pristine := filepath.Join(base, "pristine")
	versionCrashBaseline(t, pristine)

	// The patch workload ships doc 6 the content of doc 7, computed offline
	// from the baseline records so every symbol is already interned.
	var patch *mvcc.Patch
	{
		ix, err := Open(pristine, Options{BufferPoolPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		a, err := ix.store.Get(6)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ix.store.Get(7)
		if err != nil {
			t.Fatal(err)
		}
		patch = mvcc.Diff(recPairs(a), recPairs(b), recLeaves(a), recLeaves(b), b.NumNodes)
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// A 30-node replacement, so the update's new trie path lands postings in
	// most leaves of the postings tree.
	updated := variantDoc(parallelCorpus()[20], 3)
	muts := []struct {
		name string
		run  func(di *DynamicIndex) error
	}{
		{"delete", func(di *DynamicIndex) error { _, err := di.Delete(3); return err }},
		{"update", func(di *DynamicIndex) error { _, err := di.Update(4, updated); return err }},
		{"patch", func(di *DynamicIndex) error { _, err := di.Patch(6, patch); return err }},
	}

	for _, mut := range muts {
		mut := mut
		t.Run(mut.name, func(t *testing.T) {
			// Reference run: pre/post answers and versions, no faults.
			refDir := filepath.Join(base, mut.name+"-ref")
			copyIndexDir(t, pristine, refDir)
			di, err := OpenDynamic(refDir, Options{Extended: true, BufferPoolPages: 64})
			if err != nil {
				t.Fatal(err)
			}
			preVersion := di.VersionStats().Current
			pre := versionCrashCounts(t, di, 0)
			if err := mut.run(di); err != nil {
				t.Fatalf("reference %s: %v", mut.name, err)
			}
			postVersion := di.VersionStats().Current
			post := versionCrashCounts(t, di, 0)
			if postVersion != preVersion+1 {
				t.Fatalf("reference version %d -> %d, want +1", preVersion, postVersion)
			}
			if got := versionCrashCounts(t, di, preVersion); !intsEqual(got, pre) {
				t.Fatalf("reference AS OF %d = %v, want pre image %v", preVersion, got, pre)
			}
			if err := di.Close(); err != nil {
				t.Fatal(err)
			}
			if intsEqual(pre, post) {
				t.Fatalf("%s changed no probe answer; sweep would be vacuous", mut.name)
			}

			// The sweep's counting run learns W, the mutation's total write
			// ordinal count (open-time writes included; cuts there recover the
			// pre image).
			cutDir := func(k int64) string { return filepath.Join(base, fmt.Sprintf("%s-cut%d", mut.name, k)) }
			acked := false // the mutation returned before the cut
			run := func(t *testing.T, k int64, clock *pagertest.PowerClock) error {
				acked = false
				copyIndexDir(t, pristine, cutDir(k))
				fdi, err := OpenDynamic(cutDir(k), Options{
					Extended:        true,
					BufferPoolPages: 64,
					OpenFile:        pagertest.FaultOpen(clock),
				})
				if err != nil {
					return err
				}
				if err := mut.run(fdi); err != nil {
					return err
				}
				acked = true
				// Close writes past the commit (the journal's release), so a
				// cut there checks that the acknowledged mutation is durable.
				return fdi.Close()
			}
			pagertest.Sweep(t, 3, pagertest.TearEvery(3, 509), run, func(t *testing.T, k int64) {
				// Reboot on the frozen files: journal recovery runs inside
				// OpenDynamic.
				rdi, err := OpenDynamic(cutDir(k), Options{Extended: true, BufferPoolPages: 64})
				if err != nil {
					t.Fatalf("recovery open: %v", err)
				}
				defer rdi.Close()
				v := rdi.VersionStats().Current
				if acked && v != postVersion {
					t.Errorf("the mutation returned before the cut, but the index recovered at version %d, want %d", v, postVersion)
				}
				got := versionCrashCounts(t, rdi, 0)
				switch v {
				case preVersion:
					if !intsEqual(got, pre) {
						t.Errorf("recovered at pre version %d but answers %v, want %v", v, got, pre)
					}
				case postVersion:
					if !intsEqual(got, post) {
						t.Errorf("recovered at post version %d but answers %v, want %v", v, got, post)
					}
				default:
					t.Errorf("recovered at version %d, want %d or %d", v, preVersion, postVersion)
				}
				// AS OF the pre-mutation version answers the pre image on
				// either side of the cut.
				if gotPre := versionCrashCounts(t, rdi, preVersion); !intsEqual(gotPre, pre) {
					t.Errorf("AS OF %d after cut %d = %v, want %v", preVersion, k, gotPre, pre)
				}
			})
		})
	}
}
