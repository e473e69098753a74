package prix

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pager"
	"repro/internal/pager/pagertest"
	"repro/internal/twig"
	"repro/internal/xmltree"
)

// A forest rebuild that fails at any write of any of the three files never
// becomes durable. A write fault is an I/O error, not a crash: the process
// goes on, the fault heals, and the index is closed. If the rebuild failed
// part-way, the index refuses that commit and every other with
// ErrForestHalfWritten, so the reopen rolls the rebuild back and finds the
// pre-rebuild files byte for byte — unless a second RepairForest succeeded
// first, which lifts the refusal (tried at every other write point). Either
// way the reopened index answers like the brute-force oracle. It runs on a
// dynamic index, most of its documents chained, closed through its
// DynamicIndex (whose Close commits what its Flush stages), and on a Build
// output; both are relabeled exactly.
func TestFailedForestRebuildNeverCommits(t *testing.T) {
	for _, dynamic := range []bool{true, false} {
		t.Run(fmt.Sprintf("dynamic=%v", dynamic), func(t *testing.T) {
			// Enough documents that the rebuild, through a 4-page pool,
			// writes pages before its commit, and that a forest committed
			// half-written would answer short.
			docs := dynbulkDocs(200, 7)
			base := t.TempDir()
			pristine := filepath.Join(base, "pristine")
			opts := Options{Extended: true, BufferPoolPages: 16}
			if dynamic {
				o := opts
				o.Dir = pristine
				di, err := NewDynamicIndex(docs[:12], o, DynamicOptions{Alpha: 4})
				if err != nil {
					t.Fatal(err)
				}
				insertAll(t, di, docs[12:])
				if err := di.Close(); err != nil {
					t.Fatal(err)
				}
			} else {
				o := opts
				o.Dir = pristine
				ix, err := Build(docs, o)
				if err != nil {
					t.Fatal(err)
				}
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
			}
			pre := indexFiles(t, pristine)

			halfWritten := 0
			for _, target := range []string{ForestFileName, DocsFileName, JournalFileName} {
				for n := 0; ; n++ {
					if n == 5000 {
						t.Fatalf("%s: the rebuild still hits a write fault after %d writes", target, n)
					}
					dir := filepath.Join(base, fmt.Sprintf("%s-%d", target, n))
					copyIndexDir(t, pristine, dir)
					faults := map[string]*pagertest.FaultFile{}
					o := opts
					o.BufferPoolPages = 4 // the rebuild evicts, so its writes start before its commit
					o.OpenFile = func(path string) (pager.File, error) {
						f, err := pager.OpenOSFilePadded(path)
						if err != nil {
							return nil, err
						}
						ff := pagertest.NewFaultFile(f)
						faults[filepath.Base(path)] = ff
						return ff, nil
					}
					// A dynamic index is rebuilt under its DynamicIndex, whose
					// Close commits through Flush; a static one under Open.
					var ix *Index
					var closeIx func() error
					if dynamic {
						di, err := OpenDynamic(dir, o)
						if err != nil {
							t.Fatal(err)
						}
						ix, closeIx = di.Index(), di.Close
					} else {
						var err error
						if ix, err = Open(dir, o); err != nil {
							t.Fatal(err)
						}
						closeIx = ix.Close
					}
					faults[target].FailWritesAfter(n)
					_, rerr := ix.RepairForest()
					for _, ff := range faults {
						ff.Heal()
					}
					label := fmt.Sprintf("%s write %d", target, n)
					refused := errors.Is(rerr, ErrForestHalfWritten)
					retried := refused && n%2 == 1
					if refused {
						halfWritten++
						if retried {
							if _, err := ix.RepairForest(); err != nil {
								t.Fatalf("%s: RepairForest after the fault healed: %v", label, err)
							}
						} else if err := ix.Snapshot(filepath.Join(dir, "snap")); !errors.Is(err, ErrForestHalfWritten) {
							t.Fatalf("%s: Snapshot after a failed rebuild: %v, want ErrForestHalfWritten", label, err)
						}
					}
					cerr := closeIx()
					if refused && !retried {
						if !errors.Is(cerr, ErrForestHalfWritten) {
							t.Fatalf("%s: Close after a failed rebuild: %v, want ErrForestHalfWritten", label, cerr)
						}
					} else if cerr != nil {
						t.Fatalf("%s: Close (rebuild error %v): %v", label, rerr, cerr)
					}

					query := func(q *twig.Query) ([]Match, error) { ms, _, err := ix.Match(q, MatchOptions{}); return ms, err }
					var close func() error
					if dynamic {
						di, err := OpenDynamic(dir, opts)
						if err != nil {
							t.Fatalf("%s: reopen: %v", label, err)
						}
						query = func(q *twig.Query) ([]Match, error) { ms, _, err := di.Match(q, MatchOptions{}); return ms, err }
						close = di.Close
					} else {
						var err error
						if ix, err = Open(dir, opts); err != nil {
							t.Fatalf("%s: reopen: %v", label, err)
						}
						close = ix.Close
					}
					if refused && !retried && !sameFiles(indexFiles(t, dir), pre) {
						t.Errorf("%s: the reopened files are not the pre-rebuild image", label)
					}
					assertOracle(t, label, query, docs)
					if err := close(); err != nil {
						t.Fatal(err)
					}
					os.RemoveAll(dir)
					if rerr == nil {
						break // n passed the target's last write of the rebuild
					}
				}
			}
			if halfWritten == 0 {
				t.Fatal("no injected fault left the forest half-written; the refusal is untested")
			}
			t.Logf("%d of the write points left the forest half-written", halfWritten)
		})
	}
}

// indexFiles reads an index directory's two page files.
func indexFiles(t *testing.T, dir string) [2][]byte {
	t.Helper()
	var out [2][]byte
	for i, name := range []string{ForestFileName, DocsFileName} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
}

func sameFiles(a, b [2][]byte) bool { return bytes.Equal(a[0], b[0]) && bytes.Equal(a[1], b[1]) }

// assertOracle requires every dynRepairTwigs count that query answers to
// equal twig.CountBruteForce over docs.
func assertOracle(t *testing.T, label string, query func(*twig.Query) ([]Match, error), docs []*xmltree.Document) {
	t.Helper()
	for _, src := range dynRepairTwigs {
		q := twig.MustParse(src)
		ms, err := query(q)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, src, err)
		}
		if want := twig.CountBruteForce(q, docs); len(ms) != want {
			t.Errorf("%s: %s: %d matches, oracle %d", label, src, len(ms), want)
		}
	}
}
