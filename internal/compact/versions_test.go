package compact

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/prix"
	"repro/internal/twig"
	"repro/internal/xmltree/xmltreetest"
)

// The compaction half of the versioning contract: a compaction folds update
// history away and garbage-collects tombstones against the retention
// watermark. With Retain 0 every deleted document is reclaimed (record
// stubbed, postings dropped); with a window wider than the history every
// tombstone keeps its content so AS OF still answers the pre-delete image.
// Either way the latest answers must come through the epoch swap unchanged.

// versionSigs renders the full result set of every test query at one
// AS OF point.
func versionSigs(t *testing.T, r *Root, asOf uint64) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, qs := range testQueries {
		ms, stats, err := r.Match(twig.MustParse(qs), prix.MatchOptions{AsOf: asOf})
		if err != nil {
			t.Fatalf("%s asOf=%d: %v", qs, asOf, err)
		}
		if stats.Degraded {
			t.Fatalf("%s asOf=%d: degraded answer", qs, asOf)
		}
		var b strings.Builder
		for _, m := range ms {
			fmt.Fprintf(&b, "%d:%d:%v;", m.DocID, m.Root, m.Positions)
		}
		out[qs] = b.String()
	}
	return out
}

func sameSigs(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestCompactVersionRetention(t *testing.T) {
	docs := corpus(24)
	for _, tc := range []struct {
		name   string
		retain uint64
	}{
		{"reclaim-all", 0},
		{"retain-window", 64},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			buildDynamicDir(t, dir, docs)
			r, err := OpenRoot(dir, prix.Options{BufferPoolPages: 128})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()

			// One update first, so the pre-delete state has an addressable
			// version, then two deletes to grow tombstones.
			if _, err := r.Update(4, xmltreetest.MustFromSExpr(4, `(a (b (c "v2")) (x))`)); err != nil {
				t.Fatal(err)
			}
			preDeleteVersion := r.VersionStats().Current
			preDelete := versionSigs(t, r, 0)
			for _, id := range []uint32{3, 6} {
				if _, err := r.Delete(id); err != nil {
					t.Fatalf("delete %d: %v", id, err)
				}
			}
			latest := versionSigs(t, r, 0)
			if sameSigs(preDelete, latest) {
				t.Fatal("deletes changed no query answer; test would be vacuous")
			}
			if got := r.VersionStats().Tombstones; got != 2 {
				t.Fatalf("tombstones before compaction = %d, want 2", got)
			}

			rep, err := r.Compact(context.Background(), CompactOptions{Retain: tc.retain})
			if err != nil {
				t.Fatal(err)
			}
			wantReclaimed, wantKept := 2, 0
			if tc.retain > 0 {
				wantReclaimed, wantKept = 0, 2
			}
			if rep.Reclaimed != wantReclaimed || rep.Tombstones != wantKept {
				t.Fatalf("compaction reclaimed %d / retained %d tombstones, want %d / %d",
					rep.Reclaimed, rep.Tombstones, wantReclaimed, wantKept)
			}

			// The swap must not change a single latest answer, and the deleted
			// documents must stay gone.
			if got := versionSigs(t, r, 0); !sameSigs(got, latest) {
				t.Errorf("latest answers changed across compaction: %v vs %v", got, latest)
			}
			// Tombstone GC semantics at the pre-delete version: a retained
			// tombstone still serves the deleted content, a reclaimed one is a
			// stub and answers like the present.
			asOfPre := versionSigs(t, r, preDeleteVersion)
			if tc.retain > 0 {
				if !sameSigs(asOfPre, preDelete) {
					t.Errorf("AS OF %d after retaining compaction = %v, want pre-delete image %v",
						preDeleteVersion, asOfPre, preDelete)
				}
			} else {
				if !sameSigs(asOfPre, latest) {
					t.Errorf("AS OF %d after reclaiming compaction = %v, want latest %v (content reclaimed)",
						preDeleteVersion, asOfPre, latest)
				}
			}

			// The new epoch keeps accepting mutations with a continuous
			// version counter.
			before := r.VersionStats().Current
			if _, err := r.Delete(9); err != nil {
				t.Fatalf("delete after compaction: %v", err)
			}
			if got := r.VersionStats().Current; got != before+1 {
				t.Fatalf("version after post-compaction delete = %d, want %d", got, before+1)
			}
			afterDelete := versionSigs(t, r, 0)
			if sameSigs(afterDelete, latest) {
				t.Fatal("post-compaction delete changed no query answer")
			}

			// Durability: the epoch swap plus the extra delete survive a
			// close/reopen.
			if err := r.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenRoot(dir, prix.Options{BufferPoolPages: 128})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := versionSigs(t, re, 0); !sameSigs(got, afterDelete) {
				t.Errorf("reopened epoch answers %v, want %v", got, afterDelete)
			}
		})
	}
}

// docidTombstones scans the serving epoch's docid tree for delete markers.
func docidTombstones(t *testing.T, r *Root) map[uint32]uint64 {
	t.Helper()
	docid := r.Index().Index().Forest().Lookup("docid")
	if docid == nil {
		t.Fatal("no docid tree")
	}
	out := map[uint32]uint64{}
	err := docid.ScanDocIDs(nil, nil, true, true, func(_ uint64, id uint32, tomb uint64) bool {
		if tomb != 0 {
			out[id] = tomb
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// A document mutated before a compaction and deleted after it must still get
// its tombstone: the compaction collapses its history to one interval whose
// terminal has to be the rebuilt forest's, or Delete has no key to mark.
func TestDeleteAfterCompactionWritesTombstone(t *testing.T) {
	dir := t.TempDir()
	buildDynamicDir(t, dir, corpus(24))
	r, err := OpenRoot(dir, prix.Options{BufferPoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Update(4, xmltreetest.MustFromSExpr(4, `(a (b (c "v2")) (y (z)))`)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Compact(context.Background(), CompactOptions{Retain: 64}); err != nil {
		t.Fatal(err)
	}
	preDelete := versionSigs(t, r, 0)
	preDeleteVersion := r.VersionStats().Current
	v, err := r.Delete(4)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := docidTombstones(t, r)[4]; !ok || got != v {
		t.Fatalf("docid tree tombstone for document 4 = (%d, %v), want version %d", got, ok, v)
	}
	latest := versionSigs(t, r, 0)
	if sameSigs(latest, preDelete) {
		t.Fatal("the delete changed no answer; test would be vacuous")
	}
	if got := versionSigs(t, r, preDeleteVersion); !sameSigs(got, preDelete) {
		t.Errorf("AS OF %d after the delete = %v, want %v", preDeleteVersion, got, preDelete)
	}

	// The tombstone and the map survive a reopen.
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenRoot(dir, prix.Options{BufferPoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, ok := docidTombstones(t, re)[4]; !ok || got != v {
		t.Fatalf("after reopen: tombstone for document 4 = (%d, %v), want version %d", got, ok, v)
	}
	if got := versionSigs(t, re, 0); !sameSigs(got, latest) {
		t.Errorf("reopened answers %v, want %v", got, latest)
	}
	if err := re.Insert(xmltreetest.MustFromSExpr(24, `(a (b (c)) (d (e)))`)); err != nil {
		t.Fatalf("insert after reopen: %v", err)
	}
}

// ROADMAP 1(a), the metamorphic case: a document updated, carried across a
// retaining compaction and then relabelled by a second update must keep
// answering AS OF its pre-compaction version from the image it had then —
// plainly, and after a further delete. Two shapes: a structural change on a
// regular index, and a value-only change on an EPIndex — there the two images
// share one NPS, so Algorithm 2 cannot tell them apart and only the carried
// interval's terminal keeps the new trie path out of the old version.
func TestAsOfAcrossCompactionAfterRelabel(t *testing.T) {
	for _, tc := range []struct {
		name             string
		extended         bool
		first, second    string
		oldOnly, newOnly string
	}{
		{"structure", false, `(a (b (c "v2")) (y (z)))`, `(r (a (d (e))) (b))`, `//a/y/z`, `//r/a/d`},
		{"value-only-ep", true, `(a (b (c "v2")) (x))`, `(a (b (c "v3")) (x))`, `//b[./c="v2"]`, `//b[./c="v3"]`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			docs := corpus(24)
			di, err := prix.NewDynamicIndex(docs[:8], prix.Options{Dir: dir, BufferPoolPages: 128, Extended: tc.extended}, prix.DynamicOptions{Alpha: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, doc := range docs[8:] {
				if err := di.Insert(doc); err != nil {
					t.Fatal(err)
				}
			}
			if err := di.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := di.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := OpenRoot(dir, prix.Options{BufferPoolPages: 128})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			hits := func(qs string, asOf uint64) bool {
				t.Helper()
				ms, _, err := r.Match(twig.MustParse(qs), prix.MatchOptions{AsOf: asOf})
				if err != nil {
					t.Fatalf("%s asOf=%d: %v", qs, asOf, err)
				}
				for _, m := range ms {
					if m.DocID == 4 {
						return true
					}
				}
				return false
			}

			if _, err := r.Update(4, xmltreetest.MustFromSExpr(4, tc.first)); err != nil {
				t.Fatal(err)
			}
			v1 := r.VersionStats().Current
			atV1 := versionSigs(t, r, 0)
			if _, err := r.Compact(context.Background(), CompactOptions{Retain: 64}); err != nil {
				t.Fatal(err)
			}
			res, err := r.Update(4, xmltreetest.MustFromSExpr(4, tc.second))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Relabeled {
				t.Fatal("second update did not relabel; test would be vacuous")
			}
			v2 := r.VersionStats().Current
			atV2 := versionSigs(t, r, 0)
			check := func(when string) {
				t.Helper()
				if got := versionSigs(t, r, v1); !sameSigs(got, atV1) {
					t.Errorf("%s: AS OF %d (before the compaction) = %v, want %v", when, v1, got, atV1)
				}
				if got := versionSigs(t, r, v2); !sameSigs(got, atV2) {
					t.Errorf("%s: AS OF %d = %v, want %v", when, v2, got, atV2)
				}
				if !hits(tc.oldOnly, v1) || hits(tc.newOnly, v1) {
					t.Errorf("%s: AS OF %d document 4 answers %s: %v, %s: %v; want its first image",
						when, v1, tc.oldOnly, hits(tc.oldOnly, v1), tc.newOnly, hits(tc.newOnly, v1))
				}
				if hits(tc.oldOnly, v2) || !hits(tc.newOnly, v2) {
					t.Errorf("%s: AS OF %d document 4 answers %s: %v, %s: %v; want its second image",
						when, v2, tc.oldOnly, hits(tc.oldOnly, v2), tc.newOnly, hits(tc.newOnly, v2))
				}
			}
			check("after the relabel")
			if _, err := r.Delete(4); err != nil {
				t.Fatal(err)
			}
			check("after the delete")
			if hits(tc.oldOnly, 0) || hits(tc.newOnly, 0) {
				t.Error("deleted document 4 still answers latest reads")
			}
		})
	}
}

// A compaction that keeps tombstones re-marks them in the rebuilt docid tree;
// it must do so in a fixed order, so the same compaction of the same root
// writes the same bytes. Four copies of one mutated root are compacted at a
// retention window wider than their history, and every epoch file must come
// out byte-identical.
func TestCompactRetainedTombstonesDeterministic(t *testing.T) {
	src := t.TempDir()
	buildDynamicDir(t, src, corpus(300))
	var want map[string][]byte
	for i := 0; i < 4; i++ {
		dir := t.TempDir()
		copyTree(t, src, dir)
		r, err := OpenRoot(dir, prix.Options{BufferPoolPages: 128})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Update(4, xmltreetest.MustFromSExpr(4, `(a (b (c "v2")) (x))`)); err != nil {
			t.Fatal(err)
		}
		for _, id := range []uint32{3, 6} {
			if _, err := r.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := r.Compact(context.Background(), CompactOptions{Retain: 64})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Tombstones != 2 {
			t.Fatalf("copy %d: compaction retained %d tombstones, want 2", i, rep.Tombstones)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		got := snapshotDir(t, dir)
		if want == nil {
			want = got
			continue
		}
		sameSnapshots(t, want, got, fmt.Sprintf("copy %d", i))
	}
}
