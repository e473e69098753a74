package prix

import (
	"errors"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

// The metamorphic mutation suite: every mutation path (Delete, Update,
// Patch-through-Update, delete-then-reinsert) must leave the index
// answering queries exactly as a world where the mutation's outcome was
// the original input — insert-then-delete ≡ never-inserted, update(A→B) ≡
// a fresh index built from B. Equivalence is judged against the
// brute-force embedding oracle from the differential suite, over both
// index kinds, all nine differential shapes, ordered and unordered
// semantics, and parallelism 1 and 4. A second layer replays the mutation
// history through AS OF queries: the state at every recorded version must
// equal the corpus snapshot taken when that version was minted.

// variantDoc derives the "B" version of a document: one element tag
// renamed (forcing the relabel path) and, when present, one value
// rewritten (the record-patch path). Deterministic per (doc, salt).
func variantDoc(d *xmltree.Document, salt int) *xmltree.Document {
	c := d.Clone()
	c.Number()
	for _, n := range c.Nodes {
		if !n.IsValue && n != c.Root {
			n.Label = n.Label + "v" + strconv.Itoa(salt%3)
			break
		}
	}
	for _, n := range c.Nodes {
		if n.IsValue {
			n.Label = n.Label + strconv.Itoa(salt%5)
			break
		}
	}
	return c
}

// dynCorpusIndex grows a dynamic index over the corpus. dir may be empty
// (in-memory) or a directory for close/reopen scenarios.
func dynCorpusIndex(t testing.TB, dir string, extended bool, docs []*xmltree.Document) *DynamicIndex {
	t.Helper()
	di, err := NewDynamicIndex(docs, Options{
		Dir:             dir,
		Extended:        extended,
		BufferPoolPages: 256,
	}, DynamicOptions{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	return di
}

// metamorphicCount runs one differential shape against the dynamic index
// (Match for exact shapes, MatchExhaustive otherwise); skipped=true when
// the RP index legitimately refuses the query class.
func metamorphicCount(t *testing.T, di *DynamicIndex, src string, exact bool, opts MatchOptions) (int, bool) {
	t.Helper()
	q := twig.MustParse(src)
	var (
		ms  []Match
		err error
	)
	if exact {
		ms, _, err = di.Match(q, opts)
	} else {
		ms, _, err = di.Index().MatchExhaustive(q, opts)
	}
	if errors.Is(err, ErrNeedsExtendedIndex) && !di.Index().Extended() {
		return 0, true
	}
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return len(ms), false
}

// assertOracleEquivalent checks the index against the brute-force oracle
// over the effective corpus for every shape × semantics × parallelism.
func assertOracleEquivalent(t *testing.T, label string, di *DynamicIndex, effective []*xmltree.Document, asOf uint64) {
	t.Helper()
	for _, sh := range diffShapes {
		q := twig.MustParse(sh.src)
		wantOrd := bruteOrderedCount(q, effective)
		for _, par := range []int{1, 4} {
			opts := MatchOptions{WarmCache: true, Parallelism: par, AsOf: asOf}
			if got, skipped := metamorphicCount(t, di, sh.src, sh.exact, opts); !skipped && got != wantOrd {
				t.Errorf("%s: %s par=%d asOf=%d: %d matches, oracle %d",
					label, sh.src, par, asOf, got, wantOrd)
			}
		}
		if !sh.branches {
			continue // unordered == ordered without branches
		}
		wantUn := bruteUnorderedCount(q, effective)
		for _, par := range []int{1, 4} {
			opts := MatchOptions{WarmCache: true, Unordered: true, Parallelism: par, AsOf: asOf}
			if got, skipped := metamorphicCount(t, di, sh.src, sh.exact, opts); !skipped && got != wantUn {
				t.Errorf("%s: unordered %s par=%d asOf=%d: %d matches, oracle %d",
					label, sh.src, par, asOf, got, wantUn)
			}
		}
	}
}

// TestMetamorphicInsertDelete: inserting documents and then deleting them
// leaves an index equivalent to one that never saw them.
func TestMetamorphicInsertDelete(t *testing.T) {
	corpus := parallelCorpus()
	keep, extra := corpus[:30], corpus[30:]
	for _, extended := range []bool{false, true} {
		name := map[bool]string{false: "rp", true: "ep"}[extended]
		di := dynCorpusIndex(t, "", extended, keep)
		for _, d := range extra {
			if err := di.Insert(d); err != nil {
				t.Fatal(err)
			}
		}
		for id := len(keep); id < len(corpus); id++ {
			if _, err := di.Delete(uint32(id)); err != nil {
				t.Fatalf("delete %d: %v", id, err)
			}
		}
		assertOracleEquivalent(t, name+"/insert-then-delete", di, keep, 0)
		// Double delete must refuse, not corrupt.
		if _, err := di.Delete(uint32(len(keep))); !errors.Is(err, ErrDocDeleted) {
			t.Errorf("second delete: err = %v, want ErrDocDeleted", err)
		}
		di.Close()
	}
}

// TestMetamorphicUpdate: update(A→B) answers like a fresh index built
// from B, including after a close/reopen (versioned labeler replay).
func TestMetamorphicUpdate(t *testing.T) {
	corpus := parallelCorpus()
	updated := []int{1, 3, 5, 11, 20, 33}
	for _, extended := range []bool{false, true} {
		name := map[bool]string{false: "rp", true: "ep"}[extended]
		dir := t.TempDir()
		di := dynCorpusIndex(t, dir, extended, corpus)
		effective := append([]*xmltree.Document(nil), corpus...)
		for _, id := range updated {
			b := variantDoc(corpus[id], id)
			if _, err := di.Update(uint32(id), b); err != nil {
				t.Fatalf("update %d: %v", id, err)
			}
			effective[id] = b
		}
		assertOracleEquivalent(t, name+"/update", di, effective, 0)

		// The same check through a fresh index built from the B corpus:
		// counts must agree shape by shape, not just with the oracle.
		fresh := dynCorpusIndex(t, "", extended, effective)
		for _, sh := range diffShapes {
			opts := MatchOptions{WarmCache: true}
			got, skipA := metamorphicCount(t, di, sh.src, sh.exact, opts)
			want, skipB := metamorphicCount(t, fresh, sh.src, sh.exact, opts)
			if skipA != skipB || (!skipA && got != want) {
				t.Errorf("%s: %s: updated index %d matches, fresh-from-B %d", name, sh.src, got, want)
			}
		}
		fresh.Close()

		// Reopen: the labeler replay must reproduce the updated world.
		if err := di.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := di.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenDynamic(dir, Options{Extended: extended, BufferPoolPages: 256})
		if err != nil {
			t.Fatal(err)
		}
		assertOracleEquivalent(t, name+"/update-reopened", re, effective, 0)
		// And the reopened index still accepts mutations.
		if _, err := re.Update(uint32(updated[0]), corpus[updated[0]]); err != nil {
			t.Fatalf("update after reopen: %v", err)
		}
		effective[updated[0]] = corpus[updated[0]]
		assertOracleEquivalent(t, name+"/update-after-reopen", re, effective, 0)
		re.Close()
	}
}

// TestMetamorphicDeleteReinsert: deleting a document and inserting the
// same content back (as a new document id) round-trips to a corpus where
// the content simply moved.
func TestMetamorphicDeleteReinsert(t *testing.T) {
	corpus := parallelCorpus()
	victims := []int{0, 4, 17}
	for _, extended := range []bool{false, true} {
		name := map[bool]string{false: "rp", true: "ep"}[extended]
		di := dynCorpusIndex(t, "", extended, corpus)
		effective := append([]*xmltree.Document(nil), corpus...)
		next := len(corpus)
		for _, id := range victims {
			if _, err := di.Delete(uint32(id)); err != nil {
				t.Fatalf("delete %d: %v", id, err)
			}
			clone := corpus[id].Clone()
			clone.ID = next
			clone.Number()
			if err := di.Insert(clone); err != nil {
				t.Fatalf("reinsert %d: %v", id, err)
			}
			effective[id] = nil
			effective = append(effective, clone)
			next++
		}
		live := effective[:0:0]
		for _, d := range effective {
			if d != nil {
				live = append(live, d)
			}
		}
		assertOracleEquivalent(t, name+"/delete-reinsert", di, live, 0)
		di.Close()
	}
}

// TestMetamorphicAsOfReplay: a scripted mutation history is replayed
// through AS OF queries — the answer at every recorded version equals the
// brute-force oracle over the corpus snapshot recorded when that version
// was minted, before and after a close/reopen.
func TestMetamorphicAsOfReplay(t *testing.T) {
	corpus := parallelCorpus()[:20]
	dir := t.TempDir()
	di := dynCorpusIndex(t, dir, true, corpus)

	type snap struct {
		version uint64
		docs    []*xmltree.Document
	}
	live := map[int]*xmltree.Document{}
	for i, d := range corpus {
		live[i] = d
	}
	capture := func() snap {
		var docs []*xmltree.Document
		for i := 0; i < len(corpus)+8; i++ {
			if d, ok := live[i]; ok {
				docs = append(docs, d)
			}
		}
		return snap{version: di.VersionStats().Current, docs: docs}
	}

	// History starts at the first mutation: AsOf 0 means "latest", so the
	// pre-versioning state has no address of its own (it is visible inside
	// every version, legacy documents being unconditionally visible).
	var history []snap
	step := func() { history = append(history, capture()) }

	mustDelete := func(id int) {
		if _, err := di.Delete(uint32(id)); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
		delete(live, id)
		step()
	}
	mustUpdate := func(id, salt int) {
		b := variantDoc(live[id], salt)
		if _, err := di.Update(uint32(id), b); err != nil {
			t.Fatalf("update %d: %v", id, err)
		}
		live[id] = b
		step()
	}
	mustInsert := func(id int) {
		d := xmltreetest.MustFromSExpr(id, fmt.Sprintf(`(a (b (c "x%d")) (d (e)))`, id))
		if err := di.Insert(d); err != nil {
			t.Fatalf("insert %d: %v", id, err)
		}
		live[id] = d
		step()
	}

	mustDelete(2)
	mustUpdate(5, 1)
	mustUpdate(5, 2) // second update of the same document
	mustInsert(len(corpus))
	mustDelete(5) // delete an updated document
	mustUpdate(7, 3)
	mustDelete(len(corpus)) // delete a post-versioning insert
	mustInsert(len(corpus) + 1)

	verify := func(label string, idx *DynamicIndex) {
		for i, s := range history {
			assertOracleEquivalent(t, fmt.Sprintf("%s/step%d", label, i), idx, s.docs, s.version)
		}
		// AsOf past the newest version answers like the present.
		latest := history[len(history)-1]
		assertOracleEquivalent(t, label+"/future", idx, latest.docs, latest.version+10)
	}
	verify("live", di)
	if err := di.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDynamic(dir, Options{Extended: true, BufferPoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	verify("reopened", re)
}
