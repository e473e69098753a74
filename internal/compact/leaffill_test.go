package compact

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/pager"
	"repro/internal/prix"
	"repro/internal/xmltree"
)

// TestDynamicLeafFill guards what the trees of an insertable index cost
// after the writes that follow its bulk load. A dynamic index over DBLP and
// SWISSPROT is compacted once, so its post and docid trees are bulk loaded
// with slack, then takes a seeded batch of inserts and updates about the
// size of the mutate_mixed benchmark's writes after its last compaction.
// Its post leaves must be packed, cost at most 8 B a posting (6.2 B
// measured; spread labels cost 18.0 B, fixed 24-byte cells 28.5 B) and stay
// at least 65 % full (68.7 % measured), and its docid leaves must be packed
// too, at most 8 B an entry and at least 65 % full (5.6 B and 71.2 %
// measured over its two leaves, the last one filling by appends). Writes are
// labeled as chains above every label of the load, so a symbol's new
// postings land at the end of its run and the first one a leaf takes widens
// its cells: half the loaded post leaves split once (9 of 18), which is why
// the fill is lower than the 83.8 % spread labels scattered into the load's
// slack kept, at a third of their bytes. The index is compacted before any
// mutation, at version 0, so its docid leaves keep no room for tombstone
// versions (btree.Fill).
func TestDynamicLeafFill(t *testing.T) {
	seed, inserts := fillSeed(), mixDocs(7778)
	root := openFillRoot(t, seed)
	if _, err := root.Compact(context.Background(), CompactOptions{Retain: 200}); err != nil {
		t.Fatal(err)
	}
	forest := root.Index().Index().Forest()
	post := forest.Lookup("post")
	loaded, err := post.Shape()
	if err != nil {
		t.Fatal(err)
	}

	// 300 writes, 3 inserts to 2 updates, at seeded positions.
	const writes = 300
	for i := 0; i < writes; i++ {
		if i%5 < 3 {
			doc := inserts[(i*7919)%len(inserts)].Clone()
			doc.Number()
			err = root.Insert(doc)
		} else {
			id := uint32(i*7717) % uint32(len(seed))
			_, err = root.Update(id, editFirstValue(seed[id], i))
		}
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := root.Flush(); err != nil {
		t.Fatal(err)
	}
	if errs := forest.Check(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	if errs := root.Index().Index().CheckForest(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	s, err := post.Shape()
	if err != nil {
		t.Fatal(err)
	}
	perPosting := float64(s.Pages[len(s.Pages)-1]*pager.PageDataSize) / float64(s.Entries)
	t.Logf("post: %d leaves at %.1f %% fill after the compaction's load, %d leaves at %.1f %% after %d writes (%d leaf splits), %.1f B a posting",
		loaded.Pages[len(loaded.Pages)-1], 100*loaded.LeafFill, s.Pages[len(s.Pages)-1], 100*s.LeafFill, writes, forest.LeafSplits(), perPosting)
	if !strings.HasPrefix(s.LeafFormat, "packed ") || s.LeafFill < 0.65 || perPosting > 8 {
		t.Errorf("post leaves are %q at %.1f %% fill and %.1f B a posting, want packed at ≥ 65 %% and ≤ 8 B", s.LeafFormat, 100*s.LeafFill, perPosting)
	}
	d, err := forest.Lookup("docid").Shape()
	if err != nil {
		t.Fatal(err)
	}
	perEntry := float64(d.Pages[len(d.Pages)-1]*pager.PageDataSize) / float64(d.Entries)
	t.Logf("docid: %d leaves at %.1f %% fill after %d writes, %s, %.1f B an entry", d.Pages[len(d.Pages)-1], 100*d.LeafFill, writes, d.LeafFormat, perEntry)
	if !strings.HasPrefix(d.LeafFormat, "packed ") || d.LeafFill < 0.65 || perEntry > 8 {
		t.Errorf("docid leaves are %q at %.1f %% fill and %.1f B an entry, want packed at ≥ 65 %% and ≤ 8 B", d.LeafFormat, 100*d.LeafFill, perEntry)
	}
}

// mixDocs interleaves a scale-2 DBLP and SWISSPROT collection.
func mixDocs(seed int64) []*xmltree.Document {
	var out []*xmltree.Document
	dblp, sp := datagen.DBLP(2, seed).Docs, datagen.SwissProt(2, seed+1).Docs
	for i := 0; i < len(dblp) || i < len(sp); i++ {
		if i < len(dblp) {
			out = append(out, dblp[i])
		}
		if i < len(sp) {
			out = append(out, sp[i])
		}
	}
	return out
}

// fillSeed is every other document of mixDocs(1).
func fillSeed() []*xmltree.Document {
	var seed []*xmltree.Document
	for i, d := range mixDocs(1) {
		if i%2 == 0 {
			seed = append(seed, d)
		}
	}
	return seed
}

// openFillRoot builds a dynamic EPIndex of seed and opens it as a root.
func openFillRoot(t *testing.T, seed []*xmltree.Document) *Root {
	t.Helper()
	dir := t.TempDir()
	di, err := prix.NewDynamicIndex(seed, prix.Options{Dir: dir, Extended: true}, prix.DynamicOptions{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := di.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	root, err := OpenRoot(dir, prix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Close() })
	return root
}

// TestCompactedDocidLeavesHoldTombstones guards the room a compaction's
// docid load keeps for tombstone versions. An index that took 200 updates
// and deletes, scattered over its documents, is compacted with every
// tombstone retained; the compaction writes them into the freshly loaded
// docid leaves, and as many deletes again follow it. Neither splits a docid
// leaf: a leaf's first tombstone widens every cell by a version field, and
// a leaf loaded without that room splits into two part-empty ones.
func TestCompactedDocidLeavesHoldTombstones(t *testing.T) {
	seed := fillSeed()
	root := openFillRoot(t, seed)
	deleted := map[uint32]bool{}
	mutate := func(from, n int, updates bool) {
		t.Helper()
		for i := from; n > 0; i++ {
			id := uint32(i*7717) % uint32(len(seed))
			if deleted[id] {
				continue
			}
			n--
			var err error
			if updates && i%2 == 0 {
				_, err = root.Update(id, editFirstValue(seed[id], i))
			} else {
				deleted[id] = true
				_, err = root.Delete(id)
			}
			if err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
	}
	const writes = 200
	mutate(0, writes, true)
	if _, err := root.Compact(context.Background(), CompactOptions{Retain: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	forest := root.Index().Index().Forest()
	docid := forest.Lookup("docid")
	compacted, err := docid.Shape()
	if err != nil {
		t.Fatal(err)
	}
	tombs := len(docidTombstones(t, root))
	mutate(writes, tombs, false)
	if errs := forest.Check(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	s, err := docid.Shape()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("docid: %d leaves at %.1f %% fill, %s, after the compaction wrote %d tombstones; %d leaves at %.1f %%, %s, after %d more (%d leaf splits)",
		compacted.Pages[len(compacted.Pages)-1], 100*compacted.LeafFill, compacted.LeafFormat, tombs,
		s.Pages[len(s.Pages)-1], 100*s.LeafFill, s.LeafFormat, tombs, forest.LeafSplits())
	if tombs < writes/4 || forest.LeafSplits() != 0 || !slices.Equal(s.Pages, compacted.Pages) {
		t.Errorf("%d retained tombstones and as many deletes made %d leaf splits, the docid tree going from %v to %v pages",
			tombs, forest.LeafSplits(), compacted.Pages, s.Pages)
	}
}
