package compact

import (
	"context"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/pager"
	"repro/internal/prix"
	"repro/internal/xmltree"
)

// TestDynamicLeafFill guards the slack BulkLoad leaves in the trees of an
// insertable index. A dynamic index over DBLP and SWISSPROT is compacted
// once, so its post and docid trees are bulk loaded, then takes a seeded
// batch of inserts and updates about the size of the mutate_mixed
// benchmark's writes after its last compaction. Its post leaves must be
// packed, stay at least 80 % full and cost at most 20 B a posting (83.8 %
// and 18.0 B measured; fixed 24-byte cells cost 28.5 B at 84.4 %), and its
// docid leaves at least 80 % full (91.3 % measured; 53.3 % when only the
// post tree's load left slack, since each loaded-full leaf's first
// scattered insert split it into two half-empty ones).
func TestDynamicLeafFill(t *testing.T) {
	mix := func(seed int64) []*xmltree.Document {
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
	var seed []*xmltree.Document
	for i, d := range mix(1) {
		if i%2 == 0 {
			seed = append(seed, d)
		}
	}
	inserts := mix(7778)
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
	defer root.Close()
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
	if !strings.HasPrefix(s.LeafFormat, "packed ") || s.LeafFill < 0.80 || perPosting > 20 {
		t.Errorf("post leaves are %q at %.1f %% fill and %.1f B a posting, want packed at ≥ 80 %% and ≤ 20 B", s.LeafFormat, 100*s.LeafFill, perPosting)
	}
	d, err := forest.Lookup("docid").Shape()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("docid: %d leaves at %.1f %% fill after %d writes", d.Pages[len(d.Pages)-1], 100*d.LeafFill, writes)
	if d.LeafFill < 0.80 {
		t.Errorf("docid leaves at %.1f %% fill, want ≥ 80 %%", 100*d.LeafFill)
	}
}
