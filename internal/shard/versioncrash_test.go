package shard

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pager"
	"repro/internal/pager/pagertest"
	"repro/internal/prix"
	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

// The sharded half of the mutation crash sweep: a 2-shard × 2-replica
// layout whose shards are dynamic indexes, with a power cut at every write
// ordinal of a Delete and an Update against one shard. After recovery
// (journal rollback + pending-op redo inside OpenDynamic) and re-syncing
// the shard's replicas, the scatter-gather coordinator must serve exactly
// the pre- or the post-mutation global answer — never a torn mix — and
// AS OF at the pre-mutation version must answer the pre image on both
// sides of the cut.

var vcProbes = []string{`//a/b`, `//b/c`, `//d/e`, `//a`}

// vcCopyTree clones a directory tree (layout roots, replica dirs).
func vcCopyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info fs.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func vcCounts(t *testing.T, co *Coordinator, asOf uint64) []int {
	t.Helper()
	counts := make([]int, len(vcProbes))
	for i, src := range vcProbes {
		ms, _, err := co.Match(twig.MustParse(src), prix.MatchOptions{WarmCache: true, AsOf: asOf})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		counts[i] = len(ms)
	}
	return counts
}

func vcIntsEqual(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// vcVariant renames the first non-root element of a clone, forcing the
// update down the relabel path.
func vcVariant(d *xmltree.Document) *xmltree.Document {
	c := d.Clone()
	c.Number()
	for _, n := range c.Nodes {
		if !n.IsValue && n != c.Root {
			n.Label = n.Label + "vx"
			break
		}
	}
	return c
}

// vcDoc draws a document of n nodes over tags, its values from 300 strings.
func vcDoc(rng *rand.Rand, id, n int, tags ...string) *xmltree.Document {
	values := make([]string, 300)
	for i := range values {
		values[i] = fmt.Sprintf("w%d", i)
	}
	return xmltreetest.RandomDocument(rng, id, xmltreetest.RandomConfig{
		Nodes: n, Alphabet: tags, MaxFanout: 4, ValueProb: 0.4, Values: values,
	})
}

// vcBuildLayout writes a 2×2 sharded layout whose shards are dynamic
// indexes grown over the partition, shard 0 already carrying one update so
// its pre-mutation state has an addressable version.
func vcBuildLayout(t *testing.T, root string, docs []*xmltree.Document) {
	t.Helper()
	parts := Partition(docs, 2)
	if len(parts[0]) < 3 || len(parts[1]) < 1 {
		t.Fatalf("degenerate partition: %d/%d docs", len(parts[0]), len(parts[1]))
	}
	for s := 0; s < 2; s++ {
		di, err := prix.NewDynamicIndex(parts[s], prix.Options{
			Dir:             ReplicaDir(root, s, 0),
			Extended:        true,
			BufferPoolPages: 64,
		}, prix.DynamicOptions{Alpha: 4})
		if err != nil {
			t.Fatal(err)
		}
		if s == 0 {
			if _, err := di.Update(0, vcVariant(parts[0][0])); err != nil {
				t.Fatal(err)
			}
		}
		if err := di.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := di.Close(); err != nil {
			t.Fatal(err)
		}
		vcCopyTree(t, ReplicaDir(root, s, 0), ReplicaDir(root, s, 1))
	}
	topo := &Topology{
		Version:  1,
		Shards:   2,
		Replicas: 2,
		Extended: true,
		Docs:     uint32(len(docs)),
		Epoch:    42,
	}
	if err := topo.Save(pager.OSFS{}, root); err != nil {
		t.Fatal(err)
	}
}

func TestVersionCrashSweepSharded(t *testing.T) {
	base := t.TempDir()
	// Two copies of the corpus, the second relabelled, and 80 documents over
	// tags no probe names with values from 300 strings, so each shard's
	// postings tree spans several leaves and one update commit dirties many
	// of them (with one leaf per shard the sweep would cross a single page).
	// The update's content is a 120-node document over those values: dense
	// labels pack postings three times tighter than the spread labels the
	// two copies were sized for, and a 30-node update that crossed 51 write
	// ordinals over them crosses 31 over dense ones; this one crosses 58.
	docs := corpus()
	for _, d := range corpus() {
		docs = append(docs, vcVariant(d))
	}
	rng := rand.New(rand.NewSource(80))
	for i := 0; i < 80; i++ {
		docs = append(docs, vcDoc(rng, len(docs), 30, "f", "g", "h", "i"))
	}
	updated := vcDoc(rng, 1, 120, "a", "b", "c")
	pristine := filepath.Join(base, "pristine")
	vcBuildLayout(t, pristine, docs)

	shard0 := func(root string) string { return ReplicaDir(root, 0, 0) }
	dopts := prix.Options{Extended: true, BufferPoolPages: 64}

	muts := []struct {
		name string
		run  func(di *prix.DynamicIndex) error
	}{
		{"delete", func(di *prix.DynamicIndex) error { _, err := di.Delete(3); return err }},
		{"update", func(di *prix.DynamicIndex) error {
			_, err := di.Update(1, updated)
			return err
		}},
	}

	for _, mut := range muts {
		mut := mut
		t.Run(mut.name, func(t *testing.T) {
			// Reference: pre/post global answers through the coordinator.
			refRoot := filepath.Join(base, mut.name+"-ref")
			vcCopyTree(t, pristine, refRoot)
			co, err := Open(refRoot, prix.Options{BufferPoolPages: 64}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			pre := vcCounts(t, co, 0)
			if err := co.Close(); err != nil {
				t.Fatal(err)
			}
			di, err := prix.OpenDynamic(shard0(refRoot), dopts)
			if err != nil {
				t.Fatal(err)
			}
			preVersion := di.VersionStats().Current
			if err := mut.run(di); err != nil {
				t.Fatalf("reference %s: %v", mut.name, err)
			}
			postVersion := di.VersionStats().Current
			if err := di.Close(); err != nil {
				t.Fatal(err)
			}
			vcCopyTree(t, shard0(refRoot), ReplicaDir(refRoot, 0, 1))
			if co, err = Open(refRoot, prix.Options{BufferPoolPages: 64}, Config{}); err != nil {
				t.Fatal(err)
			}
			post := vcCounts(t, co, 0)
			if got := vcCounts(t, co, preVersion); !vcIntsEqual(got, pre) {
				t.Fatalf("reference AS OF %d = %v, want pre image %v", preVersion, got, pre)
			}
			co.Close()
			if vcIntsEqual(pre, post) {
				t.Fatalf("%s changed no probe answer; sweep would be vacuous", mut.name)
			}

			// The sweep cuts the mutation against shard 0 alone.
			cutRoot := func(k int64) string { return filepath.Join(base, fmt.Sprintf("%s-cut%d", mut.name, k)) }
			acked := false // the mutation returned before the cut
			run := func(t *testing.T, k int64, clock *pagertest.PowerClock) error {
				acked = false
				vcCopyTree(t, pristine, cutRoot(k))
				fo := dopts
				fo.OpenFile = pagertest.FaultOpen(clock)
				fdi, err := prix.OpenDynamic(shard0(cutRoot(k)), fo)
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
				// Reboot shard 0, re-sync its replicas, serve globally.
				root := cutRoot(k)
				rdi, err := prix.OpenDynamic(shard0(root), dopts)
				if err != nil {
					t.Fatalf("recovery open: %v", err)
				}
				v := rdi.VersionStats().Current
				if acked && v != postVersion {
					t.Errorf("the mutation returned before the cut, but shard 0 recovered at version %d, want %d", v, postVersion)
				}
				if err := rdi.Close(); err != nil {
					t.Fatal(err)
				}
				vcCopyTree(t, shard0(root), ReplicaDir(root, 0, 1))
				co, err := Open(root, prix.Options{BufferPoolPages: 64}, Config{})
				if err != nil {
					t.Fatalf("coordinator after cut: %v", err)
				}
				defer co.Close()
				got := vcCounts(t, co, 0)
				switch v {
				case preVersion:
					if !vcIntsEqual(got, pre) {
						t.Errorf("recovered at pre version %d but answers %v, want %v", v, got, pre)
					}
				case postVersion:
					if !vcIntsEqual(got, post) {
						t.Errorf("recovered at post version %d but answers %v, want %v", v, got, post)
					}
				default:
					t.Errorf("recovered at version %d, want %d or %d", v, preVersion, postVersion)
				}
				if gotPre := vcCounts(t, co, preVersion); !vcIntsEqual(gotPre, pre) {
					t.Errorf("AS OF %d after cut %d = %v, want %v", preVersion, k, gotPre, pre)
				}
			})
		})
	}
}
