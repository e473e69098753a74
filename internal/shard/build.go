package shard

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/pager"
	"repro/internal/prix"
	"repro/internal/xmltree"
)

// BuildConfig parameterizes a sharded build.
type BuildConfig struct {
	// Shards is the partition count (≥ 1).
	Shards int
	// Replicas is the number of identical copies per shard (0 means 1).
	Replicas int
	// Extended selects EPIndex shards.
	Extended bool
	// BufferPoolPages is passed through to every shard index build.
	BufferPoolPages int
	// Epoch overrides the placement epoch (0 means the build timestamp).
	// Differential tests pin it so layouts built twice compare equal.
	Epoch uint64
}

// Partition splits a collection by ownership. The global docid of a
// document is its position in docs — the id a single index over the same
// slice would assign — so a document lands on Owner(position, shards), and
// within each part the documents stay in ascending global order (the order
// DocMaps assumes the builder used).
func Partition(docs []*xmltree.Document, shards int) [][]*xmltree.Document {
	parts := make([][]*xmltree.Document, shards)
	for g := range docs {
		s := Owner(uint32(g), shards)
		parts[s] = append(parts[s], docs[g])
	}
	return parts
}

// Build writes a complete sharded layout under root:
//
//	root/topology.json
//	root/shard-000/replica-000/{seq.idx,docs.db}
//	root/shard-000/replica-001/...
//	root/shard-001/...
//
// Each shard is built once (replica 0) through the ordinary index builder,
// then cloned byte-for-byte into the remaining replica directories —
// replicas are defined to be identical copies, and cloning the sealed page
// files is both cheaper than rebuilding and guarantees it.
func Build(root string, docs []*xmltree.Document, cfg BuildConfig) (*Topology, error) {
	return BuildStream(root, func() (func() (*xmltree.Document, error), error) {
		i := 0
		return func() (*xmltree.Document, error) {
			if i == len(docs) {
				return nil, io.EOF
			}
			i++
			return docs[i-1], nil
		}, nil
	}, cfg)
}

// BuildStream is Build for collections too large to hold in memory: source
// opens a fresh pass over the documents (yielding them one at a time until
// io.EOF), and the builder runs one pass per shard, keeping only the
// documents that shard owns. Global docids are stream positions, the ids a
// single index over the same documents would assign.
func BuildStream(root string, source func() (func() (*xmltree.Document, error), error), cfg BuildConfig) (*Topology, error) {
	topo, err := newTopology(cfg)
	if err != nil {
		return nil, err
	}
	pass := func(keep func(uint32) bool, add func(*prix.DocSeq) error) (uint32, error) {
		next, err := source()
		if err != nil {
			return 0, err
		}
		for g := uint32(0); ; g++ {
			doc, err := next()
			if errors.Is(err, io.EOF) {
				return g, nil
			}
			if err != nil {
				return g, fmt.Errorf("document %d: %w", g, err)
			}
			if !keep(g) {
				continue
			}
			ds, err := prix.Transform(g, doc, cfg.Extended)
			if err == nil {
				err = add(ds)
			}
			if err != nil {
				return g, err
			}
		}
	}
	opts := prix.Options{Extended: cfg.Extended, BufferPoolPages: cfg.BufferPoolPages}
	if err := BuildLayout(pager.OSFS{}, root, topo, opts, prix.BulkOptions{}, pass); err != nil {
		return nil, err
	}
	return topo, nil
}

// A Pass is one pass over a collection in global docid order: it hands add
// the Prüfer transform of every document keep accepts and returns how many
// documents it passed over. BuildLayout makes one pass per shard.
type Pass func(keep func(docID uint32) bool, add func(*prix.DocSeq) error) (uint32, error)

// BuildLayout writes topo's layout under root through fs: each shard's
// replica 0 is bulk-loaded with bo from one owner-filtered pass, the other
// replicas are cloned from it, and topology.json, the layout's commit
// record, is saved last. opts supplies every index option but Dir. The
// first pass sets topo.Docs, and every later pass must agree with it.
func BuildLayout(fs pager.FS, root string, topo *Topology, opts prix.Options, bo prix.BulkOptions, pass Pass) error {
	for s := 0; s < topo.Shards; s++ {
		opts.Dir = ReplicaDir(root, s, 0)
		n, err := BuildIndex(opts, bo, pass, func(g uint32) bool { return Owner(g, topo.Shards) == s })
		if err == nil && s > 0 && n != topo.Docs {
			err = fmt.Errorf("pass yielded %d documents, %d on pass 0", n, topo.Docs)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", Name(s), err)
		}
		topo.Docs = n
		for r := 1; r < topo.Replicas; r++ {
			if err := CloneReplica(fs, ReplicaDir(root, s, 0), ReplicaDir(root, s, r)); err != nil {
				return fmt.Errorf("%s replica %d: %w", Name(s), r, err)
			}
		}
	}
	return topo.Save(fs, root)
}

// BuildIndex bulk-loads one index at opts.Dir with bo from the documents of
// one pass that keep accepts, and returns how many documents the pass
// passed over. The index is committed and closed when it returns.
func BuildIndex(opts prix.Options, bo prix.BulkOptions, pass Pass, keep func(uint32) bool) (uint32, error) {
	b, err := prix.NewBuilder(opts)
	if err != nil {
		return 0, err
	}
	n, err := pass(keep, b.AddSeq)
	if err != nil {
		b.Abort()
		return 0, err
	}
	ix, err := b.FinalizeBulk(bo)
	if err != nil {
		return 0, err
	}
	return n, ix.Close()
}

// newTopology validates cfg and applies its defaults: one replica, and the
// build time as the placement epoch. Docs is left for the caller.
func newTopology(cfg BuildConfig) (*Topology, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: build needs at least 1 shard, got %d", cfg.Shards)
	}
	t := &Topology{Version: 1, Shards: cfg.Shards, Replicas: max(cfg.Replicas, 1), Extended: cfg.Extended, Epoch: cfg.Epoch}
	if t.Epoch == 0 {
		t.Epoch = uint64(time.Now().UnixNano())
	}
	return t, nil
}

// CloneReplica copies a closed index's durable page files from src into a
// fresh replica directory dst on fs, syncing each copy. Journals are not
// copied: they are transient and recreated empty on open.
func CloneReplica(fs pager.FS, src, dst string) error {
	if err := fs.MkdirAll(dst); err != nil {
		return err
	}
	for _, name := range []string{prix.ForestFileName, prix.DocsFileName} {
		if err := cloneFile(fs, filepath.Join(src, name), filepath.Join(dst, name)); err != nil {
			return err
		}
	}
	return nil
}

func cloneFile(fs pager.FS, src, dst string) error {
	in, err := fs.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := fs.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// Open loads a sharded layout built by Build and returns its serving
// coordinator. opts supplies per-replica runtime knobs (buffer pool size);
// the index kind comes from the topology. cfg.OpenReplicas caps how many
// replicas are opened per shard. The coordinator owns the opened indexes:
// Close releases them.
func Open(root string, opts prix.Options, cfg Config) (*Coordinator, error) {
	topo, err := LoadTopology(root)
	if err != nil {
		return nil, err
	}
	nrep := topo.Replicas
	if cfg.OpenReplicas > 0 && cfg.OpenReplicas < nrep {
		nrep = cfg.OpenReplicas
	}
	var opened []*prix.Index
	closeAll := func() {
		for _, ix := range opened {
			ix.Close()
		}
	}
	groups := make([][]prix.Source, topo.Shards)
	for s := 0; s < topo.Shards; s++ {
		for r := 0; r < nrep; r++ {
			dir := ReplicaDir(root, s, r)
			if cfg.ResolveDir != nil {
				// A compacted replica keeps its files under an epoch
				// subdirectory; the resolver follows its CURRENT pointer.
				if dir, err = cfg.ResolveDir(dir); err != nil {
					closeAll()
					return nil, fmt.Errorf("%s replica %d: %w", Name(s), r, err)
				}
			}
			ix, err := prix.Open(dir, prix.Options{
				Extended:        topo.Extended,
				BufferPoolPages: opts.BufferPoolPages,
			})
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("%s replica %d: %w", Name(s), r, err)
			}
			opened = append(opened, ix)
			groups[s] = append(groups[s], ix)
		}
	}
	c, err := NewCoordinator(topo, groups, cfg)
	if err != nil {
		closeAll()
		return nil, err
	}
	for _, ix := range opened {
		c.closers = append(c.closers, ix)
	}
	return c, nil
}

// BuildMemory builds an in-memory coordinator over the collection — the
// test and benchmark path. Replicas are built independently; the index
// build is deterministic, so R builds of the same documents are identical
// by construction.
func BuildMemory(docs []*xmltree.Document, cfg BuildConfig, runtime Config) (*Coordinator, error) {
	topo, err := newTopology(cfg)
	if err != nil {
		return nil, err
	}
	topo.Docs = uint32(len(docs))
	parts := Partition(docs, topo.Shards)
	groups := make([][]prix.Source, topo.Shards)
	for s := 0; s < topo.Shards; s++ {
		for r := 0; r < topo.Replicas; r++ {
			ix, err := prix.Build(parts[s], prix.Options{
				Extended:        cfg.Extended,
				BufferPoolPages: cfg.BufferPoolPages,
			})
			if err != nil {
				return nil, fmt.Errorf("%s replica %d: %w", Name(s), r, err)
			}
			groups[s] = append(groups[s], ix)
		}
	}
	return NewCoordinator(topo, groups, runtime)
}
