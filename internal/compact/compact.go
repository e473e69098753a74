package compact

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/ingest"
	"repro/internal/mvcc"
	"repro/internal/pager"
	"repro/internal/prix"
	"repro/internal/shard"
)

// Options configures an offline compaction (and the drain/build halves of
// an online one).
type Options struct {
	// Dir is the index directory: an epoch root, or a plain index directory
	// that gets converted into one by its first compaction.
	Dir string
	// MemBudget bounds the bytes buffered before runs and spill chunks hit
	// disk; 0 means 32 MiB.
	MemBudget int64
	// BufferPoolPages sizes the page pools of the source and the rebuilt
	// index (0 = default).
	BufferPoolPages int
	// FS carries every non-page write (runs, CURRENT, renames, removals); nil means the OS. Crash-sweep tests inject pagertest.FaultFS
	// here.
	FS pager.FS
	// OpenFile optionally intercepts page-file opens (fault injection for
	// the rebuilt index's pages); nil means plain OS files.
	OpenFile func(path string) (pager.File, error)
	// HotBudget enables the compressed in-memory hot tier on the source and
	// every rebuilt epoch (see prix.Options.HotBudget); 0 disables it.
	HotBudget int64
	// Retain is the version-retention window: tombstones (deleted
	// documents) younger than Counter-Retain keep their content in the new
	// epoch for AS OF reads; older ones are reclaimed — their records
	// become stubs and their postings are dropped. 0 reclaims every
	// tombstone. Update back-pointer history is always folded away by a
	// compaction (the superseded images live in the old epoch's pages).
	Retain uint64
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MemBudget <= 0 {
		out.MemBudget = 32 << 20
	}
	if out.FS == nil {
		out.FS = pager.OSFS{}
	}
	return out
}

// Report summarizes one compaction.
type Report struct {
	// SourceDocs is the source's document count when the drain started.
	SourceDocs int `json:"source_docs"`
	// Docs is how many documents flowed through sealed drain runs.
	Docs uint32 `json:"docs"`
	// DeltaDocs is how many catch-up documents an online compaction
	// inserted into the new epoch during the freeze window.
	DeltaDocs int `json:"delta_docs,omitempty"`
	// Runs / RunBytes account the drain spool written by this invocation.
	Runs     int   `json:"runs"`
	RunBytes int64 `json:"run_bytes"`
	// Epoch / Dir identify the committed epoch.
	Epoch uint64 `json:"epoch"`
	Dir   string `json:"dir"`
	// Pause is the online freeze window (inserts blocked, swap performed).
	Pause time.Duration `json:"pause_ns,omitempty"`
	// Elapsed is the whole compaction's wall time; DrainElapsed,
	// BuildElapsed and PublishElapsed split it by phase — spooling the
	// source into runs, bulk-loading them (an online compaction's freeze-
	// window catch-up included), and everything from the publish rename to
	// the end of the cleanup.
	Elapsed        time.Duration `json:"elapsed_ns"`
	DrainElapsed   time.Duration `json:"drain_ns,omitempty"`
	BuildElapsed   time.Duration `json:"build_ns,omitempty"`
	PublishElapsed time.Duration `json:"publish_ns,omitempty"`
	// Skipped reports that a background Compactor found nothing changed
	// since its last compaction and did not run one.
	Skipped bool `json:"skipped,omitempty"`
	// Reclaimed counts documents whose content the compaction dropped —
	// tombstones older than the retention watermark, rewritten as stubs.
	Reclaimed int `json:"reclaimed,omitempty"`
	// Tombstones counts deleted documents whose content the new epoch
	// retained for AS OF reads (tombstones inside the retention window).
	Tombstones int `json:"tombstones,omitempty"`
}

// Compaction phases, in order, as an Aborted reports them.
const (
	phaseDrain   = "drain"
	phaseBuild   = "build"
	phasePublish = "publish"
)

// Aborted is the typed failure of a compaction: the phase that failed and
// the cause. An aborted compaction never committed, so the old layout keeps
// serving; what it wrote is debris the next OpenRoot, Run or Root.Compact
// deletes.
type Aborted struct {
	Phase string
	Err   error
}

func (a *Aborted) Error() string {
	return fmt.Sprintf("compact: aborted in %s phase (old epoch keeps serving): %v", a.Phase, a.Err)
}

func (a *Aborted) Unwrap() error { return a.Err }

// Run compacts the index at o.Dir from scratch, first deleting whatever an
// interrupted compaction left (see recoverRoot). The source must be offline
// (no concurrent writers); live indexes compact through Root.Compact
// instead.
func Run(o Options) (*Report, error) {
	o = o.withDefaults()
	fs, root := o.FS, o.Dir
	workdir := filepath.Join(root, WorkDirName)
	start := time.Now()

	srcEpoch, err := recoverRoot(fs, root)
	if err != nil {
		return nil, &Aborted{Phase: phaseDrain, Err: err}
	}
	srcDir := root
	if srcEpoch > 0 {
		srcDir = filepath.Join(root, EpochDirName(srcEpoch))
	}
	if err := fs.MkdirAll(workdir); err != nil {
		return nil, &Aborted{Phase: phaseDrain, Err: err}
	}
	src, err := openSource(srcDir, o)
	if err != nil {
		return nil, &Aborted{Phase: phaseDrain, Err: err}
	}
	sp := newSpool(src, o)
	rep := &Report{Epoch: srcEpoch + 1, Dir: filepath.Join(root, EpochDirName(srcEpoch+1))}
	docs, vm := src.dyn.VersionSnapshot()
	rep.SourceDocs = docs
	reclaimed := sp.pin(vm, o.Retain)
	if err := sp.drain(fs, workdir, src, uint32(docs), reclaimed, rep, nil); err != nil {
		src.dyn.Close()
		return nil, &Aborted{Phase: phaseDrain, Err: err}
	}
	if err := src.dyn.Close(); err != nil {
		return nil, &Aborted{Phase: phaseBuild, Err: err}
	}
	rep.Docs, rep.Runs = sp.docs, len(sp.runs)
	rep.Reclaimed, rep.Tombstones = versionCounts(sp.versions)
	buildStart := time.Now()
	built, err := sp.build(fs, workdir, o, nil)
	if err != nil {
		return nil, &Aborted{Phase: phaseBuild, Err: err}
	}
	if err := built.Close(); err != nil {
		return nil, &Aborted{Phase: phaseBuild, Err: err}
	}
	rep.BuildElapsed = time.Since(buildStart)

	publishStart := time.Now()
	if err := publishCommit(fs, root, workdir, rep.Epoch); err != nil {
		return nil, &Aborted{Phase: phasePublish, Err: err}
	}
	// Committed: the new epoch is the index, and the superseded layout and
	// the work directory are debris.
	if _, err := recoverRoot(fs, root); err != nil {
		return rep, fmt.Errorf("compact: post-commit cleanup (epoch %d is serving): %w", rep.Epoch, err)
	}
	rep.PublishElapsed = time.Since(publishStart)
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// source is an open compaction source and the drain that reads it.
type source struct {
	dyn   *prix.DynamicIndex
	drain *prix.Drain
}

func openSource(dir string, o Options) (*source, error) {
	dyn, err := prix.OpenDynamic(dir, prix.Options{BufferPoolPages: o.BufferPoolPages, OpenFile: o.OpenFile, HotBudget: o.HotBudget})
	if err != nil {
		return nil, err
	}
	return newSource(dyn), nil
}

func newSource(dyn *prix.DynamicIndex) *source {
	return &source{dyn: dyn, drain: dyn.Index().NewDrain()}
}

// spool is what one compaction drained: the build configuration read off
// the source, the sealed run files in replay order, the watermark they
// cover, and the version map pinned with them. It lives only as long as
// the compaction — a crash leaves its runs as debris for recoverRoot.
type spool struct {
	extended bool
	// budget decides run and spill-chunk boundaries.
	budget int64
	runs   []string
	// docs is the drain watermark: documents [0, docs) are in runs.
	docs uint32
	// muts is the source's mutation counter (MutOps) when versions was
	// pinned: runs drained under another mutation history are stale.
	muts uint64
	// versions is the collapsed version map the built epoch adopts
	// wholesale; nil when the source carries no version state.
	versions *mvcc.Map
}

func newSpool(src *source, o Options) *spool {
	return &spool{extended: src.dyn.Index().Extended(), budget: o.MemBudget}
}

// pin collapses a snapshot's version map under the retention window and
// pins the result, with the mutation counter it was taken at. The returned
// set lists reclaimed documents — the drain spools stubs for them instead
// of content.
func (sp *spool) pin(vm *mvcc.Map, retain uint64) map[uint32]bool {
	if vm == nil {
		sp.versions, sp.muts = nil, 0
		return nil
	}
	wm := uint64(0)
	if vm.Counter > retain {
		wm = vm.Counter - retain
	}
	collapsed, reclaimed, _ := vm.Collapse(wm)
	sp.versions, sp.muts = collapsed, vm.MutOps
	set := make(map[uint32]bool, len(reclaimed))
	for _, id := range reclaimed {
		set[id] = true
	}
	return set
}

// versionCounts derives the Report's reclaimed/tombstone tallies from the
// pinned map (before a build adopts it: the new epoch then owns and mutates
// it).
func versionCounts(vm *mvcc.Map) (reclaimed, tombstones int) {
	if vm == nil {
		return 0, 0
	}
	for _, ivs := range vm.Docs {
		if len(ivs) == 0 {
			continue
		}
		last := ivs[len(ivs)-1]
		switch {
		case last.Marker():
			reclaimed++
		case last.To != 0:
			tombstones++
		}
	}
	return reclaimed, tombstones
}

// docSeq reads one document out as the dictionary-free Prüfer transform it
// was built from — its stored record with the labels spelled out — so drain
// runs replay through the same machinery as streaming ingest.
func (s *source) docSeq(id uint32) (*prix.DocSeq, error) {
	ds, err := s.drain.DocSeq(id)
	if err != nil {
		return nil, fmt.Errorf("compact: drain document %d: %w", id, err)
	}
	return ds, nil
}

// drain spools documents [sp.docs, total) of the source into sealed run
// files and moves the watermark to total. Runs roll over at a quarter of
// the memory budget so the spool never needs more than one run's worth of
// buffered bytes.
func (sp *spool) drain(fs pager.FS, workdir string, src *source, total uint32, reclaimed map[uint32]bool, rep *Report, pace func() error) error {
	defer func(t time.Time) { rep.DrainElapsed += time.Since(t) }(time.Now())
	runLimit := sp.budget / 4
	if runLimit < 8<<10 {
		runLimit = 8 << 10
	}
	var w *ingest.RunWriter
	seal := func() error {
		if err := w.Seal(); err != nil {
			return err
		}
		rep.Runs++
		rep.RunBytes += w.Bytes()
		w = nil
		return nil
	}
	for id := sp.docs; id < total; id++ {
		if pace != nil {
			if err := pace(); err != nil {
				if w != nil {
					w.Abort()
				}
				return err
			}
		}
		var ds *prix.DocSeq
		var err error
		if reclaimed[id] {
			// Past the retention watermark: the document's content is
			// dropped — the stub keeps the docid stable with no postings,
			// and the marker interval keeps it invisible at every version.
			ds = prix.ReclaimedDocSeq(id)
		} else if ds, err = src.docSeq(id); err != nil {
			if w != nil {
				w.Abort()
			}
			return err
		}
		if w == nil {
			name := fmt.Sprintf("run-%04d", len(sp.runs))
			if w, err = ingest.NewRunWriter(fs, filepath.Join(workdir, name)); err != nil {
				return err
			}
			sp.runs = append(sp.runs, name)
		}
		if err := w.Add(ds); err != nil {
			w.Abort()
			return err
		}
		if w.Bytes() >= runLimit {
			if err := seal(); err != nil {
				return err
			}
		}
	}
	if w != nil {
		if err := seal(); err != nil {
			return err
		}
	}
	sp.docs = total
	return nil
}

// build replays the sealed runs into a fresh bulk-loaded index under
// workdir/next. It always starts from scratch — next/ and spill/ are
// removed first — and the bulk load is deterministic, so a rerun after a
// crash rebuilds the same index. pace, when set, throttles the replay (the
// online compactor's rate limit).
func (sp *spool) build(fs pager.FS, workdir string, o Options, pace func() error) (*prix.DynamicIndex, error) {
	nextDir := filepath.Join(workdir, nextDirName)
	spillDir := filepath.Join(workdir, spillDirName)
	for _, dir := range []string{nextDir, spillDir} {
		if err := fs.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := fs.MkdirAll(dir); err != nil {
			return nil, err
		}
	}
	popts := prix.Options{
		Extended:        sp.extended,
		Dir:             nextDir,
		BufferPoolPages: o.BufferPoolPages,
		OpenFile:        o.OpenFile,
		// The new epoch is built in-process and stays open through the swap,
		// so its tier is populated during the rewrite.
		HotBudget: o.HotBudget,
	}
	bo := prix.BulkOptions{Spill: prix.DirSpiller(fs, spillDir), MemBudget: sp.budget}
	replay := func(fn func(*prix.DocSeq) error) error {
		var next uint32
		for _, name := range sp.runs {
			r, err := ingest.OpenRun(fs, filepath.Join(workdir, name))
			if err != nil {
				return err
			}
			for {
				ds, err := r.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					r.Close()
					return err
				}
				if ds.DocID != next {
					r.Close()
					return fmt.Errorf("compact: %s: docid %d out of order (want %d)", name, ds.DocID, next)
				}
				next++
				if pace != nil {
					if err := pace(); err != nil {
						r.Close()
						return err
					}
				}
				if err := fn(ds); err != nil {
					r.Close()
					return err
				}
			}
			if err := r.Close(); err != nil {
				return err
			}
		}
		if next != sp.docs {
			return fmt.Errorf("compact: replayed %d docs, drain watermark is %d", next, sp.docs)
		}
		return nil
	}
	b, err := prix.NewBuilder(popts)
	if err != nil {
		return nil, err
	}
	if err := replay(b.AddSeq); err != nil {
		b.Abort()
		return nil, err
	}
	var version uint64
	if sp.versions != nil {
		version = sp.versions.Counter
	}
	di, err := b.FinalizeDynamic(bo, version)
	if err != nil {
		return nil, err
	}
	if err := sp.adopt(di.Index()); err != nil {
		di.Close()
		return nil, err
	}
	if err := fs.RemoveAll(spillDir); err != nil {
		di.Close()
		return nil, err
	}
	return di, nil
}

// adopt installs the pinned version map onto the freshly built epoch
// (tombstones are re-marked at the new terminals inside).
func (sp *spool) adopt(ix *prix.Index) error {
	if sp.versions == nil {
		return nil
	}
	return ix.AdoptVersions(sp.versions)
}

// publishCommit renames the finished build into its epoch directory, syncs
// the root so the rename is durable before anything points at it, and
// atomically flips the CURRENT pointer to it — the commit point.
func publishCommit(fs pager.FS, root, workdir string, epoch uint64) error {
	if err := fs.Rename(filepath.Join(workdir, nextDirName), filepath.Join(root, EpochDirName(epoch))); err != nil {
		return err
	}
	if err := fs.SyncDir(root); err != nil {
		return err
	}
	cur := &current{Version: 1, Epoch: epoch, Dir: EpochDirName(epoch)}
	return cur.save(fs, root)
}

// RunSharded compacts every replica of every shard under a sharded layout
// root, each into its own epoch-root conversion. Replica directories are
// self-contained indexes, so per-shard compaction is N×R independent
// offline compactions; a failure reports the replica it happened in and
// leaves that replica's old layout serving.
func RunSharded(root string, o Options) ([]*Report, error) {
	topo, err := shard.LoadTopology(root)
	if err != nil {
		return nil, err
	}
	var reps []*Report
	for s := 0; s < topo.Shards; s++ {
		for r := 0; r < topo.Replicas; r++ {
			so := o
			so.Dir = shard.ReplicaDir(root, s, r)
			rep, err := Run(so)
			if err != nil {
				return reps, fmt.Errorf("compact: %s replica %d: %w", shard.Name(s), r, err)
			}
			reps = append(reps, rep)
		}
	}
	return reps, nil
}
