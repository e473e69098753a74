package compact

import (
	"errors"
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
	// disk; 0 means 32 MiB. It is pinned in the manifest: a resume under a
	// different budget is rejected rather than silently diverging.
	MemBudget int64
	// BufferPoolPages sizes the page pools of the source and the rebuilt
	// index (0 = default).
	BufferPoolPages int
	// FS carries every non-page write (runs, manifest, CURRENT, renames,
	// removals); nil means the OS. Crash-sweep tests inject pager.FaultFS
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
	// Dynamic reports the build mode (insertable dynamic vs static bulk).
	Dynamic bool `json:"dynamic"`
	// Pause is the online freeze window (inserts blocked, swap performed).
	Pause time.Duration `json:"pause_ns,omitempty"`
	// Elapsed is the whole compaction's wall time; DrainElapsed,
	// BuildElapsed and PublishElapsed split it by phase — spooling the
	// source into runs, bulk-loading them (an online compaction's freeze-
	// window catch-up included), and everything from the publish rename to
	// the end of the cleanup. A phase a resume skipped reads zero.
	Elapsed        time.Duration `json:"elapsed_ns"`
	DrainElapsed   time.Duration `json:"drain_ns,omitempty"`
	BuildElapsed   time.Duration `json:"build_ns,omitempty"`
	PublishElapsed time.Duration `json:"publish_ns,omitempty"`
	// Skipped reports that there was nothing to do (already compacted).
	Skipped bool `json:"skipped,omitempty"`
	// Reclaimed counts documents whose content the compaction dropped —
	// tombstones older than the retention watermark, rewritten as stubs.
	Reclaimed int `json:"reclaimed,omitempty"`
	// Tombstones counts deleted documents whose content the new epoch
	// retained for AS OF reads (tombstones inside the retention window).
	Tombstones int `json:"tombstones,omitempty"`
}

// Aborted is the typed failure of a compaction: the phase that failed and
// the cause. An aborted compaction never touches the serving epoch — the
// old layout keeps serving — and its work directory is preserved so a later
// Resume can pick up from the last checkpoint.
type Aborted struct {
	Phase string
	Err   error
}

func (a *Aborted) Error() string {
	return fmt.Sprintf("compact: aborted in %s phase (old epoch keeps serving): %v", a.Phase, a.Err)
}

func (a *Aborted) Unwrap() error { return a.Err }

func abortf(phase string, err error) error {
	var a *Aborted
	if errors.As(err, &a) {
		return err
	}
	return &Aborted{Phase: phase, Err: err}
}

// Run compacts the index at o.Dir from scratch, discarding any interrupted
// attempt's work directory first. The source must be offline (no concurrent
// writers); live indexes compact through Root.Compact instead.
func Run(o Options) (*Report, error) { return execute(o, false) }

// Resume continues an interrupted compaction from its manifest checkpoint:
// sealed drain runs are kept, the bulk build is redone from scratch (it is
// deterministic, so the result converges on the same bytes), and a
// compaction that had already published finishes its commit and cleanup.
// Returns ErrNoManifest when there is nothing to resume.
func Resume(o Options) (*Report, error) { return execute(o, true) }

// ResumeOrRun is the crash-recovery entry point: resume an interrupted
// compaction, report an already-completed one as Skipped, or start fresh if
// none was ever begun.
func ResumeOrRun(o Options) (*Report, error) {
	rep, err := Resume(o)
	if !errors.Is(err, ErrNoManifest) {
		return rep, err
	}
	od := o.withDefaults()
	if _, epoch, rerr := resolveDir(od.FS, od.Dir); rerr == nil && epoch > 0 {
		// No manifest but an epoch pointer: the previous compaction
		// committed and cleaned up. Nothing to recover.
		return &Report{Epoch: epoch, Dir: filepath.Join(od.Dir, EpochDirName(epoch)), Skipped: true}, nil
	}
	return Run(o)
}

// source is an open compaction source: always an inner *prix.Index, plus
// the dynamic wrapper when the index carries labeler replay state.
type source struct {
	dyn   *prix.DynamicIndex
	ix    *prix.Index
	drain *prix.Drain
}

func openSource(dir string, o Options) (*source, error) {
	popts := prix.Options{BufferPoolPages: o.BufferPoolPages, OpenFile: o.OpenFile, HotBudget: o.HotBudget}
	dyn, err := prix.OpenDynamic(dir, popts)
	if err == nil {
		return newSource(dyn, dyn.Index()), nil
	}
	if !errors.Is(err, prix.ErrNotDynamic) {
		return nil, err
	}
	ix, err := prix.Open(dir, popts)
	if err != nil {
		return nil, err
	}
	return newSource(nil, ix), nil
}

func newSource(dyn *prix.DynamicIndex, ix *prix.Index) *source {
	return &source{dyn: dyn, ix: ix, drain: ix.NewDrain()}
}

func (s *source) close() error {
	if s.dyn != nil {
		return s.dyn.Close()
	}
	return s.ix.Close()
}

// snapshot atomically pairs the source's document count with a deep copy
// of its version map (nil when versioning is off), so the drain watermark
// and the pinned map describe the same instant even under live writers.
func (s *source) snapshot() (int, *mvcc.Map) {
	if s.dyn != nil {
		return s.dyn.VersionSnapshot()
	}
	return s.ix.NumDocs(), s.ix.CloneVersions()
}

// pinVersions collapses the snapshot under the retention window and pins
// the result (plus the mutation counter it was taken at) in the manifest.
// The returned set lists reclaimed documents — the drain spools stubs for
// them instead of content.
func pinVersions(m *Manifest, vm *mvcc.Map, retain uint64) map[uint32]bool {
	if vm == nil {
		m.Versions, m.Muts = nil, 0
		return nil
	}
	wm := uint64(0)
	if vm.Counter > retain {
		wm = vm.Counter - retain
	}
	collapsed, reclaimed, _ := vm.Collapse(wm)
	m.Versions = collapsed.Encode()
	m.Muts = vm.MutOps
	set := make(map[uint32]bool, len(reclaimed))
	for _, id := range reclaimed {
		set[id] = true
	}
	return set
}

// versionCounts derives the Report's reclaimed/tombstone tallies from the
// pinned map (safe on resume paths that never recomputed the pin).
func versionCounts(enc []byte) (reclaimed, tombstones int) {
	if len(enc) == 0 {
		return 0, 0
	}
	vm, err := mvcc.DecodeMap(enc)
	if err != nil {
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

// adoptVersions installs the manifest's pinned version map onto the freshly
// built epoch (tombstones are re-marked at the new terminals inside).
func adoptVersions(m *Manifest, ix *prix.Index) error {
	if len(m.Versions) == 0 {
		return nil
	}
	vm, err := mvcc.DecodeMap(m.Versions)
	if err != nil {
		return fmt.Errorf("compact: pinned version map: %w", err)
	}
	return ix.AdoptVersions(vm)
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

// manifestFor derives the checkpoint configuration from an open source.
func manifestFor(src *source, srcEpoch uint64, o Options) *Manifest {
	m := &Manifest{
		Version:     1,
		Phase:       phaseDrain,
		SourceEpoch: srcEpoch,
		NextEpoch:   srcEpoch + 1,
		Dynamic:     src.dyn != nil,
		Extended:    src.ix.Extended(),
		MemBudget:   o.MemBudget,
		Retain:      o.Retain,
	}
	if src.dyn != nil {
		m.Alpha = src.dyn.Alpha()
		m.Spread = src.dyn.Spread()
	}
	return m
}

// execute is the offline phase machine. Every phase transition is
// checkpointed in the CRC-sealed manifest; drain progress is checkpointed
// per sealed run; the build is redone from scratch on resume (deterministic
// output); publish is one directory rename; commit is one atomic CURRENT
// write — the single point where the new epoch becomes the serving one.
func execute(o Options, resume bool) (*Report, error) {
	explicitBudget := o.MemBudget > 0
	o = o.withDefaults()
	fs := o.FS
	root := o.Dir
	workdir := filepath.Join(root, WorkDirName)
	start := time.Now()

	_, srcEpoch, err := resolveDir(fs, root)
	if err != nil {
		return nil, abortf(phaseDrain, err)
	}
	srcDir := root
	if srcEpoch > 0 {
		srcDir = filepath.Join(root, EpochDirName(srcEpoch))
	}

	var m *Manifest
	if resume {
		if m, err = loadManifest(fs, workdir); err != nil {
			return nil, err
		}
		switch {
		case m.SourceEpoch == srcEpoch:
		case m.NextEpoch == srcEpoch && (m.Phase == phasePublish || m.Phase == phaseDone):
			// CURRENT already points at the manifest's target epoch: the
			// commit landed but the crash hit before the phase-done save or
			// mid-cleanup. The compaction is effectively done — fall through
			// to re-enter publish (idempotent) and finish the cleanup.
		default:
			return nil, abortf(m.Phase, fmt.Errorf("compact: manifest compacts epoch %d but %d is serving", m.SourceEpoch, srcEpoch))
		}
		if !explicitBudget {
			// Startup recovery (OpenRoot → Recover) does not know what
			// budget the interrupted compaction ran under; the manifest pins
			// it, so adopt it instead of rejecting the resume over a phantom
			// drift. An explicit caller-supplied budget is still checked.
			o.MemBudget = m.MemBudget
		}
		if o.Retain == 0 {
			// Same adoption for the retention window: it decides which
			// documents drain as stubs, so resuming under a different value
			// would silently change the spool's contents.
			o.Retain = m.Retain
		}
	} else {
		if err := fs.RemoveAll(workdir); err != nil {
			return nil, abortf(phaseDrain, err)
		}
		// An uncommitted next-epoch directory (a failed publish whose CURRENT
		// write never happened) is debris: CURRENT never pointed at it, and a
		// fresh run under different options would otherwise collide with it.
		if err := fs.RemoveAll(filepath.Join(root, EpochDirName(srcEpoch+1))); err != nil {
			return nil, abortf(phaseDrain, err)
		}
		if err := fs.MkdirAll(workdir); err != nil {
			return nil, abortf(phaseDrain, err)
		}
	}

	nextEpoch := srcEpoch + 1
	if m != nil {
		nextEpoch = m.NextEpoch
	}
	rep := &Report{Epoch: nextEpoch, Dir: filepath.Join(root, EpochDirName(nextEpoch))}

	// A phasePublish manifest whose commit never landed (CURRENT still
	// names the source epoch) may only republish the pre-built epoch if the
	// source gained nothing since the build: a failed online publish
	// unfreezes inserts, and every document acknowledged after that failure
	// exists solely in the source. Root.Compact demotes the checkpoint
	// before unfreezing, but that demotion is itself a write that can fail,
	// so verify the watermark here too and fall back to re-draining.
	if m != nil && m.Phase == phasePublish && m.SourceEpoch == srcEpoch {
		src, err := openSource(srcDir, o)
		if err != nil {
			return nil, abortf(phasePublish, err)
		}
		docs := uint32(src.ix.NumDocs())
		if err := src.close(); err != nil {
			return nil, abortf(phasePublish, err)
		}
		if docs > m.Docs+m.DeltaDocs {
			// The stale build must go: its epoch directory (if the publish
			// rename happened) would otherwise satisfy the idempotent-publish
			// probe and commit without the post-failure documents.
			if err := fs.RemoveAll(filepath.Join(root, EpochDirName(m.NextEpoch))); err != nil {
				return nil, abortf(phasePublish, err)
			}
			m.Phase = phaseBuild
			m.DeltaDocs = 0
			if err := m.save(fs, workdir); err != nil {
				return nil, abortf(phasePublish, err)
			}
		}
	}

	// Drain + build need the source; publish/done never reopen it, so a
	// resume after the swap point cannot be blocked by source damage.
	if m == nil || m.Phase == phaseDrain || m.Phase == phaseBuild {
		src, err := openSource(srcDir, o)
		if err != nil {
			return nil, abortf(phaseDrain, err)
		}
		if m == nil {
			m = manifestFor(src, srcEpoch, o)
			if err := m.save(fs, workdir); err != nil {
				src.close()
				return nil, abortf(phaseDrain, err)
			}
		} else if err := m.matches(manifestFor(src, srcEpoch, o)); err != nil {
			src.close()
			return nil, abortf(m.Phase, err)
		}
		rep.Dynamic = m.Dynamic
		docs, vm := src.snapshot()
		rep.SourceDocs = docs
		total := uint32(docs)
		muts := uint64(0)
		if vm != nil {
			muts = vm.MutOps
		}
		// Re-enter drain when documents landed past the watermark (an online
		// compaction interrupted between drain and publish): the build phase
		// restarts from scratch anyway, so extending the run spool is safe.
		// A drifted mutation counter invalidates every sealed run — a drained
		// document's content (or reclaim status) may have changed — so the
		// spool restarts from scratch under a freshly pinned map.
		if m.Phase == phaseDrain || total > m.Docs || muts != m.Muts {
			if muts != m.Muts {
				m.Runs = nil
				m.Docs = 0
			}
			reclaimed := pinVersions(m, vm, o.Retain)
			m.Phase = phaseDrain
			if err := drain(fs, workdir, m, src, total, reclaimed, rep, nil); err != nil {
				src.close()
				return nil, abortf(phaseDrain, err)
			}
			m.Docs = total
			m.Phase = phaseBuild
			if err := m.save(fs, workdir); err != nil {
				src.close()
				return nil, abortf(phaseDrain, err)
			}
		}
		if err := src.close(); err != nil {
			return nil, abortf(phaseBuild, err)
		}
		buildStart := time.Now()
		built, _, err := build(fs, workdir, m, o, nil)
		if err != nil {
			return nil, abortf(phaseBuild, err)
		}
		if err := built.close(); err != nil {
			return nil, abortf(phaseBuild, err)
		}
		rep.BuildElapsed = time.Since(buildStart)
		m.Phase = phasePublish
		if err := m.save(fs, workdir); err != nil {
			return nil, abortf(phaseBuild, err)
		}
	} else {
		rep.Dynamic = m.Dynamic
		rep.SourceDocs = int(m.Docs)
	}
	rep.Docs = m.Docs
	rep.Runs = len(m.Runs)
	rep.Reclaimed, rep.Tombstones = versionCounts(m.Versions)

	publishStart := time.Now()
	if m.Phase == phasePublish {
		if err := publishCommit(fs, root, workdir, m); err != nil {
			return nil, abortf(phasePublish, err)
		}
		m.Phase = phaseDone
		if err := m.save(fs, workdir); err != nil {
			return nil, abortf(phasePublish, err)
		}
	}
	if err := cleanup(fs, root, workdir, m.SourceEpoch); err != nil {
		return nil, abortf(phaseDone, err)
	}
	rep.PublishElapsed = time.Since(publishStart)
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// drain spools documents [watermark, total) of the source into sealed run
// files, checkpointing the manifest after every seal. Runs roll over at a
// quarter of the memory budget so the spool never needs more than one
// run's worth of buffered bytes.
func drain(fs pager.FS, workdir string, m *Manifest, src *source, total uint32, reclaimed map[uint32]bool, rep *Report, pace func() error) error {
	defer func(t time.Time) { rep.DrainElapsed += time.Since(t) }(time.Now())
	drained := uint32(0)
	for _, r := range m.Runs {
		drained += r.Docs
	}
	if drained >= total {
		return nil
	}
	// Unsealed runs and stale build output are debris from a crash.
	if err := clearDebris(fs, workdir, m); err != nil {
		return err
	}
	runLimit := m.MemBudget / 4
	if runLimit < 8<<10 {
		runLimit = 8 << 10
	}
	var w *ingest.RunWriter
	var name string
	seal := func() error {
		crc, err := w.Seal()
		if err != nil {
			return err
		}
		m.Runs = append(m.Runs, RunInfo{Name: name, Docs: w.Docs(), CRC: crc})
		rep.Runs++
		rep.RunBytes += w.Bytes()
		w = nil
		return m.save(fs, workdir)
	}
	for id := drained; id < total; id++ {
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
			name = fmt.Sprintf("run-%04d", len(m.Runs))
			if w, err = ingest.NewRunWriter(fs, filepath.Join(workdir, name)); err != nil {
				return err
			}
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
		return seal()
	}
	return nil
}

// built is the output of the build phase: exactly one of dyn/ix is set.
type built struct {
	dyn *prix.DynamicIndex
	ix  *prix.Index
}

func (b *built) close() error {
	if b.dyn != nil {
		return b.dyn.Close()
	}
	return b.ix.Close()
}

// build replays the sealed runs into a fresh bulk-loaded index under
// workdir/next. It always starts from scratch — next/ and spill/ are
// removed first — because the bulk load is deterministic: redoing it after
// a crash converges on byte-identical files, which is cheaper and simpler
// than checkpointing a half-built B+-tree. pace, when set, throttles the
// replay (the online compactor's rate limit).
func build(fs pager.FS, workdir string, m *Manifest, o Options, pace func() error) (*built, uint32, error) {
	nextDir := filepath.Join(workdir, nextDirName)
	spillDir := filepath.Join(workdir, spillDirName)
	for _, dir := range []string{nextDir, spillDir} {
		if err := fs.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
		if err := fs.MkdirAll(dir); err != nil {
			return nil, 0, err
		}
	}
	popts := prix.Options{
		Extended:        m.Extended,
		Dir:             nextDir,
		BufferPoolPages: o.BufferPoolPages,
		OpenFile:        o.OpenFile,
		// The new epoch is built in-process and stays open through the swap,
		// so its tier is populated during the rewrite.
		HotBudget: o.HotBudget,
	}
	bo := prix.BulkOptions{Spill: prix.DirSpiller(fs, spillDir), MemBudget: m.MemBudget}
	replay := func(fn func(*prix.DocSeq) error) error {
		var next uint32
		for _, ri := range m.Runs {
			r, err := ingest.OpenRun(fs, filepath.Join(workdir, ri.Name))
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
					return fmt.Errorf("compact: %s: docid %d out of order (want %d)", ri.Name, ds.DocID, next)
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
			if r.Docs() != ri.Docs || r.SealCRC() != ri.CRC {
				r.Close()
				return fmt.Errorf("compact: %s: run drifted from manifest (docs %d/%d, crc %08x/%08x)",
					ri.Name, r.Docs(), ri.Docs, r.SealCRC(), ri.CRC)
			}
			if err := r.Close(); err != nil {
				return err
			}
		}
		if next != m.Docs {
			return fmt.Errorf("compact: replayed %d docs, manifest watermark is %d", next, m.Docs)
		}
		return nil
	}
	if m.Dynamic {
		di, err := prix.BulkLoadDynamic(popts, prix.DynamicOptions{Alpha: m.Alpha, Spread: m.Spread}, bo, replay)
		if err != nil {
			return nil, 0, err
		}
		if err := adoptVersions(m, di.Index()); err != nil {
			di.Close()
			return nil, 0, err
		}
		if err := fs.RemoveAll(spillDir); err != nil {
			di.Close()
			return nil, 0, err
		}
		return &built{dyn: di}, m.Docs, nil
	}
	b, err := prix.NewBuilder(popts)
	if err != nil {
		return nil, 0, err
	}
	if err := replay(func(ds *prix.DocSeq) error { return b.AddSeq(ds) }); err != nil {
		b.Abort()
		return nil, 0, err
	}
	ix, err := b.FinalizeBulk(bo)
	if err != nil {
		return nil, 0, err
	}
	if err := adoptVersions(m, ix); err != nil {
		ix.Close()
		return nil, 0, err
	}
	if err := fs.RemoveAll(spillDir); err != nil {
		ix.Close()
		return nil, 0, err
	}
	return &built{ix: ix}, m.Docs, nil
}

// publishCommit renames the finished build into its epoch directory and
// atomically flips the CURRENT pointer to it. The rename is idempotent
// across a crash (an existing, complete epoch directory is kept — only a
// finished build is ever renamed, so presence implies completeness) and the
// pointer write is the commit point.
func publishCommit(fs pager.FS, root, workdir string, m *Manifest) error {
	epochDir := filepath.Join(root, EpochDirName(m.NextEpoch))
	if probe, err := fs.Open(filepath.Join(epochDir, prix.ForestFileName)); err == nil {
		probe.Close()
	} else {
		// Only a finished build is ever renamed into place, so an epoch
		// directory without its forest file is debris (an interrupted
		// publish rollback's half-removed tree); clear it or the rename
		// fails with ENOTEMPTY forever.
		if err := fs.RemoveAll(epochDir); err != nil {
			return err
		}
		if err := fs.Rename(filepath.Join(workdir, nextDirName), epochDir); err != nil {
			return err
		}
	}
	cur := &current{Version: 1, Epoch: m.NextEpoch, Dir: EpochDirName(m.NextEpoch)}
	return cur.save(fs, root)
}

// cleanup removes the superseded layout (the previous epoch directory, or
// the plain page files of a just-converted root) and the work directory.
// It runs only after commit and is idempotent — a crash mid-cleanup resumes
// here and re-deletes whatever is left.
func cleanup(fs pager.FS, root, workdir string, srcEpoch uint64) error {
	if srcEpoch > 0 {
		if err := fs.RemoveAll(filepath.Join(root, EpochDirName(srcEpoch))); err != nil {
			return err
		}
	} else {
		for _, name := range []string{
			prix.ForestFileName, prix.DocsFileName,
			prix.ForestJournalFileName, prix.DocsJournalFileName,
		} {
			if err := fs.Remove(filepath.Join(root, name)); err != nil && !isNotExist(err) {
				return err
			}
		}
	}
	return fs.RemoveAll(workdir)
}

// RunSharded compacts every replica of every shard under a sharded layout
// root, each into its own epoch-root conversion. Replica directories are
// self-contained indexes, so per-shard compaction is N×R independent
// offline compactions; a failure reports the replica it happened in and
// leaves that replica's old layout serving.
func RunSharded(root string, o Options) ([]*Report, error) {
	return eachReplica(root, o, Run)
}

// ResumeSharded finishes whatever each replica was doing: resumes
// interrupted compactions, skips completed ones, starts missing ones.
func ResumeSharded(root string, o Options) ([]*Report, error) {
	return eachReplica(root, o, ResumeOrRun)
}

func eachReplica(root string, o Options, run func(Options) (*Report, error)) ([]*Report, error) {
	topo, err := shard.LoadTopology(root)
	if err != nil {
		return nil, err
	}
	var reps []*Report
	for s := 0; s < topo.Shards; s++ {
		for r := 0; r < topo.Replicas; r++ {
			so := o
			so.Dir = shard.ReplicaDir(root, s, r)
			rep, err := run(so)
			if err != nil {
				return reps, fmt.Errorf("compact: %s replica %d: %w", shard.Name(s), r, err)
			}
			reps = append(reps, rep)
		}
	}
	return reps, nil
}
