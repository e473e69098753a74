// Package ingest is the crash-resumable streaming bulk loader: it runs an
// incremental cursor over a (possibly enormous) XML input, applies the
// Prüfer transform one record at a time, spills the transforms into
// CRC-sealed run files under a memory budget, and bulk-merges the runs into
// the B+-tree index — committing a checkpoint manifest after every sealed
// run so an interrupted build resumes from the last durable checkpoint and
// converges on an index byte-identical to an uninterrupted one.
package ingest

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/pager"
	"repro/internal/prix"
	"repro/internal/shard"
	"repro/internal/xmltree"
)

// Options configures one streaming build.
type Options struct {
	// Input is the XML file to ingest. It is opened read-only directly from
	// the OS (reads are not crash-relevant); it must be seekable for
	// malformed-record resync and for -resume.
	Input string
	// Dir is the index root: the two page files for a plain index, or
	// topology.json plus shard directories for a sharded one.
	Dir string
	// WorkDir holds the run files and the checkpoint manifest; empty means
	// Dir/.ingest.
	WorkDir string

	// Split / ResyncTag / Parse configure the record cursor (see
	// xmltree.CursorOptions).
	Split     bool
	ResyncTag string
	Parse     xmltree.ParseOptions

	// Extended selects EPIndex (Extended-Prüfer) output.
	Extended bool
	// Shards > 0 builds a sharded layout with that many shards; 0 builds a
	// plain single index and ignores Replicas.
	Shards int
	// Replicas is the copies per shard (sharded layouts only; min 1).
	Replicas int

	// MemBudget bounds the bytes the pipeline buffers: it sizes the spill
	// chunks of the merge sort, derives the page-cache capacity, and sets
	// the run-seal threshold. 0 means 32 MiB.
	MemBudget int64
	// SkipBudget is how many malformed records may be skipped before the
	// build fails; 0 tolerates none.
	SkipBudget int
	// Epoch pins the sharded layout's placement epoch (0 derives one from
	// the clock at the first checkpoint; resume always reuses the
	// checkpointed value).
	Epoch uint64

	// BufferPoolPages overrides the per-file page-cache capacity; 0 derives
	// it from MemBudget.
	BufferPoolPages int
	// FS intercepts every artifact write (runs, manifest, spill chunks,
	// replica clones, topology); nil means the real filesystem. Crash-sweep
	// tests inject pager.FaultFS here.
	FS pager.FS
	// OpenFile is passed to the index builders so the merge phase's page
	// files can be fault-injected too; nil means plain OS files.
	OpenFile func(path string) (pager.File, error)
}

func (o *Options) fsys() pager.FS {
	if o.FS != nil {
		return o.FS
	}
	return pager.OSFS{}
}

func (o *Options) workDir() string {
	if o.WorkDir != "" {
		return o.WorkDir
	}
	return filepath.Join(o.Dir, ".ingest")
}

func (o *Options) budget() int64 {
	if o.MemBudget <= 0 {
		return 32 << 20
	}
	return o.MemBudget
}

func (o *Options) shards() int {
	if o.Shards < 1 {
		return 0
	}
	return o.Shards
}

func (o *Options) replicas() int {
	if o.shards() == 0 || o.Replicas < 1 {
		return 1
	}
	return o.Replicas
}

// pool derives the page-cache capacity from the memory budget: half the
// budget (the other half belongs to the merge sort's chunk buffers) split
// over the two page files of an index.
func (o *Options) pool() int {
	if o.BufferPoolPages > 0 {
		return o.BufferPoolPages
	}
	pages := int(o.budget() / 4 / pager.PageSize)
	if pages < 64 {
		pages = 64
	}
	if pages > pager.DefaultPoolPages {
		pages = pager.DefaultPoolPages
	}
	return pages
}

// Report summarizes a completed build.
type Report struct {
	// Docs is the number of documents indexed; Runs how many checkpointed
	// run files the scan produced.
	Docs uint32
	Runs int
	// Skips counts the malformed records skipped; SkipDetail carries the
	// first maxSkipDetail of them with byte offset and cause.
	Skips      int
	SkipDetail []SkipRecord
	// Resumed reports whether this invocation continued from a checkpoint.
	Resumed bool
	Shards  int
}

// Run performs a fresh streaming build: any previous checkpoint state under
// the work directory is discarded first.
func Run(o Options) (*Report, error) {
	return execute(&o, false)
}

// Resume continues an interrupted build from its last durable checkpoint.
// The produced index is byte-identical to an uninterrupted build of the
// same input under the same options.
func Resume(o Options) (*Report, error) {
	return execute(&o, true)
}

func execute(o *Options, resume bool) (*Report, error) {
	if o.Input == "" {
		return nil, fmt.Errorf("ingest: no input file")
	}
	if o.Dir == "" {
		return nil, fmt.Errorf("ingest: no output directory")
	}
	fs := o.fsys()
	wd := o.workDir()
	var m *Manifest
	if resume {
		var err error
		if m, err = loadManifest(fs, wd); err != nil {
			return nil, err
		}
		if err := m.matches(o); err != nil {
			return nil, err
		}
	} else {
		if err := fs.RemoveAll(wd); err != nil {
			return nil, err
		}
		if err := fs.MkdirAll(wd); err != nil {
			return nil, err
		}
		epoch := o.Epoch
		if epoch == 0 {
			epoch = uint64(time.Now().UnixNano())
		}
		m = &Manifest{
			Version:   1,
			Phase:     phaseScan,
			Input:     o.Input,
			Split:     o.Split,
			Extended:  o.Extended,
			Shards:    o.shards(),
			Replicas:  o.replicas(),
			MemBudget: o.budget(),
			Epoch:     epoch,
		}
	}
	ig := &ingester{o: o, fs: fs, wd: wd, m: m}
	if m.Phase == phaseScan {
		if resume {
			if err := ig.clearDebris(); err != nil {
				return nil, err
			}
		}
		if err := ig.scan(resume); err != nil {
			return nil, err
		}
	}
	if m.Phase == phaseMerge {
		if err := ig.merge(); err != nil {
			return nil, err
		}
		m.Phase = phaseDone
		if err := m.save(fs, wd); err != nil {
			return nil, err
		}
	}
	if err := ig.cleanup(); err != nil {
		return nil, err
	}
	return &Report{
		Docs:       m.TotalDocs,
		Runs:       len(m.Runs),
		Skips:      m.TotalSkips,
		SkipDetail: m.SkipDetail,
		Resumed:    resume,
		Shards:     m.Shards,
	}, nil
}

type ingester struct {
	o  *Options
	fs pager.FS
	wd string
	m  *Manifest
}

const spillDirName = "spill"

// clearDebris deletes everything in the work directory that the manifest
// does not vouch for: run temp files, a manifest temp, spill chunks — the
// half-written artifacts of the crash being resumed from.
func (ig *ingester) clearDebris() error {
	keep := map[string]bool{ManifestFile: true}
	for _, ri := range ig.m.Runs {
		keep[ri.Name] = true
	}
	names, err := ig.fs.ReadDir(ig.wd)
	if err != nil {
		return err
	}
	for _, name := range names {
		if keep[name] {
			continue
		}
		if err := ig.fs.RemoveAll(filepath.Join(ig.wd, name)); err != nil {
			return err
		}
	}
	return nil
}

// scanItem is one record's outcome flowing through the pipeline: a
// transformed document, a skip, or a fatal error — plus the cursor position
// after the record (the checkpoint candidate).
type scanItem struct {
	ds      *prix.DocSeq
	skip    *SkipRecord
	err     error
	off     int64
	ord     int
	wrapper string
}

// parsedItem is the raw cursor outcome handed from the parse stage to the
// transform stage.
type parsedItem struct {
	doc      *xmltree.Document
	skip     *SkipRecord
	err      error
	off      int64
	ordinal  int
	startOff int64
	startOrd int
	wrapper  string
}

// scan runs the parse → transform → spill pipeline. Each stage is one
// goroutine joined by a small bounded channel, so a slow spill (or a fault
// injection pause) backpressures the parser instead of letting parsed trees
// pile up; at most a handful of records are in flight at any moment.
func (ig *ingester) scan(resume bool) error {
	o, fs, m := ig.o, ig.fs, ig.m
	in, err := os.Open(o.Input)
	if err != nil {
		return err
	}
	defer in.Close()
	copts := xmltree.CursorOptions{Parse: o.Parse, Split: o.Split, ResyncTag: o.ResyncTag}
	var cur *xmltree.Cursor
	if resume && len(m.Runs) > 0 {
		last := m.Runs[len(m.Runs)-1]
		cur, err = xmltree.ResumeCursor(in, copts, last.EndOffset, last.EndOrdinal, m.Wrapper)
		if err != nil {
			return err
		}
	} else {
		cur = xmltree.NewCursor(in, copts)
	}

	const pipelineDepth = 4
	parseCh := make(chan parsedItem, pipelineDepth)
	seqCh := make(chan scanItem, pipelineDepth)
	stop := make(chan struct{})
	defer close(stop)

	// Parse stage: the cursor yields one record at a time; Pos after each
	// record is the durable boundary a checkpoint can name.
	go func() {
		defer close(parseCh)
		for {
			startOff, startOrd := cur.Pos()
			doc, err := cur.Next()
			off, ord := cur.Pos()
			it := parsedItem{off: off, ordinal: ord, startOff: startOff, startOrd: startOrd, wrapper: cur.Wrapper()}
			switch {
			case errors.Is(err, io.EOF):
				return
			case err != nil:
				var perr *xmltree.ParseError
				if errors.As(err, &perr) && !perr.Fatal {
					it.skip = &SkipRecord{Ordinal: perr.Ordinal, Offset: perr.Offset, Error: perr.Err.Error()}
				} else {
					it.err = err
				}
			default:
				it.doc = doc
			}
			select {
			case parseCh <- it:
			case <-stop:
				return
			}
			if it.err != nil {
				return
			}
		}
	}()

	// Transform stage: the Prüfer transform of each parsed record. Document
	// ids are dense over the successful records, continuing from the
	// checkpointed total on resume. A transform rejection (an invalid tree
	// the parser accepted) is a skip like any other.
	go func() {
		defer close(seqCh)
		id := m.TotalDocs
		for it := range parseCh {
			out := scanItem{skip: it.skip, err: it.err, off: it.off, ord: it.ordinal, wrapper: it.wrapper}
			if it.doc != nil {
				ds, terr := prix.Transform(id, it.doc, o.Extended)
				if terr != nil {
					out.skip = &SkipRecord{Ordinal: it.startOrd, Offset: it.startOff, Error: terr.Error()}
				} else {
					out.ds = ds
					id++
				}
			}
			select {
			case seqCh <- out:
			case <-stop:
				return
			}
			if out.err != nil {
				return
			}
		}
	}()

	// Spill stage (this goroutine): append DocSeqs to the current run, seal
	// it at the threshold, and commit the manifest — the checkpoint — after
	// every seal. A quarter of the budget per run keeps checkpoints frequent
	// relative to the memory the merge phase will spend per chunk.
	runLimit := m.MemBudget / 4
	if runLimit < 8<<10 {
		runLimit = 8 << 10
	}
	var (
		w            *runWriter
		pendingSkips []SkipRecord
		lastOff      int64
		lastOrd      int
	)
	fail := func(err error) error {
		if w != nil {
			w.abort()
		}
		return err
	}
	seal := func(endOff int64, endOrd int) error {
		crc, err := w.seal()
		if err != nil {
			w = nil
			return err
		}
		ri := RunInfo{
			Name:       filepath.Base(w.path),
			Docs:       w.docs,
			Skips:      uint32(len(pendingSkips)),
			CRC:        crc,
			EndOffset:  endOff,
			EndOrdinal: endOrd,
		}
		w = nil
		m.Runs = append(m.Runs, ri)
		m.TotalDocs += ri.Docs
		ig.noteSkips(pendingSkips)
		pendingSkips = nil
		return m.save(fs, ig.wd)
	}
	for it := range seqCh {
		if it.wrapper != "" {
			m.Wrapper = it.wrapper
		}
		if it.err != nil {
			return fail(it.err)
		}
		if it.skip != nil {
			pendingSkips = append(pendingSkips, *it.skip)
			if m.TotalSkips+len(pendingSkips) > o.SkipBudget {
				return fail(fmt.Errorf("ingest: skip budget exhausted (%d malformed records, budget %d); record %d at byte %d: %s",
					m.TotalSkips+len(pendingSkips), o.SkipBudget, it.skip.Ordinal, it.skip.Offset, it.skip.Error))
			}
			continue
		}
		if w == nil {
			var werr error
			w, werr = newRunWriter(fs, filepath.Join(ig.wd, fmt.Sprintf("run-%05d.run", len(m.Runs))))
			if werr != nil {
				return werr
			}
		}
		if err := w.add(it.ds); err != nil {
			return fail(err)
		}
		lastOff, lastOrd = it.off, it.ord
		if w.bytes >= runLimit {
			if err := seal(lastOff, lastOrd); err != nil {
				return err
			}
		}
	}
	// End of stream: seal the partial run, fold in any trailing skips, and
	// commit the transition to the merge phase. Crashing before this commit
	// re-scans from the last sealed run — skips after it are re-counted
	// exactly once.
	if w != nil && w.docs > 0 {
		if err := seal(lastOff, lastOrd); err != nil {
			return err
		}
	} else if w != nil {
		w.abort()
		w = nil
	}
	ig.noteSkips(pendingSkips)
	m.Phase = phaseMerge
	return m.save(fs, ig.wd)
}

// noteSkips folds newly durable skips into the manifest totals, keeping at
// most maxSkipDetail individual records.
func (ig *ingester) noteSkips(skips []SkipRecord) {
	ig.m.TotalSkips += len(skips)
	for _, s := range skips {
		if len(ig.m.SkipDetail) >= maxSkipDetail {
			break
		}
		ig.m.SkipDetail = append(ig.m.SkipDetail, s)
	}
}

// merge replays the checkpointed runs into the final index. The phase
// writes no checkpoint of its own: it is deterministic (same runs + same
// options → byte-identical files) and restartable from scratch, so resume
// simply deletes whatever the crash left under the index root and redoes
// the whole phase — the two-phase protocol that makes the manifest commit
// at the end of the scan the only atomicity point the build needs.
func (ig *ingester) merge() error {
	o, fs, m := ig.o, ig.fs, ig.m
	if err := ig.clearIndexRoot(); err != nil {
		return err
	}
	if m.Shards == 0 {
		return ig.buildOne(o.Dir, 0, 0)
	}
	for s := 0; s < m.Shards; s++ {
		if err := ig.buildOne(shard.ReplicaDir(o.Dir, s, 0), s, m.Shards); err != nil {
			return fmt.Errorf("%s: %w", shard.Name(s), err)
		}
		for r := 1; r < m.Replicas; r++ {
			if err := shard.CloneReplica(fs, shard.ReplicaDir(o.Dir, s, 0), shard.ReplicaDir(o.Dir, s, r)); err != nil {
				return fmt.Errorf("%s replica %d: %w", shard.Name(s), r, err)
			}
		}
	}
	topo := &shard.Topology{
		Version:  1,
		Shards:   m.Shards,
		Replicas: m.Replicas,
		Extended: m.Extended,
		Docs:     m.TotalDocs,
		Epoch:    m.Epoch,
	}
	return topo.Save(fs, o.Dir)
}

// clearIndexRoot deletes every index artifact a previous (possibly
// interrupted, possibly differently configured) build left under Dir:
// page files and journals, the topology, shard directories. The work
// directory is untouched.
func (ig *ingester) clearIndexRoot() error {
	names, err := ig.fs.ReadDir(ig.o.Dir)
	if err != nil {
		return err
	}
	stale := map[string]bool{
		prix.ForestFileName:  true,
		prix.DocsFileName:    true,
		prix.JournalFileName: true,
		shard.TopologyFile:   true,
	}
	for _, name := range prix.LegacyJournalFileNames {
		stale[name] = true
	}
	for _, name := range names {
		if stale[name] || strings.HasPrefix(name, "shard-") {
			if err := ig.fs.RemoveAll(filepath.Join(ig.o.Dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildOne replays the run sequence into one index directory, keeping only
// the documents owned by the given shard (shards == 0 keeps everything).
func (ig *ingester) buildOne(dir string, owner, shards int) error {
	o, fs, m := ig.o, ig.fs, ig.m
	spill := filepath.Join(ig.wd, spillDirName)
	if err := fs.RemoveAll(spill); err != nil {
		return err
	}
	if err := fs.MkdirAll(spill); err != nil {
		return err
	}
	b, err := prix.NewBuilder(prix.Options{
		Extended:        m.Extended,
		BufferPoolPages: o.pool(),
		Dir:             dir,
		OpenFile:        o.OpenFile,
	})
	if err != nil {
		return err
	}
	if err := ig.replay(b, owner, shards); err != nil {
		b.Abort()
		return err
	}
	ix, err := b.FinalizeBulk(prix.BulkOptions{
		Spill:     prix.DirSpiller(fs, spill),
		MemBudget: m.MemBudget,
	})
	if err != nil {
		return err
	}
	return ix.Close()
}

// replay streams every manifest-listed run through the builder in order,
// cross-checking each run's CRC and doc count against the manifest and the
// docid sequence against the expected dense assignment.
func (ig *ingester) replay(b *prix.Builder, owner, shards int) error {
	var next uint32
	for _, ri := range ig.m.Runs {
		r, err := openRun(ig.fs, filepath.Join(ig.wd, ri.Name))
		if err != nil {
			return err
		}
		for {
			ds, err := r.next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				r.close()
				return err
			}
			if ds.DocID != next {
				r.close()
				return fmt.Errorf("ingest: %s: docid %d out of sequence (want %d)", ri.Name, ds.DocID, next)
			}
			next++
			if shards == 0 || shard.Owner(ds.DocID, shards) == owner {
				if err := b.AddSeq(ds); err != nil {
					r.close()
					return err
				}
			}
		}
		if r.sealCRC != ri.CRC {
			r.close()
			return fmt.Errorf("ingest: %s: CRC %08x does not match manifest %08x", ri.Name, r.sealCRC, ri.CRC)
		}
		if r.docs != ri.Docs {
			r.close()
			return fmt.Errorf("ingest: %s: %d docs does not match manifest %d", ri.Name, r.docs, ri.Docs)
		}
		if err := r.close(); err != nil {
			return err
		}
	}
	if next != ig.m.TotalDocs {
		return fmt.Errorf("ingest: runs hold %d docs, manifest says %d", next, ig.m.TotalDocs)
	}
	return nil
}

// cleanup removes the now-redundant run files and spill chunks. The sealed
// manifest stays (phase done) so a later Resume is an idempotent no-op
// reporting the finished build; every removal tolerates a prior cleanup
// having already happened.
func (ig *ingester) cleanup() error {
	for _, ri := range ig.m.Runs {
		err := ig.fs.Remove(filepath.Join(ig.wd, ri.Name))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return ig.fs.RemoveAll(filepath.Join(ig.wd, spillDirName))
}
