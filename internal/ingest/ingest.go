// Package ingest is the streaming bulk loader: it runs an incremental cursor
// over a (possibly enormous) XML input, applies the Prüfer transform one
// record at a time, spools the transforms into one CRC-checked scratch run,
// and bulk-loads the run into the B+-tree index under a memory budget.
//
// A build has exactly one commit record: for a plain index its own final
// journal commit, for a sharded layout topology.json, which is written last.
// Until the commit record is durable Dir holds no index that opens; after
// it, the index is complete. Every byte of the index is a function of the
// input's sequences (Prüfer's one-to-one correspondence), so recovering from
// a crash is running the same build again: Run starts by deleting the work
// directory and every index artifact under Dir.
package ingest

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
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
	// malformed-record resync.
	Input string
	// Dir is the index root: the two page files for a plain index, or
	// topology.json plus shard directories for a sharded one.
	Dir string
	// WorkDir holds the build's scratch files (the run and the merge's spill
	// chunks), deleted when it ends; empty means Dir/.ingest.
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
	// chunks of the merge sort and derives the page-cache capacity. 0 means
	// 32 MiB.
	MemBudget int64
	// SkipBudget is how many malformed records may be skipped before the
	// build fails; 0 tolerates none.
	SkipBudget int
	// Epoch pins the sharded layout's placement epoch (0 derives one from
	// the clock).
	Epoch uint64

	// BufferPoolPages overrides the per-file page-cache capacity; 0 derives
	// it from MemBudget.
	BufferPoolPages int
	// FS intercepts every artifact write (the run, spill chunks, replica
	// clones, topology); nil means the real filesystem. Crash-sweep tests
	// inject pagertest.FaultFS here.
	FS pager.FS
	// OpenFile is passed to the index builders so the merge's page files
	// can be fault-injected too; nil means plain OS files.
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
	// Docs is the number of documents indexed; Runs how many run files the
	// scan spooled them into (1, or 0 for an input with no documents).
	Docs uint32
	Runs int
	// Skips counts the malformed records skipped; SkipDetail carries the
	// first maxSkipDetail of them with byte offset and cause.
	Skips      int
	SkipDetail []SkipRecord
	Shards     int
}

// SkipRecord reports one malformed record: where it sat in the input and
// why it was rejected.
type SkipRecord struct {
	Ordinal int
	Offset  int64
	Error   string
}

// maxSkipDetail bounds the per-skip detail a Report keeps; the total count
// is always exact.
const maxSkipDetail = 64

// runFile is the scan's one run, inside the work directory.
const runFile = "docs.run"

// Run builds the index: it deletes what an earlier build of Dir left behind,
// scans the input into the run, bulk-loads the run into the index and
// removes the work directory.
func Run(o Options) (*Report, error) {
	if o.Input == "" {
		return nil, fmt.Errorf("ingest: no input file")
	}
	if o.Dir == "" {
		return nil, fmt.Errorf("ingest: no output directory")
	}
	ig := &ingester{o: &o, fs: o.fsys(), wd: o.workDir(), rep: &Report{Shards: o.shards()}}
	if err := ig.fs.RemoveAll(ig.wd); err != nil {
		return nil, err
	}
	if err := ig.fs.MkdirAll(ig.wd); err != nil {
		return nil, err
	}
	if err := ig.scan(); err != nil {
		return nil, err
	}
	if err := ig.merge(); err != nil {
		return nil, err
	}
	if err := ig.fs.RemoveAll(ig.wd); err != nil {
		return nil, err
	}
	return ig.rep, nil
}

type ingester struct {
	o   *Options
	fs  pager.FS
	wd  string
	rep *Report
}

// scanItem is one record's outcome flowing through the pipeline: a
// transformed document, a skip, or a fatal error.
type scanItem struct {
	ds   *prix.DocSeq
	skip *SkipRecord
	err  error
}

// parsedItem is the raw cursor outcome handed from the parse stage to the
// transform stage, with the record's start position for a transform
// rejection's report.
type parsedItem struct {
	doc      *xmltree.Document
	skip     *SkipRecord
	err      error
	startOff int64
	startOrd int
}

// scan runs the parse → transform → spool pipeline. Each stage is one
// goroutine joined by a small bounded channel, so a slow spool (or a fault
// injection pause) backpressures the parser instead of letting parsed trees
// pile up; at most a handful of records are in flight at any moment.
func (ig *ingester) scan() error {
	o := ig.o
	in, err := os.Open(o.Input)
	if err != nil {
		return err
	}
	defer in.Close()
	cur := xmltree.NewCursor(in, xmltree.CursorOptions{Parse: o.Parse, Split: o.Split, ResyncTag: o.ResyncTag})

	const pipelineDepth = 4
	parseCh := make(chan parsedItem, pipelineDepth)
	seqCh := make(chan scanItem, pipelineDepth)
	stop := make(chan struct{})
	defer close(stop)

	// Parse stage: the cursor yields one record at a time.
	go func() {
		defer close(parseCh)
		for {
			startOff, startOrd := cur.Pos()
			doc, err := cur.Next()
			it := parsedItem{startOff: startOff, startOrd: startOrd}
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
	// ids are dense over the successful records. A transform rejection (an
	// invalid tree the parser accepted) is a skip like any other.
	go func() {
		defer close(seqCh)
		var id uint32
		for it := range parseCh {
			out := scanItem{skip: it.skip, err: it.err}
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

	// Spool stage (this goroutine): append every DocSeq to the run and count
	// the skips against the budget.
	w, err := newRunWriter(ig.fs, filepath.Join(ig.wd, runFile))
	if err != nil {
		return err
	}
	for it := range seqCh {
		switch {
		case it.err != nil:
			err = it.err
		case it.skip != nil:
			err = ig.skip(*it.skip)
		default:
			err = w.add(it.ds)
		}
		if err != nil {
			w.abort()
			return err
		}
	}
	ig.rep.Docs = w.docs
	if w.docs > 0 {
		ig.rep.Runs = 1
	}
	return w.seal()
}

// skip counts one malformed record against the budget, keeping at most
// maxSkipDetail individual records.
func (ig *ingester) skip(s SkipRecord) error {
	rep := ig.rep
	rep.Skips++
	if rep.Skips > ig.o.SkipBudget {
		return fmt.Errorf("ingest: skip budget exhausted (%d malformed records, budget %d); record %d at byte %d: %s",
			rep.Skips, ig.o.SkipBudget, s.Ordinal, s.Offset, s.Error)
	}
	if len(rep.SkipDetail) < maxSkipDetail {
		rep.SkipDetail = append(rep.SkipDetail, s)
	}
	return nil
}

// merge bulk-loads the run into the index: the plain index at Dir, or each
// shard's replica 0 followed by its clones and, last, topology.json. It
// starts by deleting every index artifact under Dir, so a build that a crash
// interrupted leaves nothing this one could mistake for its own output.
func (ig *ingester) merge() error {
	o := ig.o
	if err := ig.clearIndexRoot(); err != nil {
		return err
	}
	opts := prix.Options{Extended: o.Extended, BufferPoolPages: o.pool(), OpenFile: o.OpenFile}
	bo := prix.BulkOptions{Spill: prix.DirSpiller(ig.fs, ig.wd), MemBudget: o.budget()}
	if o.shards() == 0 {
		opts.Dir = o.Dir
		_, err := shard.BuildIndex(opts, bo, ig.replay, func(uint32) bool { return true })
		return err
	}
	epoch := o.Epoch
	if epoch == 0 {
		epoch = uint64(time.Now().UnixNano())
	}
	topo := &shard.Topology{Version: 1, Shards: o.shards(), Replicas: o.replicas(), Extended: o.Extended, Epoch: epoch}
	return shard.BuildLayout(ig.fs, o.Dir, topo, opts, bo, ig.replay)
}

// clearIndexRoot deletes every index artifact a previous (possibly
// interrupted, possibly differently configured) build left under Dir:
// page files and journals, the topology, shard directories. The topology,
// a layout's commit record, goes first, so a crash partway leaves no
// topology.json naming a shard that is gone. The work directory is
// untouched.
func (ig *ingester) clearIndexRoot() error {
	names, err := ig.fs.ReadDir(ig.o.Dir)
	if err != nil {
		return err
	}
	if slices.Contains(names, shard.TopologyFile) {
		if err := ig.fs.Remove(filepath.Join(ig.o.Dir, shard.TopologyFile)); err != nil {
			return err
		}
	}
	stale := map[string]bool{
		prix.ForestFileName:  true,
		prix.DocsFileName:    true,
		prix.JournalFileName: true,
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

// replay is one shard.Pass over the run: every document in docid order,
// those keep accepts handed to add. It checks that the docids are dense and
// that the run holds every document the scan counted.
func (ig *ingester) replay(keep func(uint32) bool, add func(*prix.DocSeq) error) (uint32, error) {
	r, err := openRun(ig.fs, filepath.Join(ig.wd, runFile))
	if err != nil {
		return 0, err
	}
	defer r.close()
	var next uint32
	for {
		ds, err := r.next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return next, err
		}
		if ds.DocID != next {
			return next, fmt.Errorf("ingest: docid %d out of sequence (want %d)", ds.DocID, next)
		}
		next++
		if keep(ds.DocID) {
			if err := add(ds); err != nil {
				return next, err
			}
		}
	}
	if next != ig.rep.Docs {
		return next, fmt.Errorf("ingest: run holds %d docs, the scan counted %d", next, ig.rep.Docs)
	}
	return next, nil
}
