package compact

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mvcc"
	"repro/internal/pager"
	"repro/internal/prix"
	"repro/internal/twig"
	"repro/internal/xmltree"
)

// ErrCompacting reports that a compaction is already running on this Root.
var ErrCompacting = errors.New("compact: compaction already in progress")

// Root is a live, serving view of an epoch-root directory: it opens the
// current epoch's DynamicIndex, serves queries and inserts through it, and
// swaps to a freshly compacted epoch with zero downtime. It is a
// prix.Source like the bare DynamicIndex, with a Generation that also
// moves on every swap, so a result cached against one epoch's files is
// never served from the next.
type Root struct {
	dir  string
	opts prix.Options
	// fs, when non-nil, carries the compactor's non-page writes (tests
	// inject failing filesystems here); nil means the OS.
	fs pager.FS

	// mu guards the (di, epoch) pair. Queries hold it as readers for their
	// whole duration, so the swap's write-lock acquisition doubles as a
	// drain barrier: once the swap holds mu, no query references the old
	// epoch and its files can be closed immediately.
	mu    sync.RWMutex
	di    *prix.DynamicIndex
	epoch uint64
	// genBase folds superseded epochs' insert counts into Generation: each
	// swap adds the old epoch's count plus one tick, so the value stays
	// strictly monotonic even though the new epoch's counter restarts.
	genBase uint64

	// insertMu serializes writers and is the freeze latch: the compactor
	// holds it across the catch-up + swap window, so the pause inserts see
	// is exactly Report.Pause.
	insertMu sync.Mutex

	// swapMu + swapPending implement the scrubber gate: a scrub pass holds
	// swapMu as a reader while checking invariants; the swap takes it as a
	// writer. swapPending makes the gate non-blocking for the scrubber (it
	// skips, rather than stalls, a pass that collides with a swap).
	swapMu      sync.RWMutex
	swapPending atomic.Bool

	compacting atomic.Bool
}

// OpenRoot opens dir for live serving, first deleting whatever a
// compaction a crash interrupted left behind (see recoverRoot); the
// interrupted compaction itself is not finished — the next one simply
// runs. The directory may be a plain index directory — any build's — or an
// epoch root; opts
// follows prix.Open semantics (Dir is taken from dir).
func OpenRoot(dir string, opts prix.Options) (*Root, error) {
	epoch, err := recoverRoot(pager.OSFS{}, dir)
	if err != nil {
		return nil, err
	}
	resolved := dir
	if epoch > 0 {
		resolved = filepath.Join(dir, EpochDirName(epoch))
	}
	di, err := prix.OpenDynamic(resolved, opts)
	if err != nil {
		return nil, err
	}
	return &Root{dir: dir, opts: opts, di: di, epoch: epoch}, nil
}

// Match serves a query against the current epoch. The read lock spans the
// whole query, pinning the epoch's files open until it returns.
func (r *Root) Match(q *twig.Query, opts prix.MatchOptions) ([]prix.Match, *prix.QueryStats, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.di.Match(q, opts)
}

// Insert adds one document to the current epoch. During a swap's freeze
// window it blocks (for Report.Pause) and then lands in the new epoch.
func (r *Root) Insert(doc *xmltree.Document) error {
	r.insertMu.Lock()
	defer r.insertMu.Unlock()
	r.mu.RLock()
	di := r.di
	r.mu.RUnlock()
	return di.Insert(doc)
}

// Delete tombstones a document as of a new version. Like Insert it
// serializes with other writers (and blocks through a swap's freeze
// window) via insertMu, which is also what lets the compactor assume no
// mutation lands while it holds the freeze.
func (r *Root) Delete(docID uint32) (uint64, error) {
	r.insertMu.Lock()
	defer r.insertMu.Unlock()
	r.mu.RLock()
	di := r.di
	r.mu.RUnlock()
	return di.Delete(docID)
}

// Update replaces a document's content as of a new version.
func (r *Root) Update(docID uint32, doc *xmltree.Document) (*prix.UpdateResult, error) {
	r.insertMu.Lock()
	defer r.insertMu.Unlock()
	r.mu.RLock()
	di := r.di
	r.mu.RUnlock()
	return di.Update(docID, doc)
}

// Patch applies a minimal sequence diff to a document.
func (r *Root) Patch(docID uint32, p *mvcc.Patch) (*prix.UpdateResult, error) {
	r.insertMu.Lock()
	defer r.insertMu.Unlock()
	r.mu.RLock()
	di := r.di
	r.mu.RUnlock()
	return di.Patch(docID, p)
}

// VersionStats reports the current epoch's MVCC state.
func (r *Root) VersionStats() prix.VersionStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.di.VersionStats()
}

// PagesRead proxies the current epoch's physical-read counter.
func (r *Root) PagesRead() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.di.PagesRead()
}

// NumDocs returns the current epoch's document count.
func (r *Root) NumDocs() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.di.NumDocs()
}

// Stats snapshots the current epoch (each epoch owns a fresh hot tier, so
// a swap starts its counters over).
func (r *Root) Stats() prix.SourceStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.di.Stats()
}

// Generation counts mutations across epochs plus one tick per swap. Swaps
// fold the retired epoch's count into a base rather than resetting, so the
// value never repeats within a process lifetime.
func (r *Root) Generation() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.genBase + r.di.Generation()
}

// Epoch returns the serving epoch (0 until the first compaction commits).
func (r *Root) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// Compacting reports whether a compaction is currently running.
func (r *Root) Compacting() bool { return r.compacting.Load() }

// ChainedDocs reports how many documents the current epoch labeled as
// chains since it was built (prix.DynamicIndex.ChainedDocs).
func (r *Root) ChainedDocs() (int, error) { return r.Index().ChainedDocs() }

// Index returns the current epoch's DynamicIndex for callers that need the
// raw handle (the scrubber's Source hook). The handle is only valid until
// the next swap; combine with Gate to avoid inspecting a mid-swap epoch.
func (r *Root) Index() *prix.DynamicIndex {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.di
}

// Flush persists the current epoch's directory metadata.
func (r *Root) Flush() error {
	r.insertMu.Lock()
	defer r.insertMu.Unlock()
	r.mu.RLock()
	di := r.di
	r.mu.RUnlock()
	return di.Flush()
}

// Close flushes and closes the current epoch.
func (r *Root) Close() error {
	r.insertMu.Lock()
	defer r.insertMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.di.Close()
}

// Gate is the swap gate handed to scrubbers (it satisfies scrub.SwapGate):
// TryEnter succeeds only while no epoch swap is pending or in progress, and
// holds the swap out until Exit. A scrubber that fails TryEnter skips the
// segment instead of reporting forest-invariant violations against files
// that are mid-swap.
type Gate struct{ r *Root }

// Gate returns the Root's swap gate.
func (r *Root) Gate() *Gate { return &Gate{r: r} }

// TryEnter attempts to start a swap-sensitive read pass. It never blocks:
// if a swap is pending (or another TryEnter raced the writer), it returns
// false and the caller should skip.
func (g *Gate) TryEnter() bool {
	if g.r.swapPending.Load() {
		return false
	}
	return g.r.swapMu.TryRLock()
}

// Exit ends a pass started by a successful TryEnter.
func (g *Gate) Exit() { g.r.swapMu.RUnlock() }

// CompactOptions tunes one online compaction.
type CompactOptions struct {
	// MemBudget bounds buffered bytes (0 = 32 MiB).
	MemBudget int64
	// CatchupThreshold is the backlog (documents inserted since the drain
	// watermark) below which the compactor stops chasing and freezes to
	// finish the rest synchronously. 0 means 16.
	CatchupThreshold int
	// MaxRounds caps the chase: after this many drain rounds the compactor
	// freezes regardless of backlog, bounding pause time at roughly one
	// round's worth of inserts. 0 means 10.
	MaxRounds int
	// Throttle, when set, sleeps this long every throttleEvery drained or
	// replayed documents — the background rate limit.
	Throttle time.Duration
	// Busy, when set, reports foreground pressure; the compactor backs off
	// BusyBackoff instead of working (the scrubber's yield idiom).
	Busy        func() bool
	BusyBackoff time.Duration
	// Retain is the version-retention window (see Options.Retain).
	Retain uint64
}

// throttleEvery is how many documents pass between pacing checks.
const throttleEvery = 64

func (co *CompactOptions) withDefaults() CompactOptions {
	out := *co
	if out.CatchupThreshold <= 0 {
		out.CatchupThreshold = 16
	}
	if out.MaxRounds <= 0 {
		out.MaxRounds = 10
	}
	if out.BusyBackoff <= 0 {
		out.BusyBackoff = 100 * time.Millisecond
	}
	return out
}

// Compact rewrites the live index into a packed bulk-loaded epoch and swaps
// to it, without stopping queries and pausing inserts only for the final
// catch-up + swap window (Report.Pause). Phases:
//
//  1. drain — spool every document into sealed runs, rate-limited;
//     queries and inserts proceed untouched. Repeated until the insert
//     backlog is below CatchupThreshold.
//  2. build — bulk-load the runs into .compact/next (kept open), also
//     rate-limited.
//  3. freeze — block new inserts, insert the last backlog directly into
//     the new index, flush it.
//  4. publish + commit — rename next/ to epoch-N, atomically write CURRENT.
//  5. swap — repoint the Root (draining in-flight queries), close the old
//     epoch, delete its files.
//
// Any failure before step 4's CURRENT write aborts with *Aborted: the old
// epoch keeps serving, untouched, and what the attempt wrote is debris the
// next attempt (or OpenRoot) deletes before it starts. ctx cancellation is
// honored between documents during drain and build.
func (r *Root) Compact(ctx context.Context, co CompactOptions) (*Report, error) {
	if !r.compacting.CompareAndSwap(false, true) {
		return nil, ErrCompacting
	}
	defer r.compacting.Store(false)
	co = co.withDefaults()
	oo := Options{Dir: r.dir, MemBudget: co.MemBudget, BufferPoolPages: r.opts.BufferPoolPages, FS: r.fs, OpenFile: r.opts.OpenFile, HotBudget: r.opts.HotBudget, Retain: co.Retain}
	o := oo.withDefaults()
	fs := o.FS
	workdir := filepath.Join(r.dir, WorkDirName)
	start := time.Now()

	r.mu.RLock()
	old, srcEpoch := r.di, r.epoch
	r.mu.RUnlock()
	src := newSource(old)
	nextEpoch := srcEpoch + 1

	var paced int
	pace := func() error {
		paced++
		if paced%throttleEvery != 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		for co.Busy != nil && co.Busy() {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(co.BusyBackoff):
			}
		}
		if co.Throttle > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(co.Throttle):
			}
		}
		return nil
	}

	if _, err := recoverRoot(fs, r.dir); err != nil {
		return nil, &Aborted{Phase: phaseDrain, Err: err}
	}
	if err := fs.MkdirAll(workdir); err != nil {
		return nil, &Aborted{Phase: phaseDrain, Err: err}
	}
	sp := newSpool(src, o)
	rep := &Report{Epoch: nextEpoch, Dir: filepath.Join(r.dir, EpochDirName(nextEpoch))}
	rep.SourceDocs = old.NumDocs()

	// Phases 1–3 may restart when a versioned mutation (delete/update)
	// lands after a document was drained: the sealed runs and the pinned
	// map no longer describe the same history, so the spool is rebuilt
	// from scratch. Bounded — a source mutating faster than the drain can
	// restart aborts rather than looping forever.
	var next *prix.DynamicIndex
	var pauseStart time.Time
	var unfreeze func()
	const maxMutRestarts = 3
	for attempt := 0; ; attempt++ {
		// Phase 1: chase the live index. Each round drains up to the
		// snapshot taken at its start; inserts landing during the round
		// feed the next.
		for rounds := 0; ; rounds++ {
			docs, vm := old.VersionSnapshot()
			total := uint32(docs)
			muts := uint64(0)
			if vm != nil {
				muts = vm.MutOps
			}
			if muts != sp.muts && len(sp.runs) > 0 {
				// A mutation may have touched an already-drained document;
				// its run content (or reclaim status) is stale.
				sp.runs, sp.docs = nil, 0
			}
			reclaimed := sp.pin(vm, o.Retain)
			if err := sp.drain(fs, workdir, src, total, reclaimed, rep, pace); err != nil {
				return nil, &Aborted{Phase: phaseDrain, Err: err}
			}
			if old.NumDocs()-int(total) <= co.CatchupThreshold || rounds+1 >= co.MaxRounds {
				break
			}
		}
		rep.Docs, rep.Runs = sp.docs, len(sp.runs)
		rep.Reclaimed, rep.Tombstones = versionCounts(sp.versions)

		// Phase 2: bulk-load the runs. The new index stays open — its page
		// files live in .compact/next and follow the directory through the
		// publish rename, so the swap needs no reopen.
		buildStart := time.Now()
		var err error
		next, err = sp.build(fs, workdir, o, pace)
		rep.BuildElapsed += time.Since(buildStart)
		if err != nil {
			return nil, &Aborted{Phase: phaseBuild, Err: err}
		}

		// Phase 3: freeze. The swap gate goes pending first so a scrubber
		// pass cannot start mid-swap (and an in-flight one finishes before
		// the swap), without that wait inflating the insert pause.
		r.swapPending.Store(true)
		r.swapMu.Lock()
		pauseStart = time.Now()
		r.insertMu.Lock()
		unfreeze = func() {
			r.insertMu.Unlock()
			r.swapMu.Unlock()
			r.swapPending.Store(false)
		}
		if st := old.Index().VersionStats(); st.MutOps != sp.muts {
			// A delete/update slipped in after the last drain round. Only
			// inserts are allowed past the watermark (the catch-up below
			// replays them); restart the drain under the new history.
			unfreeze()
			next.Close()
			next = nil
			if attempt+1 >= maxMutRestarts {
				return nil, &Aborted{Phase: phaseDrain, Err: fmt.Errorf(
					"compact: source mutated during %d consecutive drain attempts", maxMutRestarts)}
			}
			continue
		}
		break
	}
	fail := func(phase string, err error) (*Report, error) {
		unfreeze()
		next.Close()
		return nil, &Aborted{Phase: phase, Err: err}
	}
	for id := sp.docs; id < uint32(old.NumDocs()); id++ {
		doc, err := old.Index().ReconstructDocument(id)
		if err != nil {
			return fail(phaseBuild, fmt.Errorf("compact: catch-up document %d: %w", id, err))
		}
		if err := next.Insert(doc); err != nil {
			return fail(phaseBuild, fmt.Errorf("compact: catch-up document %d: %w", id, err))
		}
		rep.DeltaDocs++
	}
	if err := next.Flush(); err != nil {
		return fail(phaseBuild, err)
	}

	rep.BuildElapsed += time.Since(pauseStart)

	// Phase 4: publish and commit. The CURRENT write is the point of no
	// return — before it, any failure leaves the old epoch serving, and the
	// published directory CURRENT does not name is debris.
	publishStart := time.Now()
	if err := publishCommit(fs, r.dir, workdir, nextEpoch); err != nil {
		// The pointer write may have landed despite the reported failure:
		// the commit is then durable, so fall through to the swap — aborting
		// would resume inserts into an epoch that no longer owns the root.
		if cur, lerr := loadCurrent(fs, r.dir); lerr != nil || cur.Epoch != nextEpoch {
			return fail(phasePublish, err)
		}
	}

	// Phase 5: swap. Taking mu drains in-flight queries off the old epoch;
	// new queries (and the unfrozen inserts) see the new one. The generation
	// moves with the swap, so no cache key minted from here on reaches a
	// result computed against the old epoch.
	r.mu.Lock()
	r.genBase += old.Generation() + 1
	r.di = next
	r.epoch = nextEpoch
	r.mu.Unlock()
	unfreeze()
	rep.Pause = time.Since(pauseStart)

	// Post-commit teardown. The new epoch is serving whatever happens here;
	// an error is reported but no longer aborts anything, and a leftover
	// work directory or old epoch is deleted by the next recovery.
	err := old.Close()
	if _, rerr := recoverRoot(fs, r.dir); err == nil {
		err = rerr
	}
	rep.PublishElapsed = time.Since(publishStart)
	rep.Elapsed = time.Since(start)
	if err != nil {
		return rep, fmt.Errorf("compact: post-commit cleanup (epoch %d is serving): %w", nextEpoch, err)
	}
	return rep, nil
}
