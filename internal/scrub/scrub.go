// Package scrub implements the background scrubber of a PRIX index: a
// rate-limited loop that continuously walks physical pages, B+-tree
// invariants and document records, quarantines what it finds damaged before
// queries trip over it, and (when enabled) repairs the damage online using
// the Prüfer-sequence redundancy the index carries by construction.
//
// One pass runs four phases:
//
//  1. raw page scan of the document store file — every page is read
//     straight from disk and checksum-verified, bypassing the buffer pool
//     so cached clean copies cannot mask on-disk rot; the documents whose
//     records touch a bad page are quarantined immediately.
//  2. raw page scan of the forest file (Trie-Symbol trees, Docid index,
//     shape tree).
//  3. B+-tree invariant check over every tree in the forest.
//  4. per-document deep verification: decode the record, reconstruct the
//     tree from its NPS (the §3.1 one-to-one correspondence), re-derive the
//     sequence and cross-check it against the trie postings and the Docid
//     entry; the shape dictionary's two copies (docs.db section, forest
//     shape tree) are held against each other, shape for shape.
//
// With repair enabled the pass then heals what it can: corrupt pages are
// re-sealed from still-cached verified frames, a shape damaged in one copy
// is rewritten from the other, damaged records are rewritten from the index
// side, missing postings are patched from the
// record side, shared-trie damage triggers a full forest rebuild, and
// orphaned pages are zeroed — each step committing through the rollback
// journal and re-verified before the document leaves quarantine.
package scrub

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pager"
	"repro/internal/prix"
)

// Config tunes a Scrubber.
type Config struct {
	// Interval between passes for Start (default 30s).
	Interval time.Duration
	// Throttle is the sleep between batches of pages/documents, bounding
	// the scrubber's I/O share (default 2ms; negative disables).
	Throttle time.Duration
	// Batch is how many pages or documents are processed between throttle
	// sleeps (default 64).
	Batch int
	// Busy, when non-nil, reports that the server is under load; the
	// scrubber backs off (sleeping BusyBackoff) while it returns true.
	Busy func() bool
	// BusyBackoff is the sleep while Busy reports true (default 100ms).
	BusyBackoff time.Duration
	// AutoRepair makes every pass repair what it finds. RepairNow repairs
	// regardless.
	AutoRepair bool
	// Source, when non-nil, re-resolves the index at the start of every
	// pass. Serving tiers that swap epochs (internal/compact) pass a
	// resolver here so the scrubber follows a swap instead of scrubbing a
	// closed epoch's files.
	Source func() *prix.Index
	// Gate, when non-nil, brackets every pass. A pass runs only while
	// inside the gate; one that cannot enter — an epoch swap is pending or
	// in progress — is skipped and counted (Stats.PassesSkipped) instead of
	// reporting forest-invariant violations against files that are mid-swap.
	Gate SwapGate
}

// SwapGate coordinates scrub passes with epoch swaps. compact.Root's Gate
// satisfies it: TryEnter fails while a swap is pending (never blocking the
// scrubber), and a successful entry holds the swap out until Exit.
type SwapGate interface {
	TryEnter() bool
	Exit()
}

func (c *Config) interval() time.Duration {
	if c.Interval <= 0 {
		return 30 * time.Second
	}
	return c.Interval
}

func (c *Config) throttle() time.Duration {
	if c.Throttle == 0 {
		return 2 * time.Millisecond
	}
	if c.Throttle < 0 {
		return 0
	}
	return c.Throttle
}

func (c *Config) batch() int {
	if c.Batch <= 0 {
		return 64
	}
	return c.Batch
}

func (c *Config) busyBackoff() time.Duration {
	if c.BusyBackoff <= 0 {
		return 100 * time.Millisecond
	}
	return c.BusyBackoff
}

// Finding is one piece of damage a pass observed.
type Finding struct {
	// Kind is "page" (checksum failure), "forest" (B+-tree invariant
	// violation) or "doc" (deep per-document verification failure).
	Kind string `json:"kind"`
	// File names the page file for page findings.
	File string `json:"file,omitempty"`
	// Page is the damaged page for page findings, -1 otherwise.
	Page int64 `json:"page"`
	// Doc is the affected document for doc findings, -1 otherwise.
	Doc int64 `json:"doc"`
	// Err is the verification error text.
	Err string `json:"err"`
}

// Repair is the outcome of one per-document repair attempt.
type Repair struct {
	Doc    int64  `json:"doc"`
	Action string `json:"action"`
	Err    string `json:"err,omitempty"`
}

// Report summarizes one pass.
type Report struct {
	Pass          uint64    `json:"pass"`
	PagesScanned  int       `json:"pages_scanned"`
	DocsScanned   int       `json:"docs_scanned"`
	Findings      []Finding `json:"findings,omitempty"`
	PagesRepaired int       `json:"pages_repaired"`
	Repairs       []Repair  `json:"repairs,omitempty"`
	ForestRebuilt bool      `json:"forest_rebuilt"`
	Quarantined   []uint32  `json:"quarantined,omitempty"`
	Clean         bool      `json:"clean"`
	// Skipped reports the pass did not run because the swap gate was held
	// (an epoch swap was pending); nothing was scanned.
	Skipped  bool          `json:"skipped,omitempty"`
	Duration time.Duration `json:"duration_ns"`
}

// Stats is a point-in-time snapshot of the scrubber's counters.
type Stats struct {
	Passes        uint64 `json:"passes"`
	PassesSkipped uint64 `json:"passes_skipped"`
	PagesScanned  uint64 `json:"pages_scanned"`
	DocsScanned   uint64 `json:"docs_scanned"`
	Findings      uint64 `json:"findings"`
	PagesRepaired uint64 `json:"pages_repaired"`
	RepairsDone   uint64 `json:"repairs_done"`
	RepairsFailed uint64 `json:"repairs_failed"`
	Running       bool   `json:"running"`
}

// Scrubber drives scrub passes over one index. Safe for concurrent use with
// queries and inserts: verification takes the index's repair lock in read
// mode, repairs in write mode.
type Scrubber struct {
	ix  *prix.Index
	cfg Config

	passes        atomic.Uint64
	passesSkipped atomic.Uint64
	pagesScanned  atomic.Uint64
	docsScanned   atomic.Uint64
	findings      atomic.Uint64
	pagesRepaired atomic.Uint64
	repairsDone   atomic.Uint64
	repairsFailed atomic.Uint64
	running       atomic.Bool

	// passMu serializes passes: with a Source resolver, each pass rebinds
	// s.ix, which must not race a concurrent RepairNow.
	passMu sync.Mutex

	mu   sync.Mutex
	last *Report

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a Scrubber over the index; for a DynamicIndex pass di.Index().
func New(ix *prix.Index, cfg Config) *Scrubber {
	return &Scrubber{
		ix:   ix,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Start launches the background loop: one pass every Interval until Stop.
func (s *Scrubber) Start() {
	s.startOnce.Do(func() {
		go s.loop()
	})
}

// Stop halts the background loop and waits for an in-flight pass to finish.
// Safe to call without Start (returns immediately) and more than once.
func (s *Scrubber) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	// If Start never ran, consume startOnce ourselves so the wait below
	// does not block forever.
	s.startOnce.Do(func() { close(s.done) })
	<-s.done
}

func (s *Scrubber) loop() {
	defer close(s.done)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-s.stop
		cancel()
	}()
	ticker := time.NewTicker(s.cfg.interval())
	defer ticker.Stop()
	for {
		if _, err := s.RunPass(ctx); err != nil && ctx.Err() != nil {
			return
		}
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
	}
}

// Stats returns the lifetime counters.
func (s *Scrubber) Stats() Stats {
	return Stats{
		Passes:        s.passes.Load(),
		PassesSkipped: s.passesSkipped.Load(),
		PagesScanned:  s.pagesScanned.Load(),
		DocsScanned:   s.docsScanned.Load(),
		Findings:      s.findings.Load(),
		PagesRepaired: s.pagesRepaired.Load(),
		RepairsDone:   s.repairsDone.Load(),
		RepairsFailed: s.repairsFailed.Load(),
		Running:       s.running.Load(),
	}
}

// LastReport returns the most recent completed pass (nil before the first).
func (s *Scrubber) LastReport() *Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// RunPass executes one scrub pass; repairs run only when AutoRepair is set.
func (s *Scrubber) RunPass(ctx context.Context) (*Report, error) {
	return s.pass(ctx, s.cfg.AutoRepair)
}

// RepairNow executes one pass with repair forced, regardless of AutoRepair.
// This is the online-repair entry point (POST /repair).
func (s *Scrubber) RepairNow(ctx context.Context) (*Report, error) {
	return s.pass(ctx, true)
}

func (s *Scrubber) pass(ctx context.Context, repair bool) (*Report, error) {
	s.passMu.Lock()
	defer s.passMu.Unlock()
	// Enter the swap gate before touching any file: if an epoch swap is
	// pending, the files this scrubber would scan are about to be replaced
	// (or deleted), and any "violation" found in them would be noise. Skip
	// the pass; the swap waits for no one, and the next pass scrubs the new
	// epoch.
	if s.cfg.Gate != nil {
		if !s.cfg.Gate.TryEnter() {
			s.passesSkipped.Add(1)
			rep := &Report{Skipped: true}
			s.mu.Lock()
			s.last = rep
			s.mu.Unlock()
			return rep, nil
		}
		defer s.cfg.Gate.Exit()
	}
	if s.cfg.Source != nil {
		s.ix = s.cfg.Source()
	}
	s.running.Store(true)
	defer s.running.Store(false)
	start := time.Now()
	rep := &Report{Pass: s.passes.Add(1)}

	if err := s.scanPages(ctx, rep); err != nil {
		return rep, err
	}
	for _, err := range s.ix.CheckForest() {
		rep.Findings = append(rep.Findings, Finding{Kind: "forest", File: "seq.idx", Page: -1, Doc: -1, Err: err.Error()})
	}
	if err := s.verifyDocs(ctx, rep); err != nil {
		return rep, err
	}

	if repair && len(rep.Findings) > 0 {
		if err := s.repairAll(ctx, rep); err != nil {
			s.finish(rep, start)
			return rep, err
		}
	}

	rep.Quarantined = s.ix.Quarantined()
	rep.Clean = len(rep.Findings) == 0 && len(rep.Quarantined) == 0
	s.finish(rep, start)
	return rep, ctx.Err()
}

func (s *Scrubber) finish(rep *Report, start time.Time) {
	rep.Duration = time.Since(start)
	s.findings.Add(uint64(len(rep.Findings)))
	s.mu.Lock()
	s.last = rep
	s.mu.Unlock()
}

// scanPages raw-reads every page of both files, verifying checksums against
// the on-disk image (phases 1 and 2). Documents whose records touch a
// corrupt store page are quarantined before any query can read them.
func (s *Scrubber) scanPages(ctx context.Context, rep *Report) error {
	store := s.ix.Store()
	err := s.scanFile(ctx, s.ix.Forest().BufferPool().File(), "seq.idx", rep, nil)
	if err != nil {
		return err
	}
	return s.scanFile(ctx, store.BufferPool().File(), "docs.db", rep, func(id pager.PageID) {
		for _, d := range store.DocsOnPage(id) {
			store.Quarantine(d)
		}
	})
}

func (s *Scrubber) scanFile(ctx context.Context, f pager.File, name string, rep *Report, onCorrupt func(pager.PageID)) error {
	buf := make([]byte, pager.PageSize)
	n := f.NumPages()
	for id := uint32(0); id < n; id++ {
		if id%uint32(s.cfg.batch()) == 0 {
			if err := s.pace(ctx); err != nil {
				return err
			}
		}
		if err := f.ReadPage(pager.PageID(id), buf); err != nil {
			return fmt.Errorf("scrub: reading %s page %d: %w", name, id, err)
		}
		rep.PagesScanned++
		s.pagesScanned.Add(1)
		if verr := pager.VerifyPage(pager.PageID(id), buf); verr != nil {
			rep.Findings = append(rep.Findings, Finding{Kind: "page", File: name, Page: int64(id), Doc: -1, Err: verr.Error()})
			if onCorrupt != nil {
				onCorrupt(pager.PageID(id))
			}
		}
	}
	return nil
}

// verifyDocs deep-checks every document (phase 4), quarantining damaged
// ones.
func (s *Scrubber) verifyDocs(ctx context.Context, rep *Report) error {
	n := s.ix.NumDocs()
	for id := 0; id < n; id++ {
		if id%s.cfg.batch() == 0 {
			if err := s.pace(ctx); err != nil {
				return err
			}
		}
		rep.DocsScanned++
		s.docsScanned.Add(1)
		if err := s.ix.VerifyDoc(uint32(id)); err != nil {
			rep.Findings = append(rep.Findings, Finding{Kind: "doc", Page: -1, Doc: int64(id), Err: err.Error()})
			s.ix.Store().Quarantine(uint32(id))
		}
	}
	// Shapes only superseded images use are no document's current shape.
	for _, err := range s.ix.CheckShapes() {
		rep.Findings = append(rep.Findings, Finding{Kind: "shape", Page: -1, Doc: -1, Err: err.Error()})
	}
	return nil
}

// repairAll heals the pass's findings in escalation order: re-seal pages
// from cached verified frames, per-document repair, full forest rebuild if
// shared trie structure is damaged, then zero orphaned store pages.
func (s *Scrubber) repairAll(ctx context.Context, rep *Report) error {
	// Cheapest first: a page whose clean copy is still in the buffer pool
	// is repaired by rewriting it, no structural work needed.
	if n, err := s.ix.SweepForestPages(); err != nil {
		return err
	} else {
		rep.PagesRepaired += n
		s.pagesRepaired.Add(uint64(n))
	}
	if n, err := s.ix.SweepStorePages(); err != nil {
		return err
	} else {
		rep.PagesRepaired += n
		s.pagesRepaired.Add(uint64(n))
	}

	// A shape damaged in one copy is rewritten from the other before the
	// documents that use it are judged; one lost in both stays lost, and its
	// documents' repairs report it. A shape tree that does not read is the
	// forest rebuild's to rewrite.
	if _, err := s.ix.RepairShapes(); err != nil && !prix.IsCorruption(err) {
		return err
	}
	needRebuild := s.repairDocs(ctx, rep)

	// A forest page that still fails its checksum after the light sweep has
	// no cached copy to restore it from; whether it is live tree structure or
	// an orphan, only a rebuild (which rewrites every live page and zeroes
	// the rest) can make the file verify clean again.
	if needRebuild || s.forestStillCorrupt() || len(s.ix.CheckForest()) > 0 {
		if err := s.pace(ctx); err != nil {
			return err
		}
		if _, err := s.ix.RepairForest(); err != nil {
			s.repairsFailed.Add(1)
			return fmt.Errorf("scrub: forest rebuild: %w", err)
		}
		rep.ForestRebuilt = true
		// The rebuild changed the postings side under every document; run
		// the per-document repairs again for whatever is still quarantined.
		s.repairDocs(ctx, rep)
	}

	// Record rewrites leave old record spans unreferenced; zero any of
	// those that are corrupt so the file verifies clean end to end.
	if n, err := s.ix.SweepStorePages(); err != nil {
		return err
	} else {
		rep.PagesRepaired += n
		s.pagesRepaired.Add(uint64(n))
	}

	// Re-scan so the report reflects post-repair reality: findings that
	// were healed are dropped, anything still damaged is re-reported.
	healed := rep.Findings[:0]
	rescan := &Report{}
	if err := s.scanPages(ctx, rescan); err != nil {
		return err
	}
	for _, err := range s.ix.CheckForest() {
		rescan.Findings = append(rescan.Findings, Finding{Kind: "forest", File: "seq.idx", Page: -1, Doc: -1, Err: err.Error()})
	}
	for _, d := range s.ix.Quarantined() {
		if err := s.ix.VerifyDoc(d); err != nil {
			rescan.Findings = append(rescan.Findings, Finding{Kind: "doc", Page: -1, Doc: int64(d), Err: err.Error()})
		}
	}
	rep.Findings = append(healed, rescan.Findings...)
	return nil
}

// forestStillCorrupt raw-scans the forest file for pages whose stored image
// fails verification.
func (s *Scrubber) forestStillCorrupt() bool {
	f := s.ix.Forest().BufferPool().File()
	buf := make([]byte, pager.PageSize)
	for id := uint32(0); id < f.NumPages(); id++ {
		if f.ReadPage(pager.PageID(id), buf) != nil {
			return true
		}
		if pager.VerifyPage(pager.PageID(id), buf) != nil {
			return true
		}
	}
	return false
}

// repairDocs attempts RepairDoc for every quarantined document, recording
// outcomes; reports whether any document needs a forest rebuild.
func (s *Scrubber) repairDocs(ctx context.Context, rep *Report) (needRebuild bool) {
	for _, d := range s.ix.Quarantined() {
		if err := s.pace(ctx); err != nil {
			return needRebuild
		}
		action, err := s.ix.RepairDoc(d)
		r := Repair{Doc: int64(d), Action: action.String()}
		switch {
		case err == nil:
			s.repairsDone.Add(1)
		case errors.Is(err, prix.ErrNeedsForestRebuild):
			needRebuild = true
			r.Err = err.Error()
		default:
			s.repairsFailed.Add(1)
			r.Err = err.Error()
		}
		rep.Repairs = append(rep.Repairs, r)
	}
	return needRebuild
}

// pace enforces the throttle, the busy backoff and cancellation.
func (s *Scrubber) pace(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for s.cfg.Busy != nil && s.cfg.Busy() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(s.cfg.busyBackoff()):
		}
	}
	if t := s.cfg.throttle(); t > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(t):
		}
	}
	return nil
}
