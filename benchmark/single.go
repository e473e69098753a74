package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/pager"
	"repro/internal/prix"
	"repro/internal/server"
	"repro/internal/twig"
)

// single is hot_single and cold_single: one on-disk EPIndex over MIX behind
// the HTTP service, one client, the result cache off so every request
// reaches the engine. The two differ only in how the index is opened —
// everything resident in the compressed hot tier, or a 64-page pool and no
// hot tier — so a change that moves one and not the other names its layer.
type single struct {
	e   *env
	hot bool
	seq []int

	dir    string
	ix     *prix.Index
	ls     *liveServer
	cl     *client
	buildS float64
	// warmReads is the physical-read count right after warm-up; probeReads
	// what the traced block's substrate probes added to it.
	warmReads, probeReads uint64
}

// coldPoolPages is 512 KiB of buffer pool against an index of tens of
// megabytes: every query pages.
const coldPoolPages = 64

func newSingle(e *env, hot bool) *single {
	passes := e.sz.coldPasses
	if hot {
		passes = e.sz.hotPasses
	}
	var seq []int
	for p := 0; p < passes; p++ {
		seq = append(seq, opSequence(len(e.qs), e.seed+int64(p)*1000003)...)
	}
	return &single{e: e, hot: hot, seq: seq}
}

func (s *single) setup(dir string) error {
	s.dir = dir
	runtime.GOMAXPROCS(2) // the build may use both cores
	t0 := time.Now()
	ix, err := prix.Build(s.e.c.docs, prix.Options{Extended: true, Dir: dir})
	if err != nil {
		return err
	}
	if err := ix.Close(); err != nil {
		return err
	}
	s.buildS = time.Since(t0).Seconds()
	opts := prix.Options{BufferPoolPages: coldPoolPages}
	if s.hot {
		// A budget above the whole index: Open preloads every posting list
		// and document summary, and nothing is ever evicted.
		opts = prix.Options{HotBudget: 1 << 30}
	}
	if s.ix, err = prix.Open(dir, opts); err != nil {
		return err
	}
	// One client, one request in flight: on two Ps every request is two
	// cross-CPU wake-ups, and their latency is the hypervisor's, not the
	// code's. On one P client and server hand over through the run queue.
	// Measured in a noisy spell, four runs each: ops_s ranged 13 % on one P
	// and 25 % on two, p95_ms 22 % and 33 %.
	runtime.GOMAXPROCS(1)
	if s.ls, err = serve(s.ix, server.Config{CacheCapacity: -1, Parallelism: 1}); err != nil {
		return err
	}
	s.cl = newClient(s.ls.url, s.e.qs)
	if _, failed := s.e.httpBlock([]*client{s.cl}, s.seq); failed > 0 {
		return fmt.Errorf("warm-up block: %d of %d ops failed", failed, len(s.seq))
	}
	s.warmReads = poolsOf(s.ix).PhysicalReads
	return nil
}

func (s *single) close() error {
	if s.ix == nil {
		return nil
	}
	s.cl.close()
	err := s.ls.close()
	if cerr := s.ix.Close(); err == nil {
		err = cerr
	}
	s.ix = nil
	return err
}

func (s *single) releaseInputs() { s.e.c.docs = nil }

func (s *single) measuredBlocks() int { return 0 }

func (s *single) runBlock() (block, int, error) {
	blk, failed := s.e.httpBlock([]*client{s.cl}, s.seq)
	return blk, failed, nil
}

func (s *single) between(int) error { return nil }

func (s *single) finish(m map[string]float64, _ layers) error {
	m["space_amp"] = float64(dirBytes(s.dir)) / float64(s.e.c.xmlBytes)
	if n := poolsOf(s.ix).PhysicalReads - s.warmReads - s.probeReads; s.hot && n != 0 {
		return fmt.Errorf("hot_single read %d pages from disk after warm-up, want 0", n)
	}
	return nil
}

func (s *single) counters() counterSnap {
	c := counterSnap{pool: poolsOf(s.ix), hot: s.ix.HotStats().Tier}
	c.addServer(s.ls.srv.Metrics())
	return c
}

// traceBlock replays one pass over QPOP. The probes run on this op's own
// data: the label trees the query descends, the documents it matched, and —
// cold only — one never-cached forest page through a pool of its own.
func (s *single) traceBlock(tr *tracer, l layers) error {
	before := poolsOf(s.ix).PhysicalReads
	defer func() { s.probeReads = poolsOf(s.ix).PhysicalReads - before }()
	l["prix.build_s"] = s.buildS
	rl := readLayers{
		cl:     s.cl,
		exec:   server.NewExecutor(s.ix, -1, 0, nil),
		match:  s.ix.Match,
		before: func() {},
	}
	var cold *pager.BufferPool
	var pages []pager.PageID
	if !s.hot {
		rl.before = s.ix.DropCaches
		f, err := pager.OpenOSFile(filepath.Join(s.dir, prix.ForestFileName))
		if err != nil {
			return err
		}
		defer f.Close()
		// 16 frames and a seeded walk over the whole file: every Get misses.
		cold = pager.NewBufferPool(f, 16)
		rng := rand.New(rand.NewSource(s.e.seed))
		for i := 0; i < len(s.e.qs); i++ {
			pages = append(pages, pager.PageID(1+rng.Intn(int(f.NumPages())-1)))
		}
	}
	entries := 0
	rl.probe = func(tr *tracer, op int, q *twig.Query, ms []prix.Match) {
		lists := probeScan(tr, op, s.ix, q)
		entries += countPostings(lists)
		recs := probeGets(tr, op, s.ix.Store(), firstDocs(ms, 4))
		if s.hot {
			probeHot(tr, op, lists, recs)
			return
		}
		g := tr.begin("pager.read", op, -1)
		if pg, err := cold.Get(pages[op]); err == nil {
			pg.Unpin(false)
		}
		tr.end(g)
	}
	seq := s.seq[:len(s.e.qs)]
	if err := s.e.traceReads(tr, l, rl, seq); err != nil {
		return err
	}
	l["btree.scan_entries_op"] = ratio(float64(entries), float64(len(seq)))
	return nil
}

// dirBytes sums every regular file below dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
