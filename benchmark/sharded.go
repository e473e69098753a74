package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/ingest"
	"repro/internal/prix"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/twig"
	"repro/internal/vtrie"
	"repro/internal/xmltree"
)

// sharded is warm_sharded: MIX streamed from an XML file through the
// crash-resumable ingest into a 2-shard, 2-replica layout, served through
// the scatter-gather coordinator with pools large enough to hold every
// page and the result cache on. Two clients draw queries by Zipf, so the
// median op is a cache hit — pure service cost — and the tail is a miss
// through both shards: the read layers of cold_single with no I/O under
// them, and the only concurrent callers in the benchmark.
type sharded struct {
	e   *env
	xml string
	seq []int

	dir      string
	co       *shard.Coordinator
	ls       *liveServer
	cls      []*client
	ingestS  float64
	rep      *ingest.Report
	peakHeap uint64
	// warmReads is the physical-read count right after warm-up; probeReads
	// what the traced block's substrate probes added to it.
	warmReads, probeReads uint64
}

const (
	shardCount    = 2
	replicaCount  = 2
	shardClients  = 2
	shardCache    = 128  // result-cache entries, well under QPOP's size
	shardPoolPage = 8192 // per file; above any shard file's page count
)

func newSharded(e *env) (*sharded, error) {
	s := &sharded{e: e, xml: filepath.Join(e.dir, "mix.xml")}
	// Writing the input file is the generator's work, not the system's.
	if err := e.c.writeXML(s.xml); err != nil {
		return nil, err
	}
	s.seq = zipfSequence(len(e.qs), e.sz.shardOps, e.dataSeed, e.seed)
	return s, nil
}

func (s *sharded) setup(dir string) error {
	s.dir = dir
	var stop func() uint64
	if s.e.trace {
		stop = sampleHeap()
	}
	t0 := time.Now()
	rep, err := ingest.Run(ingest.Options{
		Input: s.xml, Dir: dir, Split: true, Extended: true,
		Shards: shardCount, Replicas: replicaCount, Epoch: 1,
	})
	s.ingestS = time.Since(t0).Seconds()
	if stop != nil {
		s.peakHeap = stop()
	}
	if err != nil {
		return err
	}
	if int(rep.Docs) != len(s.e.c.origin) || rep.Skips != 0 {
		return fmt.Errorf("ingest indexed %d docs with %d skips, want %d and 0", rep.Docs, rep.Skips, len(s.e.c.origin))
	}
	s.rep = rep
	// Hedging stays off (HedgeDelay 0): a hedge fires on a timer, and a
	// timer would make the shard counters differ from run to run.
	if s.co, err = shard.Open(dir, prix.Options{BufferPoolPages: shardPoolPage}, shard.Config{}); err != nil {
		return err
	}
	// Replicas take turns, so a page is warm only once every replica has
	// read it: run the population against each index directly first.
	for _, ix := range s.co.Indexes() {
		for _, q := range s.e.qs {
			if _, _, err := ix.Match(q.q, prix.MatchOptions{WarmCache: true, Parallelism: 1}); err != nil {
				return err
			}
		}
	}
	if s.ls, err = serve(s.co, server.Config{CacheCapacity: shardCache, Parallelism: 1}); err != nil {
		return err
	}
	s.cls = nil
	for i := 0; i < shardClients; i++ {
		s.cls = append(s.cls, newClient(s.ls.url, s.e.qs))
	}
	// The block holds every query at least once, so answers_sha covers the
	// same queries here as on the single-index workloads.
	if _, failed := s.e.httpBlock(s.cls, s.seq); failed > 0 {
		return fmt.Errorf("warm-up block: %d of %d ops failed", failed, len(s.seq))
	}
	s.warmReads = s.co.PagesRead()
	return nil
}

func (s *sharded) close() error {
	if s.co == nil {
		return nil
	}
	for _, c := range s.cls {
		c.close()
	}
	err := s.ls.close()
	if cerr := s.co.Close(); err == nil {
		err = cerr
	}
	s.co = nil
	return err
}

func (s *sharded) releaseInputs() { s.e.c.docs = nil }

func (s *sharded) measuredBlocks() int { return 0 }

func (s *sharded) runBlock() (block, int, error) {
	blk, failed := s.e.httpBlock(s.cls, s.seq)
	return blk, failed, nil
}

func (s *sharded) between(int) error { return nil }

func (s *sharded) finish(m map[string]float64, _ layers) error {
	m["space_amp"] = float64(dirBytes(s.dir)) / float64(s.e.c.xmlBytes)
	if n := s.co.PagesRead() - s.warmReads - s.probeReads; n != 0 {
		return fmt.Errorf("warm_sharded read %d pages from disk after warm-up, want 0", n)
	}
	return nil
}

func (s *sharded) counters() counterSnap {
	c := counterSnap{pool: poolsOf(s.co.Indexes()...)}
	c.addServer(s.ls.srv.Metrics())
	for _, st := range s.co.ShardStats() {
		c.retries += st.Retries
	}
	return c
}

func (s *sharded) traceBlock(tr *tracer, l layers) error {
	before := s.co.PagesRead()
	defer func() { s.probeReads = s.co.PagesRead() - before }()
	mb := float64(fileSize(s.xml)) / (1 << 20)
	l["ingest.mb_s"] = ratio(mb, s.ingestS)
	l["ingest.docs_s"] = ratio(float64(s.rep.Docs), s.ingestS)
	l["ingest.runs"] = float64(s.rep.Runs)
	l["ingest.skips"] = float64(s.rep.Skips)
	l["ingest.peak_heap_mb"] = float64(s.peakHeap) / (1 << 20)
	if err := s.probeIngest(l, mb); err != nil {
		return err
	}

	ix := s.co.Indexes()[0]
	entries := 0
	var slowest, skew []float64
	opts := prix.MatchOptions{WarmCache: true, Parallelism: 1}
	rl := readLayers{
		cl:     s.cls[0],
		exec:   server.NewExecutor(s.co, -1, 0, nil),
		match:  s.co.Match,
		before: func() {},
		probe: func(tr *tracer, op int, q *twig.Query, _ []prix.Match) {
			// Shards answer concurrently, so only the slowest one blocks the
			// coordinator: it alone is the fan-out span's child, and the
			// fan-out's self time is merge, sort and goroutine hand-off.
			f := tr.begin("shard.fanout", op, -1)
			s.co.Match(q, opts)
			tr.end(f)
			var max, sum time.Duration
			for i := 0; i < s.co.NumShards(); i++ {
				t0 := time.Now()
				s.co.Shard(i).Match(context.Background(), q, opts)
				d := time.Since(t0)
				sum += d
				if d > max {
					max = d
				}
			}
			tr.child("shard.match", op, f, max)
			slowest = append(slowest, us(max))
			skew = append(skew, ratio(float64(max), float64(sum)/float64(s.co.NumShards())))

			entries += countPostings(probeScan(tr, op, ix, q))
			n := uint32(ix.NumDocs())
			probeGets(tr, op, ix.Store(), []uint32{uint32(op) % n, uint32(op*7+3) % n})
		},
	}
	seq := s.seq
	if len(seq) > 2*len(s.e.qs) {
		seq = seq[:2*len(s.e.qs)]
	}
	if err := s.e.traceReads(tr, l, rl, seq); err != nil {
		return err
	}
	l["btree.scan_entries_op"] = ratio(float64(entries), float64(len(seq)))
	l["shard.slowest_us"] = median(slowest)
	l["shard.skew"] = median(skew)
	return nil
}

// probeIngest times the three transforms a streamed document passes
// through before it reaches a run file, each alone over the whole input.
func (s *sharded) probeIngest(l layers, mb float64) error {
	f, err := os.Open(s.xml)
	if err != nil {
		return err
	}
	defer f.Close()
	var docs []*xmltree.Document
	cur := xmltree.NewCursor(f, xmltree.CursorOptions{Split: true})
	t0 := time.Now()
	for {
		d, err := cur.Next()
		if err != nil || d == nil {
			break
		}
		docs = append(docs, d)
	}
	l["xmltree.parse_mb_s"] = ratio(mb, time.Since(t0).Seconds())
	if len(docs) == 0 {
		return fmt.Errorf("ingest probe parsed no documents from %s", s.xml)
	}

	seqs := make([]*prix.DocSeq, len(docs))
	t0 = time.Now()
	for i, d := range docs {
		if seqs[i], err = prix.Transform(uint32(i), d, true); err != nil {
			return err
		}
	}
	l["prufer.build_us_doc"] = us(time.Since(t0)) / float64(len(docs))

	syms := map[prix.SeqLabel]vtrie.Symbol{}
	lps := make([][]vtrie.Symbol, len(seqs))
	for i, ds := range seqs {
		for _, lab := range ds.LPS {
			sym, ok := syms[lab]
			if !ok {
				sym = vtrie.Symbol(len(syms) + 1)
				syms[lab] = sym
			}
			lps[i] = append(lps[i], sym)
		}
	}
	b := vtrie.NewBuilder()
	t0 = time.Now()
	for i, seq := range lps {
		if err := b.Add(seq, uint32(i)); err != nil {
			return err
		}
	}
	b.Label()
	l["vtrie.label_us_doc"] = us(time.Since(t0)) / float64(len(docs))
	return nil
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

// sampleHeap records the peak in-use heap until the returned func is
// called. Reading MemStats stops the world, so only traced runs sample.
func sampleHeap() (stop func() uint64) {
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		var max uint64
		for {
			select {
			case <-done:
				peak <- max
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > max {
					max = ms.HeapAlloc
				}
			}
		}
	}()
	return func() uint64 { close(done); return <-peak }
}
