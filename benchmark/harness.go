package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// sizes are the committed constants behind one run. They are fixed, never
// calibrated at run time: two runs of the same seed issue the same ops in
// the same order, so every count the run reports repeats exactly.
type sizes struct {
	scale    int // datagen scale of each of the three datasets
	perShape int // generated queries per planted query shape
	setups   int // set-ups per run; setup_s is their median
	// passes over QPOP per block on hot_single / cold_single.
	hotPasses, coldPasses int
	shardOps              int // ops per block on warm_sharded, before per-query rounding
	mutateOps             int // ops per block on mutate_mixed (1 write : 4 reads)
	mutateBlocks          int // measured blocks on mutate_mixed (fixed, see mutate.go)
}

var (
	fullSizes  = sizes{scale: 2, perShape: 56, setups: 3, hotPasses: 2, coldPasses: 2, shardOps: 12000, mutateOps: 500, mutateBlocks: 10}
	quickSizes = sizes{scale: 1, perShape: 8, setups: 1, hotPasses: 1, coldPasses: 1, shardOps: 300, mutateOps: 60, mutateBlocks: 5}
)

// env is what the workloads share: the seeded corpus and query population
// and a private scratch directory inside the checkout.
type env struct {
	// dataSeed generates the data set — corpus, query population, which
	// queries are popular, the documents mutate_mixed inserts. seed orders
	// and draws the ops over it.
	dataSeed, seed int64
	sz             sizes
	// trace marks a traced run; samplers that perturb timing run only then.
	trace bool
	c     *corpus
	qs    []query
	dir   string
	// ans is fed by every client goroutine, under ansMu.
	ansMu sync.Mutex
	ans   *answerHash
}

func newEnv(dataSeed, seed int64, sz sizes, outDir, tag string) (*env, error) {
	c, err := makeCorpus(sz.scale, dataSeed)
	if err != nil {
		return nil, err
	}
	qs, err := makeQueries(c, dataSeed, sz.perShape)
	if err != nil {
		return nil, err
	}
	// No pid in the name: the ingest manifest records its input path, and a
	// path of another length would change space_amp in the seventh digit.
	dir := filepath.Join(outDir, "work", tag)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &env{dataSeed: dataSeed, seed: seed, sz: sz, c: c, qs: qs, dir: dir, ans: newAnswerHash(len(qs))}, nil
}

func (e *env) cleanup() { os.RemoveAll(e.dir) }

// workload is one of the four named traffic mixes.
type workload interface {
	// setup builds (or ingests), opens, starts serving and runs the
	// discarded warm-up block under dir. It may be called again after close.
	setup(dir string) error
	close() error
	// releaseInputs drops what only setup needed, so the heap measured at
	// the end is the system's and not the generator's.
	releaseInputs()
	// measuredBlocks is the fixed block count, or 0 to run whole blocks
	// until the requested seconds have passed.
	measuredBlocks() int
	// runBlock executes the next measured block and reports how many ops failed.
	runBlock() (block, int, error)
	// between runs after measured block b, outside every block's clock.
	between(b int) error
	// finish runs the end-of-run correctness checks and fills the metrics
	// that are not block timings: end-to-end ones into m, the rest into l.
	finish(m map[string]float64, l layers) error
	// traceBlock replays one block with harness-side spans and probes and
	// fills the per-layer metrics it owns.
	traceBlock(tr *tracer, l layers) error
	// counters snapshots the layer counters the untraced blocks move.
	counters() counterSnap
}

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "hot_single":
		return newSingle(e, true), nil
	case "cold_single":
		return newSingle(e, false), nil
	case "warm_sharded":
		return newSharded(e)
	case "mutate_mixed":
		return newMutate(e)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

var workloadNames = []string{"hot_single", "cold_single", "warm_sharded", "mutate_mixed"}

// sideMetrics are the ungated figures every untraced run's header carries.
var sideMetrics = []string{"ops_s", "p50_ms", "p95_ms", "pages_op", "write_p50_ms", "compact_s"}

// runOutcome is one finished run, before it is shaped for printing.
type runOutcome struct {
	header    header
	attempted int
	failed    int
	correct   bool
	endToEnd  map[string]float64
	perLayer  layers
}

func runWorkload(cfg runConfig) (*runOutcome, error) {
	runtime.GOMAXPROCS(2)
	sz := fullSizes
	if cfg.quick {
		sz = quickSizes
	}
	steal0 := readSteal()
	ref0 := hostRef()
	e, err := newEnv(cfg.dataSeed, cfg.seed, sz, cfg.outDir, cfg.workload)
	if err != nil {
		return nil, err
	}
	defer e.cleanup()
	e.trace = cfg.trace
	w, err := newWorkload(cfg.workload, e)
	if err != nil {
		return nil, err
	}

	// Set-up, several times: one sample of a multi-second build is the
	// noisiest number a run could report, the median of three is not.
	setups := sz.setups
	if cfg.trace {
		setups = 1
	}
	var setupSecs []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("close after set-up %d: %w", i, err)
			}
			os.RemoveAll(filepath.Join(e.dir, "s"+strconv.Itoa(i-1)))
		}
		dir := filepath.Join(e.dir, "s"+strconv.Itoa(i))
		t0 := time.Now()
		if err := w.setup(dir); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	defer w.close()
	w.releaseInputs()
	runtime.GC()

	out := &runOutcome{endToEnd: map[string]float64{}, perLayer: layers{}}
	var blocks []block
	lay := startLayerRun(w)
	// n fixed blocks, or — n == 0 — whole blocks until the deadline. A traced
	// run measures the same untraced phase first: the timing figures are
	// per-layer metrics, and the counters are deltas across undisturbed ops.
	n := w.measuredBlocks()
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for b := 0; b < n || n == 0 && (b == 0 || time.Now().Before(deadline)); b++ {
		blk, failed, err := w.runBlock()
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", b, err)
		}
		blocks = append(blocks, blk)
		out.attempted += blk.ops
		out.failed += failed
		if err := w.between(b); err != nil {
			return nil, fmt.Errorf("after block %d: %w", b, err)
		}
	}
	st := reduceBlocks(blocks)

	lay.stop(out.attempted)
	lay.fill(out.perLayer)
	if cfg.trace {
		tr := newTracer()
		if err := w.traceBlock(tr, out.perLayer); err != nil {
			return nil, fmt.Errorf("traced block: %w", err)
		}
		tr.fill(out.perLayer, st.p50All)
		if err := tr.write(filepath.Join(cfg.outDir, "trace_"+cfg.workload+".json")); err != nil {
			return nil, err
		}
	}

	out.endToEnd["setup_s"] = median(setupSecs)
	out.endToEnd["allocs_op"], out.endToEnd["alloc_kb_op"] = lay.allocs()
	finishErr := w.finish(out.endToEnd, out.perLayer)
	out.correct = finishErr == nil && out.failed == 0
	// Two collections: the first finalises what the run dropped, the second
	// frees it, so the figure is what the open system keeps alive.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	out.endToEnd["live_heap_mb"] = float64(mem.HeapAlloc) / (1 << 20)

	ref1 := hostRef()
	out.perLayer["host.ref_ms"] = (ref0 + ref1) / 2
	out.perLayer["host.steal_pct"] = stealPct(steal0, readSteal())
	out.perLayer["lat.p99_ms"] = st.p99
	out.perLayer["lat.max_ms"] = st.max
	// End-to-end in intent, per-layer by rule: the wall-clock figures need a
	// wider bound than the contract allows on this host; see README. Every
	// untraced run still carries them, in its header.
	out.perLayer["ops_s"] = st.opsPerSec
	out.perLayer["p50_ms"] = st.p50
	out.perLayer["p95_ms"] = st.p95
	out.header = newHeader(cfg, e, st, len(blocks), setupSecs, (ref0+ref1)/2)
	out.header.Side = map[string]float64{}
	for _, k := range sideMetrics {
		out.header.Side[k] = out.perLayer[k]
	}
	if finishErr != nil {
		out.header.Error = finishErr.Error()
	}
	return out, nil
}

// ---- HTTP plumbing ----

// liveServer is the query service on a real loopback listener, in this
// process: the load generator and the server share the two cores the same
// way on every run, and nothing is left behind when the run ends.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

func serve(src server.Source, cfg server.Config) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cfg.DisablePprof = true
	s := server.New(src, cfg)
	l := &liveServer{srv: s, hs: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

func (l *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	<-l.done
	return err
}

// reply is the part of the /query response the harness checks.
type reply struct {
	Count   int                `json:"count"`
	Cached  bool               `json:"cached"`
	Matches []server.MatchJSON `json:"matches"`
	bytes   int
}

// client is one closed-loop caller: it sends its next request only after
// the previous reply is read and checked.
type client struct {
	hc     *http.Client
	url    string
	bodies [][]byte
	buf    bytes.Buffer
}

func newClient(url string, qs []query) *client {
	c := &client{
		hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}, Timeout: 60 * time.Second},
		url: url + "/query",
	}
	for _, q := range qs {
		b, _ := json.Marshal(server.QueryRequest{Query: q.src})
		c.bodies = append(c.bodies, b)
	}
	return c
}

func (c *client) do(qi int) (*reply, error) {
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(c.bodies[qi]))
	if err != nil {
		return nil, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	r := &reply{bytes: c.buf.Len()}
	if err := json.Unmarshal(c.buf.Bytes(), r); err != nil {
		return nil, err
	}
	return r, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// checkReply is the per-op correctness gate of the HTTP workloads: the
// count must be the brute-force count, and the first answer seen for each
// query feeds the cross-workload answers_sha.
func (e *env) checkReply(qi int, r *reply) bool {
	if r.Count != e.qs[qi].want {
		return false
	}
	e.ansMu.Lock()
	defer e.ansMu.Unlock()
	if r.Count > 0 && len(r.Matches) > 0 {
		e.ans.add(qi, e.qs[qi].src, r.Count, r.Matches[0].Doc, r.Matches[0].Images)
	} else {
		e.ans.add(qi, e.qs[qi].src, r.Count, 0, nil)
	}
	return true
}

// httpBlock drives seq through the clients, client k taking every
// len(clients)-th op, and times the whole block and each op.
func (e *env) httpBlock(clients []*client, seq []int) (block, int) {
	type part struct {
		lat    []float64
		failed int
	}
	parts := make([]part, len(clients))
	done := make(chan struct{}, len(clients))
	t0 := time.Now()
	for k := range clients {
		go func(k int) {
			p := &parts[k]
			for i := k; i < len(seq); i += len(clients) {
				t := time.Now()
				r, err := clients[k].do(seq[i])
				d := time.Since(t)
				if err != nil || !e.checkReply(seq[i], r) {
					p.failed++
					continue
				}
				p.lat = append(p.lat, ms(d))
			}
			done <- struct{}{}
		}(k)
	}
	for range clients {
		<-done
	}
	blk := block{wall: time.Since(t0), ops: len(seq)}
	failed := 0
	for _, p := range parts {
		blk.lat = append(blk.lat, p.lat...)
		failed += p.failed
	}
	return blk, failed
}

// ---- host diagnostics ----

// hostRef times a fixed kernel — sort 2^19 pseudo-random words, then
// CRC-32C them — that touches nothing of the system under test. A run whose
// figure is far from the committed reference ran on a disturbed host.
func hostRef() float64 {
	const n = 1 << 19
	buf := make([]uint64, n)
	x := uint64(0x9E3779B97F4A7C15)
	b := make([]byte, 8*n)
	t0 := time.Now()
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = x
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	for i, v := range buf {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	sum := crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli))
	d := time.Since(t0)
	if sum == 0 {
		return 0 // keeps the checksum live; never taken for this input
	}
	return ms(d)
}

// hostRefMS is hostRef on the sandbox the bounds were derived on.
const hostRefMS = 91.0

type stealSample struct{ steal, total float64 }

func readSteal() stealSample {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var s stealSample
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		s.total += v
		if i == 8 {
			s.steal = v
		}
	}
	return s
}

func stealPct(a, b stealSample) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * (b.steal - a.steal) / (b.total - a.total)
}
