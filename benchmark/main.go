// Command benchmark is the repository's benchmark: four long, seeded
// workloads over the PRIX stack, measured from outside through exported
// functions and public counters. See README.md.
//
//	benchmark --workload hot_single --seed 1 --seconds 12 --trace 0
//
// prints, as the last line of standard output, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

type runConfig struct {
	workload string
	dataSeed int64
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	outDir   string
}

// flushPolicy is recorded in every result header: both sides of a
// comparison must have run under it.
const flushPolicy = "mutate_mixed: Insert+Root.Flush per insert; Update/Patch/Delete commit by their own three flushes; OS files, real fsync"

// header describes the run around the numbers.
type header struct {
	Workload    string             `json:"workload"`
	DataSeed    int64              `json:"data_seed"`
	Seed        int64              `json:"seed"`
	Seconds     int                `json:"seconds"`
	Trace       bool               `json:"trace"`
	Quick       bool               `json:"quick,omitempty"`
	GitSHA      string             `json:"git_sha"`
	GoVersion   string             `json:"go_version"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	NProc       int                `json:"nproc"`
	Sizes       map[string]int     `json:"sizes"`
	FlushPolicy string             `json:"flush_policy"`
	Queries     int                `json:"queries"`
	SequenceSHA string             `json:"sequence_sha"`
	AnswersSHA  string             `json:"answers_sha"`
	Blocks      int                `json:"blocks"`
	Samples     int                `json:"samples"`
	SetupS      []float64          `json:"setup_s_each"`
	HostRefMS   float64            `json:"host_ref_ms"`
	Disturbed   bool               `json:"disturbed"`
	Side        map[string]float64 `json:"side,omitempty"`
	Error       string             `json:"error,omitempty"`
}

func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown" // built outside a git checkout
}

func newHeader(cfg runConfig, e *env, st blockStats, blocks int, setups []float64, ref float64) header {
	sz := e.sz
	return header{
		Workload: cfg.workload, DataSeed: cfg.dataSeed, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Quick: cfg.quick,
		GitSHA: gitSHA(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Sizes: map[string]int{
			"scale": sz.scale, "per_shape": sz.perShape, "setups": sz.setups,
			"hot_passes": sz.hotPasses, "cold_passes": sz.coldPasses, "shard_ops": sz.shardOps,
			"mutate_ops": sz.mutateOps, "mutate_blocks": sz.mutateBlocks,
		},
		FlushPolicy: flushPolicy,
		Queries:     len(e.qs),
		SequenceSHA: sequenceHash(e.qs, opSequence(len(e.qs), e.seed)),
		AnswersSHA:  e.ans.sum(),
		Blocks:      blocks, Samples: st.samples, SetupS: setups,
		HostRefMS: ref,
		// More than a tenth off the reference: the host, not the commit, may
		// explain this run. The metrics are reported untouched.
		Disturbed: ref > hostRefMS*1.1 || ref < hostRefMS*0.9,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the driver's contract: exactly these four keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line shapes the outcome as BENCHMARK.json declares it: every end-to-end
// metric of an untraced run, every per-layer metric of a traced one. A layer
// that did no work on this workload reports zero.
func (o *runOutcome) line(bench *benchFile, trace bool) resultLine {
	r := resultLine{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	defs, vals := bench.EndToEnd, o.endToEnd
	if trace {
		defs, vals = bench.PerLayer, o.perLayer
	}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	return r
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: hot_single, cold_single, warm_sharded or mutate_mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every op sequence: shuffles, Zipf draws, which documents are mutated")
	flag.Int64Var(&cfg.dataSeed, "data-seed", 1, "seed of the data set: corpus and query population (2 is the held-out one)")
	flag.IntVar(&cfg.seconds, "seconds", 12, "length of the measured phase (mutate_mixed runs a fixed op count instead)")
	flag.IntVar(&trace, "trace", 0, "1: replay one block with harness-side spans and print the per-layer metrics instead")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke sizes: scale 1, a few hundred ops per workload")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for scratch indexes and trace files (inside the checkout)")
	selfcheck := flag.Bool("selfcheck", false, "run two interleaved sets of every workload and compare them against the committed bounds")
	suite := flag.String("suite", "", "run every workload -runs times and write the results to this file")
	runs := flag.Int("runs", 5, "runs per workload and set for -selfcheck and -suite")
	compare := flag.Bool("compare", false, "compare two -suite files: -compare old.json new.json")
	flag.Parse()
	cfg.trace = trace != 0

	// The metric names, units and bounds live in one place: the file the
	// driver reads, at the root of the checkout the benchmark runs from.
	bench, err := readBench("BENCHMARK.json")
	switch {
	case err != nil:
	case *compare:
		err = compareFiles(bench, flag.Args())
	case *selfcheck:
		err = selfCheck(cfg, bench, *runs)
	case *suite != "":
		err = writeSuite(cfg, *suite, *runs)
	default:
		err = runOne(cfg, bench)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is what the driver invokes: one workload, one result line.
func runOne(cfg runConfig, bench *benchFile) error {
	out, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(struct {
		Header header `json:"header"`
	}{out.header}); err != nil {
		return err
	}
	if err := enc.Encode(out.line(bench, cfg.trace)); err != nil {
		return err
	}
	if !out.correct {
		return fmt.Errorf("%s: %d of %d ops failed; %s", cfg.workload, out.failed, out.attempted, out.header.Error)
	}
	return nil
}
