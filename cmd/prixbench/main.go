// Command prixbench regenerates the paper's evaluation artefacts (Tables
// 2-9, Figure 6) and the ablation studies over the synthetic datasets.
// The system's own performance record is benchmark/ (BENCHMARK.json).
//
// Usage:
//
//	prixbench -table all -scale 1
//	prixbench -table 4            # DBLP: PRIX vs ViST
//	prixbench -table fig6
//	prixbench -table ablation
//	prixbench -table parallel -parallelism 4     # pipelined vs serial, cold I/O
//	prixbench -table parallel -datasets DBLP     # smoke-sized variant
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

const tables = "2..9, fig6, ablation, parallel or all"

func main() {
	log.SetFlags(0)
	log.SetPrefix("prixbench: ")
	var (
		table    = flag.String("table", "all", "artefact: "+tables)
		scale    = flag.Int("scale", 1, "dataset scale factor")
		seed     = flag.Int64("seed", 1, "dataset generator seed")
		pool     = flag.Int("pool", 0, "buffer pool pages (default 2000)")
		par      = flag.Int("parallelism", 4, "parallel table: query worker cap compared against serial (at least 2)")
		ioDelay  = flag.Duration("iodelay", 2*time.Millisecond, "parallel table: injected per-page read latency (2004-era disk)")
		datasets = flag.String("datasets", "", "parallel table: comma-separated dataset subset (default all)")
	)
	flag.Parse()
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "prixbench: "+format+"\n", args...)
		os.Exit(2)
	}
	s := bench.NewSession(bench.Config{Scale: *scale, Seed: *seed, PoolPages: *pool})
	w := os.Stdout
	run := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	switch *table {
	case "2":
		run(s.Table2(w))
	case "3":
		run(s.Table3(w))
	case "4":
		run(s.Table4(w))
	case "5":
		run(s.Table5(w))
	case "6":
		run(s.Table6(w))
	case "7":
		run(s.Table7(w))
	case "8":
		run(s.Table8(w))
	case "9":
		run(s.Table9(w))
	case "fig6", "figure6":
		run(s.Figure6(w))
	case "ablation":
		run(s.AblationMaxGap(w))
		run(s.AblationExtended(w))
		run(s.AblationBottomUp(w))
		run(s.AblationPoolSize(w))
		run(s.AblationCardinality(w))
	case "parallel":
		if *par < 2 {
			usage("-parallelism %d: the parallel table compares serial against at least 2 workers", *par)
		}
		var names []string
		if *datasets != "" {
			names = strings.Split(*datasets, ",")
		}
		run(s.Parallel(w, bench.ParallelConfig{Parallelism: *par, ReadDelay: *ioDelay, Datasets: names}))
	case "all":
		run(s.All(w))
	default:
		usage("unknown artefact %q (tables: %s)", *table, tables)
	}
}
