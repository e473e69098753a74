package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/datagen"
	"repro/internal/prix"
)

// ParallelConfig tunes the parallel-pipeline benchmark.
type ParallelConfig struct {
	// Parallelism is the worker cap compared against Parallelism 1; it
	// must be at least 2, or there is nothing to compare.
	Parallelism int
	// ReadDelay is the injected per-physical-read device latency (default
	// 2ms, a 2004-era seek-dominated disk like the paper's testbed). The
	// pipeline's win is overlapping these waits; on an in-memory pool the
	// same queries are CPU-bound and a single-core host shows no speedup.
	ReadDelay time.Duration
	// Datasets restricts the run (empty = all bundled datasets).
	Datasets []string
}

func (c ParallelConfig) withDefaults() ParallelConfig {
	if c.ReadDelay == 0 {
		c.ReadDelay = 2 * time.Millisecond
	}
	if len(c.Datasets) == 0 {
		c.Datasets = datagen.Names()
	}
	return c
}

// Parallel prints the parallel-pipeline table: every bundled query runs
// cold-cache at Parallelism 1 (the walk on one goroutine) and at
// Parallelism N, under the injected device latency. Queries whose twigs
// branch additionally run unordered, split into root-to-leaf parts. Match
// counts are asserted identical between the two settings — the table
// doubles as a differential check on the bundled datasets.
func (s *Session) Parallel(w io.Writer, cfg ParallelConfig) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "\nParallel pipeline: cold-cache, %v per physical read, serial vs %d workers\n",
		cfg.ReadDelay, cfg.Parallelism)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tQuery\tMode\tMatches\tSerial(ms)\tPar(ms)\tSpeedup\tPages serial/par")
	for _, name := range cfg.Datasets {
		e, err := s.Engines(name)
		if err != nil {
			return err
		}
		e.RP.SetReadDelay(cfg.ReadDelay)
		e.EP.SetReadDelay(cfg.ReadDelay)
		err = s.parallelDataset(tw, e, cfg)
		e.RP.SetReadDelay(0)
		e.EP.SetReadDelay(0)
		if err != nil {
			return err
		}
	}
	return tw.Flush()
}

func (s *Session) parallelDataset(w io.Writer, e *Engines, cfg ParallelConfig) error {
	ds := e.Dataset
	for _, qs := range ds.Queries {
		modes := []struct {
			label     string
			unordered bool
		}{{"ordered", false}}
		if qs.Query().Root.Leaves() > 1 {
			modes = append(modes, struct {
				label     string
				unordered bool
			}{"unordered", true})
		}
		for _, mode := range modes {
			// Every run gets its own MatchOptions copy: options now carry
			// per-run state (the trace pointer), so one struct shared across
			// the serial and parallel runs would alias stats and spans.
			base := prix.MatchOptions{Unordered: mode.unordered}
			smo := base
			smo.Parallelism = 1
			serial, err := e.RunPRIX(qs, smo)
			if err != nil {
				return err
			}
			pmo := base
			pmo.Parallelism = cfg.Parallelism
			par, err := e.RunPRIX(qs, pmo)
			if err != nil {
				return err
			}
			if serial.Count != par.Count {
				return fmt.Errorf("bench: %s %s %s: parallel count %d != serial %d",
					ds.Name, qs.ID, mode.label, par.Count, serial.Count)
			}
			speedup := float64(serial.Elapsed) / float64(par.Elapsed)
			fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%s\t%s\t%.2fx\t%d/%d\n",
				ds.Name, qs.ID, mode.label, serial.Count,
				serial.timeMS(), par.timeMS(), speedup, serial.Pages, par.Pages)
		}
	}
	return nil
}
