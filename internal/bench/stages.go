package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/prix"
)

// StagesConfig tunes the per-stage breakdown table.
type StagesConfig struct {
	// ReadDelay is the injected per-physical-read latency (default 200µs):
	// enough for I/O-bound stages to dominate untracked glue without the
	// table taking minutes.
	ReadDelay time.Duration
	// Datasets restricts the run (empty = all bundled datasets).
	Datasets []string
	// HotBudget is the compressed hot-tier budget for the second pass over
	// each dataset (default 8 MiB; negative skips the hot pass). The hot
	// rows answer the same queries from in-memory compressed postings and
	// document summaries, so the I/O-bound stages — fetch and structure
	// above all — shrink while the counted work stays identical.
	HotBudget int64
}

func (c StagesConfig) withDefaults() StagesConfig {
	if c.ReadDelay == 0 {
		c.ReadDelay = 200 * time.Microsecond
	}
	if len(c.Datasets) == 0 {
		c.Datasets = datagen.Names()
	}
	if c.HotBudget == 0 {
		c.HotBudget = 8 << 20
	}
	return c
}

// Stages prints the stage-level cost breakdown of every bundled query:
// each runs cold-cache on one goroutine (Parallelism 1, where the stage
// taxonomy partitions wall time) under a trace, and the table reports each
// stage's share. This is the observability layer's answer to the paper's
// filtering-vs-refinement cost split: descent+prefetch is Algorithm 1,
// fetch..leaves is Algorithm 2, and the final column checks that the stage
// sum accounts for the measured wall time.
func (s *Session) Stages(w io.Writer, cfg StagesConfig) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "\nStage breakdown: cold-cache serial execution, %v per physical read\n", cfg.ReadDelay)
	if cfg.HotBudget > 0 {
		fmt.Fprintf(w, "hot rows: same queries over a %d MiB compressed hot tier (byte-identical results)\n",
			cfg.HotBudget>>20)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Dataset\tQuery\tMode\tWall(ms)")
	for _, name := range obs.StageNames() {
		fmt.Fprintf(tw, "\t%s%%", name)
	}
	fmt.Fprintln(tw, "\tsum%")
	for _, name := range cfg.Datasets {
		e, err := s.Engines(name)
		if err != nil {
			return err
		}
		e.RP.SetReadDelay(cfg.ReadDelay)
		e.EP.SetReadDelay(cfg.ReadDelay)
		err = s.stagesDataset(tw, e, "cold")
		e.RP.SetReadDelay(0)
		e.EP.SetReadDelay(0)
		if err != nil {
			return err
		}
		if cfg.HotBudget <= 0 {
			continue
		}
		// The hot pass rebuilds both engine variants with a tier budget so
		// the descent scans compressed postings and refinement decodes
		// summaries instead of paying the injected read latency.
		he, err := buildHotEngines(e.Dataset, s.cfg, cfg.HotBudget)
		if err != nil {
			return err
		}
		he.RP.SetReadDelay(cfg.ReadDelay)
		he.EP.SetReadDelay(cfg.ReadDelay)
		err = s.stagesDataset(tw, he, "hot")
		he.RP.Close()
		he.EP.Close()
		if err != nil {
			return err
		}
	}
	return tw.Flush()
}

// buildHotEngines constructs just the PRIX index pair over the dataset with
// a hot-tier budget (the baselines have no tier and are not rerun).
func buildHotEngines(ds *datagen.Dataset, cfg Config, budget int64) (*Engines, error) {
	e := &Engines{Dataset: ds}
	var err error
	if e.RP, err = prix.Build(ds.Docs, prix.Options{
		Extended: false, BufferPoolPages: cfg.pool(), HotBudget: budget}); err != nil {
		return nil, fmt.Errorf("bench: hot RPIndex: %w", err)
	}
	if e.EP, err = prix.Build(ds.Docs, prix.Options{
		Extended: true, BufferPoolPages: cfg.pool(), HotBudget: budget}); err != nil {
		e.RP.Close()
		return nil, fmt.Errorf("bench: hot EPIndex: %w", err)
	}
	return e, nil
}

func (s *Session) stagesDataset(w io.Writer, e *Engines, mode string) error {
	for _, qs := range e.Dataset.Queries {
		tr := obs.NewTrace(qs.ID)
		row, err := e.RunPRIX(qs, prix.MatchOptions{Parallelism: 1, Trace: tr})
		if err != nil {
			return err
		}
		tr.Finish()
		durs, _ := tr.StageTotals()
		var sum time.Duration
		for _, d := range durs {
			sum += d
		}
		wall := row.Elapsed
		fmt.Fprintf(w, "%s\t%s\t%s\t%.2f", e.Dataset.Name, qs.ID, mode, float64(wall.Microseconds())/1000)
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			fmt.Fprintf(w, "\t%.1f", 100*float64(durs[st])/float64(wall))
		}
		fmt.Fprintf(w, "\t%.1f\n", 100*float64(sum)/float64(wall))
	}
	return nil
}
