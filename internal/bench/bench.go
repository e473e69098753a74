// Package bench is the experiment harness: it builds all four engines
// (PRIX RPIndex/EPIndex, ViST, TwigStack/TwigStackXB) over the generated
// datasets and regenerates every table and figure of the paper's §6 —
// Tables 2-9 and Figure 6 — reporting elapsed time and pages read per
// query, plus the ablation studies DESIGN.md calls out.
package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/datagen"
	"repro/internal/docstore"
	"repro/internal/pager"
	"repro/internal/prix"
	"repro/internal/twigstack"
	"repro/internal/vist"
)

// Config controls dataset size and buffer pools.
type Config struct {
	// Scale multiplies dataset sizes (1 = laptop-quick default).
	Scale int
	// Seed drives the deterministic generators.
	Seed int64
	// PoolPages is the buffer pool capacity per engine file (default:
	// the paper's 2000 pages).
	PoolPages int
}

func (c Config) scale() int {
	if c.Scale < 1 {
		return 1
	}
	return c.Scale
}

func (c Config) pool() int {
	if c.PoolPages <= 0 {
		return pager.DefaultPoolPages
	}
	return c.PoolPages
}

// Engines bundles every engine built over one dataset.
type Engines struct {
	Dataset *datagen.Dataset
	RP      *prix.Index
	EP      *prix.Index
	ViST    *vist.Index
	Streams *twigstack.Store
}

// BuildEngines constructs all engines over the dataset.
func BuildEngines(ds *datagen.Dataset, cfg Config) (*Engines, error) {
	e := &Engines{Dataset: ds}
	var err error
	if e.RP, err = prix.Build(ds.Docs, prix.Options{Extended: false, BufferPoolPages: cfg.pool()}); err != nil {
		return nil, fmt.Errorf("bench: RPIndex: %w", err)
	}
	if e.EP, err = prix.Build(ds.Docs, prix.Options{Extended: true, BufferPoolPages: cfg.pool()}); err != nil {
		return nil, fmt.Errorf("bench: EPIndex: %w", err)
	}
	if e.ViST, err = vist.Build(ds.Docs, pager.NewBufferPool(pager.NewMemFile(), cfg.pool()), &docstore.Dict{}); err != nil {
		return nil, fmt.Errorf("bench: ViST: %w", err)
	}
	if e.Streams, err = twigstack.Build(ds.Docs, pager.NewBufferPool(pager.NewMemFile(), cfg.pool()), &docstore.Dict{}); err != nil {
		return nil, fmt.Errorf("bench: streams: %w", err)
	}
	return e, nil
}

// Session caches datasets and engines across table runs so `prixbench
// -table all` builds each engine set once.
type Session struct {
	cfg      Config
	datasets map[string]*datagen.Dataset
	engines  map[string]*Engines
}

// NewSession creates a session for the configuration.
func NewSession(cfg Config) *Session {
	return &Session{
		cfg:      cfg,
		datasets: map[string]*datagen.Dataset{},
		engines:  map[string]*Engines{},
	}
}

// Dataset returns the named dataset, generating it on first use.
func (s *Session) Dataset(name string) (*datagen.Dataset, error) {
	if ds, ok := s.datasets[name]; ok {
		return ds, nil
	}
	ds, err := datagen.ByName(name, s.cfg.scale(), s.cfg.Seed)
	if err != nil {
		return nil, err
	}
	s.datasets[name] = ds
	return ds, nil
}

// Engines returns the engine set for the named dataset, building on first
// use.
func (s *Session) Engines(name string) (*Engines, error) {
	if e, ok := s.engines[name]; ok {
		return e, nil
	}
	ds, err := s.Dataset(name)
	if err != nil {
		return nil, err
	}
	e, err := BuildEngines(ds, s.cfg)
	if err != nil {
		return nil, err
	}
	s.engines[name] = e
	return e, nil
}

// Row is one measurement.
type Row struct {
	Query   string
	Engine  string
	Count   int
	Elapsed time.Duration
	Pages   uint64
	Note    string
}

func (r Row) timeMS() string { return fmt.Sprintf("%.2f", float64(r.Elapsed.Microseconds())/1000) }

// RunPRIX runs a query on the index qs.Extended selects: the paper's
// optimizer choice (EPIndex for value queries, RPIndex otherwise) as the
// dataset plants it, or a forced variant when the caller flips Extended.
func (e *Engines) RunPRIX(qs datagen.QuerySpec, opts prix.MatchOptions) (Row, error) {
	ix, name := e.RP, "PRIX(RP)"
	if qs.Extended {
		ix, name = e.EP, "PRIX(EP)"
	}
	ms, stats, err := ix.Match(qs.Query(), opts)
	if err != nil {
		return Row{}, err
	}
	return Row{
		Query: qs.ID, Engine: name, Count: len(ms),
		Elapsed: stats.Elapsed, Pages: stats.PagesRead,
		Note: fmt.Sprintf("rq=%d cand=%d", stats.RangeQueries, stats.Candidates),
	}, nil
}

// RunViST runs a query on the ViST baseline. The count reported is the
// candidate document count (ViST does not refine; false alarms included).
func (e *Engines) RunViST(qs datagen.QuerySpec) (Row, error) {
	docs, stats, err := e.ViST.Match(qs.Query())
	if err != nil {
		return Row{}, err
	}
	return Row{
		Query: qs.ID, Engine: "ViST", Count: len(docs),
		Elapsed: stats.Elapsed, Pages: stats.PagesRead,
		Note: fmt.Sprintf("keys=%d", stats.KeysExamined),
	}, nil
}

// RunTwigStack runs the selected stack algorithm.
func (e *Engines) RunTwigStack(qs datagen.QuerySpec, algo twigstack.Algorithm) (Row, error) {
	n, stats, err := e.Streams.Match(qs.Query(), algo)
	if err != nil {
		return Row{}, err
	}
	return Row{
		Query: qs.ID, Engine: algo.String(), Count: n,
		Elapsed: stats.Elapsed, Pages: stats.PagesRead,
		Note: fmt.Sprintf("scan=%d skip=%d paths=%d", stats.ElementsScanned, stats.RegionsSkipped, stats.PathSolutions),
	}, nil
}

// writeRows renders rows as an aligned table.
func writeRows(w io.Writer, title string, rows []Row) {
	fmt.Fprintf(w, "\n%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Query\tEngine\tMatches\tTime(ms)\tDisk IO(pages)\tDetail")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%d\t%s\n", r.Query, r.Engine, r.Count, r.timeMS(), r.Pages, r.Note)
	}
	tw.Flush()
}

// Table2 prints the dataset statistics table.
func (s *Session) Table2(w io.Writer) error {
	cfg := s.cfg
	fmt.Fprintf(w, "\nTable 2: Datasets (scale=%d, seed=%d)\n", cfg.scale(), cfg.Seed)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tSize(MB)\t#Elements\t#Values\tMax-depth\t#Sequences")
	for _, name := range datagen.Names() {
		ds, err := s.Dataset(name)
		if err != nil {
			return err
		}
		s := ds.Summarize()
		fmt.Fprintf(tw, "%s\t%.2f\t%d\t%d\t%d\t%d\n",
			name, float64(s.XMLBytes)/(1<<20), s.Elements, s.Values, s.MaxDepth, s.Documents)
	}
	return tw.Flush()
}

// Table3 prints the query catalog with measured match counts (which must
// equal the paper's planted counts).
func (s *Session) Table3(w io.Writer) error {
	cfg := s.cfg
	fmt.Fprintf(w, "\nTable 3: XPath queries and twig match counts (scale=%d)\n", cfg.scale())
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Query\tXPath\tDataset\tPaper\tMeasured")
	for _, name := range datagen.Names() {
		e, err := s.Engines(name)
		if err != nil {
			return err
		}
		ds := e.Dataset
		for _, qs := range ds.Queries {
			row, err := e.RunPRIX(qs, prix.MatchOptions{})
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\n", qs.ID, qs.XPath, name, qs.Want, row.Count)
		}
	}
	return tw.Flush()
}

// prixVsVist runs one dataset's queries on PRIX and ViST (Tables 4, 5, 6).
func (s *Session) prixVsVist(w io.Writer, dataset, title string) error {
	e, err := s.Engines(dataset)
	if err != nil {
		return err
	}
	ds := e.Dataset
	var rows []Row
	for _, qs := range ds.Queries {
		pr, err := e.RunPRIX(qs, prix.MatchOptions{})
		if err != nil {
			return err
		}
		vr, err := e.RunViST(qs)
		if err != nil {
			return err
		}
		rows = append(rows, pr, vr)
	}
	writeRows(w, title, rows)
	return nil
}

// Table4 is DBLP: PRIX vs ViST.
func (s *Session) Table4(w io.Writer) error {
	return s.prixVsVist(w, "DBLP", "Table 4: DBLP - PRIX vs ViST")
}

// Table5 is SWISSPROT: PRIX vs ViST.
func (s *Session) Table5(w io.Writer) error {
	return s.prixVsVist(w, "SWISSPROT", "Table 5: SWISSPROT - PRIX vs ViST")
}

// Table6 is TREEBANK: PRIX vs ViST.
func (s *Session) Table6(w io.Writer) error {
	return s.prixVsVist(w, "TREEBANK", "Table 6: TREEBANK - PRIX vs ViST")
}

// Table7 is DBLP: TwigStack vs TwigStackXB.
func (s *Session) Table7(w io.Writer) error {
	e, err := s.Engines("DBLP")
	if err != nil {
		return err
	}
	ds := e.Dataset
	var rows []Row
	for _, qs := range ds.Queries {
		for _, algo := range []twigstack.Algorithm{twigstack.TwigStack, twigstack.TwigStackXB} {
			r, err := e.RunTwigStack(qs, algo)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
	}
	writeRows(w, "Table 7: DBLP - TwigStack vs TwigStackXB", rows)
	return nil
}

// pick names one dataset's query, for Tables 8 and 9 and the pool sweep.
type pick struct{ dataset, qid string }

func (s *Session) runPicks(w io.Writer, title string, picks []pick) error {
	var rows []Row
	for _, p := range picks {
		e, err := s.Engines(p.dataset)
		if err != nil {
			return err
		}
		ds := e.Dataset
		for _, qs := range ds.Queries {
			if qs.ID != p.qid {
				continue
			}
			pr, err := e.RunPRIX(qs, prix.MatchOptions{})
			if err != nil {
				return err
			}
			xr, err := e.RunTwigStack(qs, twigstack.TwigStackXB)
			if err != nil {
				return err
			}
			rows = append(rows, pr, xr)
		}
	}
	writeRows(w, title, rows)
	return nil
}

// Table8 compares PRIX and TwigStackXB on queries with clustered solutions
// (Q1, Q5, Q7): both should be efficient.
func (s *Session) Table8(w io.Writer) error {
	return s.runPicks(w, "Table 8: PRIX vs TwigStackXB (clustered: Q1, Q5, Q7)",
		[]pick{{"DBLP", "Q1"}, {"SWISSPROT", "Q5"}, {"TREEBANK", "Q7"}})
}

// Table9 compares PRIX and TwigStackXB on the scattered / parent-child
// sub-optimality queries (Q2, Q6, Q8): PRIX should win clearly.
func (s *Session) Table9(w io.Writer) error {
	return s.runPicks(w, "Table 9: PRIX vs TwigStackXB (scattered: Q2, Q6, Q8)",
		[]pick{{"DBLP", "Q2"}, {"SWISSPROT", "Q6"}, {"TREEBANK", "Q8"}})
}

// Figure6 runs every query on every engine: the elapsed-time overview.
func (s *Session) Figure6(w io.Writer) error {
	var rows []Row
	for _, name := range datagen.Names() {
		e, err := s.Engines(name)
		if err != nil {
			return err
		}
		ds := e.Dataset
		for _, qs := range ds.Queries {
			pr, err := e.RunPRIX(qs, prix.MatchOptions{})
			if err != nil {
				return err
			}
			vr, err := e.RunViST(qs)
			if err != nil {
				return err
			}
			tr, err := e.RunTwigStack(qs, twigstack.TwigStack)
			if err != nil {
				return err
			}
			xr, err := e.RunTwigStack(qs, twigstack.TwigStackXB)
			if err != nil {
				return err
			}
			rows = append(rows, pr, vr, tr, xr)
		}
	}
	writeRows(w, "Figure 6: elapsed time, all queries x all engines", rows)
	return nil
}

// AblationMaxGap reports the effect of Theorem 4's pruning.
func (s *Session) AblationMaxGap(w io.Writer) error {
	var rows []Row
	for _, name := range datagen.Names() {
		e, err := s.Engines(name)
		if err != nil {
			return err
		}
		ds := e.Dataset
		for _, qs := range ds.Queries {
			on, err := e.RunPRIX(qs, prix.MatchOptions{})
			if err != nil {
				return err
			}
			on.Engine += "+maxgap"
			off, err := e.RunPRIX(qs, prix.MatchOptions{DisableMaxGap: true})
			if err != nil {
				return err
			}
			off.Engine += "-maxgap"
			if on.Count != off.Count {
				return fmt.Errorf("bench: MaxGap pruning changed %s result: %d vs %d", qs.ID, on.Count, off.Count)
			}
			rows = append(rows, on, off)
		}
	}
	writeRows(w, "Ablation: MaxGap pruning (Theorem 4) on/off", rows)
	return nil
}

// AblationExtended compares RPIndex vs EPIndex on the value queries.
func (s *Session) AblationExtended(w io.Writer) error {
	var rows []Row
	for _, name := range []string{"DBLP", "SWISSPROT"} {
		e, err := s.Engines(name)
		if err != nil {
			return err
		}
		ds := e.Dataset
		for _, qs := range ds.Queries {
			if !qs.Extended {
				continue
			}
			ep, err := e.RunPRIX(qs, prix.MatchOptions{})
			if err != nil {
				return err
			}
			rows = append(rows, ep)
			// Some value queries cannot run on the RPIndex (wildcard
			// leaf edges); note and skip those.
			qs.Extended = false // force the RPIndex; qs is a copy
			rp, err := e.RunPRIX(qs, prix.MatchOptions{})
			if err != nil {
				rows = append(rows, Row{Query: qs.ID, Engine: "PRIX(RP)", Note: "unsupported: " + truncate(err.Error(), 48)})
				continue
			}
			rows = append(rows, rp)
		}
	}
	writeRows(w, "Ablation: EPIndex vs RPIndex on value queries (§5.6)", rows)
	return nil
}

// AblationBottomUp contrasts PRIX's bottom-up transformation with ViST's
// top-down one via the index-probe counts of the same queries (§6.4.1).
func (s *Session) AblationBottomUp(w io.Writer) error {
	fmt.Fprintf(w, "\nAblation: bottom-up (PRIX) vs top-down (ViST) transformation\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Query\tPRIX range queries\tViST keys examined\tPRIX pages\tViST pages")
	for _, name := range datagen.Names() {
		e, err := s.Engines(name)
		if err != nil {
			return err
		}
		ds := e.Dataset
		for _, qs := range ds.Queries {
			ix := e.RP
			if qs.Extended {
				ix = e.EP
			}
			_, ps, err := ix.Match(qs.Query(), prix.MatchOptions{})
			if err != nil {
				return err
			}
			_, vs, err := e.ViST.Match(qs.Query())
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n", qs.ID, ps.RangeQueries, vs.KeysExamined, ps.PagesRead, vs.PagesRead)
		}
	}
	return tw.Flush()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// All runs every table, figure and ablation, sharing built engines.
func (s *Session) All(w io.Writer) error {
	steps := []func(io.Writer) error{
		s.Table2, s.Table3, s.Table4, s.Table5, s.Table6, s.Table7,
		s.Table8, s.Table9, s.Figure6, s.AblationMaxGap,
		s.AblationExtended, s.AblationBottomUp, s.AblationPoolSize,
		s.AblationCardinality,
	}
	for _, f := range steps {
		if err := f(w); err != nil {
			return err
		}
	}
	return nil
}
