package repro

// One benchmark per table and figure of the paper's evaluation (§6), plus
// the ablation studies listed in DESIGN.md. Engines are built once per
// dataset and shared; each benchmark iteration executes queries cold
// (buffer pools dropped inside Match) and reports pages read per operation
// alongside time, mirroring the paper's two reported metrics.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/prix"
	"repro/internal/twigstack"
)

var (
	sessOnce sync.Once
	sess     *bench.Session
)

func session(b *testing.B) *bench.Session {
	b.Helper()
	sessOnce.Do(func() {
		sess = bench.NewSession(bench.Config{Scale: 1, Seed: 1, PoolPages: 512})
	})
	return sess
}

func engines(b *testing.B, dataset string) *bench.Engines {
	b.Helper()
	e, err := session(b).Engines(dataset)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// runQueryBench executes one query spec against one engine runner b.N
// times, reporting pages/op.
func runQueryBench(b *testing.B, run func() (bench.Row, error), want int) {
	b.Helper()
	var pages uint64
	for i := 0; i < b.N; i++ {
		row, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if want >= 0 && row.Count != want {
			b.Fatalf("count = %d, want %d", row.Count, want)
		}
		pages += row.Pages
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
}

// BenchmarkTable2DatasetStats regenerates the dataset statistics table.
func BenchmarkTable2DatasetStats(b *testing.B) {
	datasets := make([]*datagen.Dataset, 0, 3)
	for _, name := range datagen.Names() {
		ds, err := datagen.ByName(name, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		datasets = append(datasets, ds)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ds := range datasets {
			s := ds.Summarize()
			if s.Documents == 0 {
				b.Fatal("empty dataset")
			}
		}
	}
}

// BenchmarkTable3QueryMatches runs all nine queries on PRIX and checks the
// paper's match counts.
func BenchmarkTable3QueryMatches(b *testing.B) {
	for _, name := range datagen.Names() {
		e := engines(b, name)
		for _, qs := range e.Dataset.Queries {
			qs := qs
			b.Run(qs.ID, func(b *testing.B) {
				runQueryBench(b, func() (bench.Row, error) {
					return e.RunPRIX(qs, prix.MatchOptions{})
				}, qs.Want)
			})
		}
	}
}

// prixVsVistBench is the shared shape of Tables 4, 5 and 6.
func prixVsVistBench(b *testing.B, dataset string) {
	e := engines(b, dataset)
	for _, qs := range e.Dataset.Queries {
		qs := qs
		b.Run(qs.ID+"/PRIX", func(b *testing.B) {
			runQueryBench(b, func() (bench.Row, error) {
				return e.RunPRIX(qs, prix.MatchOptions{})
			}, qs.Want)
		})
		b.Run(qs.ID+"/ViST", func(b *testing.B) {
			runQueryBench(b, func() (bench.Row, error) {
				return e.RunViST(qs)
			}, -1) // ViST reports candidate docs, not twig matches
		})
	}
}

// BenchmarkTable4DBLPPrixVsVist is DBLP: PRIX vs ViST.
func BenchmarkTable4DBLPPrixVsVist(b *testing.B) { prixVsVistBench(b, "DBLP") }

// BenchmarkTable5SwissPrixVsVist is SWISSPROT: PRIX vs ViST.
func BenchmarkTable5SwissPrixVsVist(b *testing.B) { prixVsVistBench(b, "SWISSPROT") }

// BenchmarkTable6TreebankPrixVsVist is TREEBANK: PRIX vs ViST.
func BenchmarkTable6TreebankPrixVsVist(b *testing.B) { prixVsVistBench(b, "TREEBANK") }

// BenchmarkTable7TwigStackVsXB is DBLP: TwigStack vs TwigStackXB.
func BenchmarkTable7TwigStackVsXB(b *testing.B) {
	e := engines(b, "DBLP")
	for _, qs := range e.Dataset.Queries {
		qs := qs
		for _, algo := range []twigstack.Algorithm{twigstack.TwigStack, twigstack.TwigStackXB} {
			algo := algo
			b.Run(fmt.Sprintf("%s/%v", qs.ID, algo), func(b *testing.B) {
				runQueryBench(b, func() (bench.Row, error) {
					return e.RunTwigStack(qs, algo)
				}, qs.Want)
			})
		}
	}
}

// prixVsXBBench is the shared shape of Tables 8 and 9.
func prixVsXBBench(b *testing.B, picks map[string]string) {
	for dataset, qid := range picks {
		e := engines(b, dataset)
		for _, qs := range e.Dataset.Queries {
			if qs.ID != qid {
				continue
			}
			qs := qs
			b.Run(qs.ID+"/PRIX", func(b *testing.B) {
				runQueryBench(b, func() (bench.Row, error) {
					return e.RunPRIX(qs, prix.MatchOptions{})
				}, qs.Want)
			})
			b.Run(qs.ID+"/TwigStackXB", func(b *testing.B) {
				runQueryBench(b, func() (bench.Row, error) {
					return e.RunTwigStack(qs, twigstack.TwigStackXB)
				}, qs.Want)
			})
		}
	}
}

// BenchmarkTable8PrixVsXBClustered: queries with clustered solutions.
func BenchmarkTable8PrixVsXBClustered(b *testing.B) {
	prixVsXBBench(b, map[string]string{"DBLP": "Q1", "SWISSPROT": "Q5", "TREEBANK": "Q7"})
}

// BenchmarkTable9PrixVsXBScattered: scattered solutions and parent-child
// sub-optimality.
func BenchmarkTable9PrixVsXBScattered(b *testing.B) {
	prixVsXBBench(b, map[string]string{"DBLP": "Q2", "SWISSPROT": "Q6", "TREEBANK": "Q8"})
}

// BenchmarkFigure6AllEngines runs every query on every engine.
func BenchmarkFigure6AllEngines(b *testing.B) {
	for _, name := range datagen.Names() {
		e := engines(b, name)
		for _, qs := range e.Dataset.Queries {
			qs := qs
			b.Run(qs.ID+"/PRIX", func(b *testing.B) {
				runQueryBench(b, func() (bench.Row, error) { return e.RunPRIX(qs, prix.MatchOptions{}) }, qs.Want)
			})
			b.Run(qs.ID+"/ViST", func(b *testing.B) {
				runQueryBench(b, func() (bench.Row, error) { return e.RunViST(qs) }, -1)
			})
			b.Run(qs.ID+"/TwigStack", func(b *testing.B) {
				runQueryBench(b, func() (bench.Row, error) { return e.RunTwigStack(qs, twigstack.TwigStack) }, qs.Want)
			})
			b.Run(qs.ID+"/TwigStackXB", func(b *testing.B) {
				runQueryBench(b, func() (bench.Row, error) { return e.RunTwigStack(qs, twigstack.TwigStackXB) }, qs.Want)
			})
		}
	}
}

// BenchmarkAblationMaxGap isolates Theorem 4's pruning.
func BenchmarkAblationMaxGap(b *testing.B) {
	for _, name := range datagen.Names() {
		e := engines(b, name)
		for _, qs := range e.Dataset.Queries {
			qs := qs
			for _, mode := range []struct {
				name string
				opts prix.MatchOptions
			}{
				{"on", prix.MatchOptions{}},
				{"off", prix.MatchOptions{DisableMaxGap: true}},
			} {
				mode := mode
				b.Run(qs.ID+"/maxgap-"+mode.name, func(b *testing.B) {
					runQueryBench(b, func() (bench.Row, error) {
						return e.RunPRIX(qs, mode.opts)
					}, qs.Want)
				})
			}
		}
	}
}

// BenchmarkAblationExtendedVsRegular compares index variants on value
// queries (§5.6).
func BenchmarkAblationExtendedVsRegular(b *testing.B) {
	for _, name := range []string{"DBLP", "SWISSPROT"} {
		e := engines(b, name)
		for _, qs := range e.Dataset.Queries {
			if !qs.Extended {
				continue
			}
			rp := qs
			rp.Extended = false
			b.Run(qs.ID+"/EP", func(b *testing.B) {
				runQueryBench(b, func() (bench.Row, error) {
					return e.RunPRIX(qs, prix.MatchOptions{})
				}, qs.Want)
			})
			// Some value queries cannot run on an RPIndex at all.
			if _, err := e.RunPRIX(rp, prix.MatchOptions{}); err != nil {
				continue
			}
			b.Run(qs.ID+"/RP", func(b *testing.B) {
				runQueryBench(b, func() (bench.Row, error) {
					return e.RunPRIX(rp, prix.MatchOptions{})
				}, qs.Want)
			})
		}
	}
}

// BenchmarkAblationBottomUp contrasts PRIX's bottom-up probe counts with
// ViST's top-down ones (§6.4.1) via the per-query index-probe statistics.
func BenchmarkAblationBottomUp(b *testing.B) {
	for _, name := range datagen.Names() {
		e := engines(b, name)
		for _, qs := range e.Dataset.Queries {
			qs := qs
			b.Run(qs.ID, func(b *testing.B) {
				var prixProbes, vistProbes float64
				for i := 0; i < b.N; i++ {
					pr, err := e.RunPRIX(qs, prix.MatchOptions{})
					if err != nil {
						b.Fatal(err)
					}
					vr, err := e.RunViST(qs)
					if err != nil {
						b.Fatal(err)
					}
					var p, v int
					fmt.Sscanf(pr.Note, "rq=%d", &p)
					fmt.Sscanf(vr.Note, "keys=%d", &v)
					prixProbes += float64(p)
					vistProbes += float64(v)
				}
				b.ReportMetric(prixProbes/float64(b.N), "prix-probes/op")
				b.ReportMetric(vistProbes/float64(b.N), "vist-keys/op")
			})
		}
	}
}
