package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/datagen"
	"repro/internal/prix"
	"repro/internal/twigstack"
)

// AblationPoolSize sweeps the buffer pool capacity and reruns one
// representative query per dataset on PRIX and TwigStackXB. The paper fixed
// the pool at 2000 pages on data far larger than memory; at laptop scale
// the sweep shows where each engine leaves the CPU-bound regime: physical
// reads rise as the pool shrinks below an engine's working set, and the
// engine whose working set is smaller (PRIX's few trie paths vs the stack
// algorithms' whole streams) keeps its page count flat longest.
func (s *Session) AblationPoolSize(w io.Writer) error {
	fmt.Fprintf(w, "\nAblation: buffer pool size sweep (pages read per query)\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Query\tEngine\tpool=8\tpool=64\tpool=2000")
	picks := []pick{{"DBLP", "Q1"}, {"SWISSPROT", "Q6"}, {"TREEBANK", "Q7"}}
	pools := []int{8, 64, 2000}
	for _, p := range picks {
		ds, err := s.Dataset(p.dataset)
		if err != nil {
			return err
		}
		var qs *datagen.QuerySpec
		for i := range ds.Queries {
			if ds.Queries[i].ID == p.qid {
				qs = &ds.Queries[i]
				break
			}
		}
		if qs == nil {
			return fmt.Errorf("bench: query %s not in %s", p.qid, p.dataset)
		}
		prixPages := make([]uint64, len(pools))
		xbPages := make([]uint64, len(pools))
		for i, pool := range pools {
			cfg := s.cfg
			cfg.PoolPages = pool
			e, err := BuildEngines(ds, cfg)
			if err != nil {
				return err
			}
			pr, err := e.RunPRIX(*qs, prix.MatchOptions{})
			if err != nil {
				return err
			}
			if pr.Count != qs.Want {
				return fmt.Errorf("bench: %s pool=%d: %d matches, want %d", qs.ID, pool, pr.Count, qs.Want)
			}
			xr, err := e.RunTwigStack(*qs, twigstack.TwigStackXB)
			if err != nil {
				return err
			}
			if xr.Count != qs.Want {
				return fmt.Errorf("bench: %s pool=%d: XB %d matches, want %d", qs.ID, pool, xr.Count, qs.Want)
			}
			prixPages[i] = pr.Pages
			xbPages[i] = xr.Pages
		}
		fmt.Fprintf(tw, "%s\tPRIX\t%d\t%d\t%d\n", qs.ID, prixPages[0], prixPages[1], prixPages[2])
		fmt.Fprintf(tw, "%s\tTwigStackXB\t%d\t%d\t%d\n", qs.ID, xbPages[0], xbPages[1], xbPages[2])
	}
	return tw.Flush()
}
