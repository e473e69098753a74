// Command prixquery runs twig queries against a persistent PRIX index
// built by prixload. Queries run through the same execution path as the
// prixserve HTTP service (core.Executor), so deadlines and options behave
// identically in both entry points.
//
// Usage:
//
//	prixquery -index /tmp/idx '//inproceedings[./author="Jim Gray"][./year="1990"]'
//	prixquery -index /tmp/idx -unordered -count '//a[./c]/b'
//
// When -index points at a sharded layout (prixload -shards), the query
// fans out through the scatter-gather coordinator. A degraded answer —
// any shard quarantined or down, so matches may be missing — exits 1, not
// 0, and names the degraded shards on stderr; with -trace the span tree
// shows the per-shard fan-out and which replica attempts degraded.
//
// Exit codes: 0 success, 1 execution failure (I/O, deadline, engine error)
// or a degraded (partial) answer, 2 usage or query-parse error. All
// diagnostics go to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
)

const (
	exitOK    = 0
	exitError = 1 // execution failed: I/O, deadline, engine error
	exitUsage = 2 // bad invocation or unparsable query
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "prixquery: %v\n", err)
		return code
	}
	fs := flag.NewFlagSet("prixquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir       = fs.String("index", "", "index directory (required)")
		unordered = fs.Bool("unordered", false, "find unordered twig matches (§5.7)")
		nogap     = fs.Bool("nomaxgap", false, "disable MaxGap pruning (Theorem 4)")
		countOnly = fs.Bool("count", false, "print only the match count")
		limit     = fs.Int("limit", 20, "maximum matches to print")
		pool      = fs.Int("pool", 0, "buffer pool pages (default 2000)")
		par       = fs.Int("parallelism", 0, "query worker cap (0 = GOMAXPROCS, 1 = serial); results are identical at every setting")
		trace     = fs.Bool("trace", false, "print the per-stage execution span tree after the results")
		timeout   = fs.Duration("timeout", 0, "per-query deadline (0 = none)")
		recon     = fs.Int("reconstruct", -1, "instead of querying, rebuild document N from the index and print it")
		asOf      = fs.Uint64("as-of", 0, "answer at this MVCC version (0 = latest); requires a versioned index")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *dir == "" {
		return fail(exitUsage, fmt.Errorf("usage: prixquery -index DIR 'XPATH'"))
	}
	// A topology.json in the directory selects the sharded scatter-gather
	// path; both sources run through the same executor below.
	var (
		src         core.QuerySource
		reconstruct func(uint32) (*core.Document, error)
	)
	if _, terr := core.LoadShardTopology(*dir); terr == nil {
		co, err := core.OpenShardedIndex(*dir, core.Options{BufferPoolPages: *pool}, core.ShardConfig{
			// Compacted replicas keep their files under an epoch
			// subdirectory; the resolver follows each CURRENT pointer.
			ResolveDir: core.ResolveIndexDir,
		})
		if err != nil {
			return fail(exitError, err)
		}
		defer co.Close()
		src = co
		reconstruct = co.ReconstructDocument
	} else {
		// A compacted directory holds only a CURRENT pointer to the live
		// epoch; plain directories resolve to themselves.
		resolved, err := core.ResolveIndexDir(*dir)
		if err != nil {
			return fail(exitError, err)
		}
		ix, err := core.OpenIndex(resolved, core.Options{BufferPoolPages: *pool})
		if err != nil {
			return fail(exitError, err)
		}
		src = ix
		reconstruct = ix.ReconstructDocument
	}
	if *recon >= 0 {
		doc, err := reconstruct(uint32(*recon))
		if err != nil {
			return fail(exitError, err)
		}
		if err := doc.WriteXML(stdout); err != nil {
			return fail(exitError, err)
		}
		fmt.Fprintln(stdout)
		return exitOK
	}
	if fs.NArg() != 1 {
		return fail(exitUsage, fmt.Errorf("usage: prixquery -index DIR 'XPATH'"))
	}
	q, err := core.ParseQuery(fs.Arg(0))
	if err != nil {
		return fail(exitUsage, err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// One-shot execution: no result cache, same path as the HTTP service.
	exec := core.NewExecutor(src, -1, 0, nil)
	var tr *core.Trace
	if *trace {
		tr = core.NewTrace(fs.Arg(0))
	}
	res, err := exec.Execute(ctx, q, core.QueryOptions{
		Unordered:     *unordered,
		DisableMaxGap: *nogap,
		Parallelism:   *par,
		Trace:         tr,
		AsOf:          *asOf,
	})
	if err != nil {
		return fail(exitError, err)
	}
	ms, stats := res.Matches, res.Stats
	fmt.Fprintf(stdout, "%d matches in %v (%d range queries, %d candidates, %d pages read)\n",
		len(ms), stats.Elapsed, stats.RangeQueries, stats.Candidates, stats.PagesRead)
	if !*countOnly {
		for i, m := range ms {
			if i >= *limit {
				fmt.Fprintf(stdout, "... and %d more\n", len(ms)-*limit)
				break
			}
			fmt.Fprintf(stdout, "doc %d: images %v\n", m.DocID, m.Images)
		}
	}
	if tr != nil {
		tr.Finish()
		fmt.Fprintln(stdout)
		core.RenderTrace(stdout, tr)
	}
	// A degraded answer (quarantined documents skipped, or a whole shard
	// down) is partial: scripts must not mistake it for the full result.
	if stats.Degraded {
		if len(stats.DegradedShards) > 0 {
			names := make([]string, len(stats.DegradedShards))
			for i, id := range stats.DegradedShards {
				names[i] = core.ShardName(id)
			}
			if tr != nil {
				fmt.Fprintf(stdout, "\ndegraded shards: %s\n", strings.Join(names, ", "))
			}
			return fail(exitError, fmt.Errorf("degraded (partial) result: %s", strings.Join(names, ", ")))
		}
		return fail(exitError, fmt.Errorf("degraded (partial) result: %d documents quarantined",
			len(src.Stats().Quarantined)))
	}
	return exitOK
}
