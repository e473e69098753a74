// Command prixscrub is the standalone scrub/repair/snapshot tool for a
// PRIX index directory. Unlike prixcheck (which never touches the files),
// prixscrub opens the index for real — journal recovery runs first — and
// can heal damage in place using the same online-repair machinery the
// query service runs in the background.
//
// Usage:
//
//	prixscrub -index /tmp/idx                 # one scrub pass, report findings
//	prixscrub -index /tmp/idx -repair         # scrub and repair in place
//	prixscrub -index /tmp/idx -snapshot /bak  # consistent snapshot of the index
//	prixscrub -index /tmp/idx -restore /bak   # replace the index with a snapshot
//	prixscrub -index /tmp/idx -compact        # offline compaction into a packed epoch
//
// -compact rewrites a dynamic index's accumulated inserts into the packed
// bulk layout under a new epoch directory, committing via an atomic CURRENT
// pointer write, and on a sharded layout compacts every replica of every
// shard. It is crash-safe: a power cut leaves the old layout serving until
// CURRENT commits, and rerunning it deletes what the cut left and compacts
// again.
//
// Exit status: 0 when the index verifies clean (after repair, if requested),
// 1 when damage remains, 2 when the index cannot be opened.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("prixscrub: ")
	var (
		dir      = flag.String("index", "", "index directory (required)")
		repair   = flag.Bool("repair", false, "repair damage in place from the index's Prüfer redundancy")
		snapshot = flag.String("snapshot", "", "write a consistent snapshot of the index to this directory and exit")
		restore  = flag.String("restore", "", "replace the index files with the snapshot in this directory and exit")
		compact  = flag.Bool("compact", false, "compact the index offline into a packed epoch and exit")
		budget   = flag.Int64("compact-budget", 0, "compaction memory budget in bytes (default 32 MiB)")
		jsonOut  = flag.Bool("json", false, "print the pass report as JSON")
	)
	flag.Parse()
	if *dir == "" {
		log.Print("usage: prixscrub -index DIR [-repair | -snapshot DEST | -restore SRC | -compact]")
		os.Exit(2)
	}
	if *restore != "" {
		// Restore never opens the index: it must work precisely when the
		// index is too damaged to open.
		if err := core.RestoreSnapshot(*dir, *restore); err != nil {
			log.Fatal(err)
		}
		log.Printf("restored %s from %s", *dir, *restore)
		return
	}

	if *compact {
		reps, err := compactDir(*dir, *budget)
		if err != nil {
			log.Fatal(err)
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			_ = enc.Encode(reps)
			return
		}
		for _, rep := range reps {
			fmt.Printf("compact: %d docs -> %s (epoch %d, %d runs, %d run bytes, %v)\n",
				rep.Docs, rep.Dir, rep.Epoch, rep.Runs, rep.RunBytes, rep.Elapsed)
		}
		return
	}

	// A compacted layout keeps its files under an epoch subdirectory;
	// follow the CURRENT pointer before opening.
	resolved, err := core.ResolveIndexDir(*dir)
	if err != nil {
		log.Printf("resolve: %v", err)
		os.Exit(2)
	}
	ix, err := core.OpenIndex(resolved, core.Options{})
	if err != nil {
		log.Printf("open: %v (a snapshot restore may be needed: prixscrub -index %s -restore SNAPDIR)", err, *dir)
		os.Exit(2)
	}

	if *snapshot != "" {
		if err := ix.Snapshot(*snapshot); err != nil {
			ix.Close()
			log.Fatal(err)
		}
		if err := ix.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("snapshot of %s written to %s", *dir, *snapshot)
		return
	}

	rep, err := scrubPass(ix, *repair)
	if err != nil {
		ix.Close()
		log.Fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	} else {
		fmt.Printf("pass: %d pages scanned, %d docs scanned, %d findings, %d pages repaired, %d doc repairs, forest rebuilt: %v\n",
			rep.PagesScanned, rep.DocsScanned, len(rep.Findings), rep.PagesRepaired, len(rep.Repairs), rep.ForestRebuilt)
		for _, f := range rep.Findings {
			fmt.Printf("finding: kind=%s file=%s page=%d doc=%d: %s\n", f.Kind, f.File, f.Page, f.Doc, f.Err)
		}
		for _, r := range rep.Repairs {
			if r.Err != "" {
				fmt.Printf("repair: doc=%d action=%s error=%s\n", r.Doc, r.Action, r.Err)
			} else {
				fmt.Printf("repair: doc=%d action=%s\n", r.Doc, r.Action)
			}
		}
		if len(rep.Quarantined) > 0 {
			fmt.Printf("quarantined: %v (restore from a snapshot to recover these)\n", rep.Quarantined)
		}
	}
	if err := ix.Close(); err != nil {
		log.Fatal(err)
	}
	if !rep.Clean {
		os.Exit(1)
	}
	fmt.Println("prixscrub: clean")
}

// scrubPass runs prixscrub's one scrub pass over ix, repairing what it finds
// when repair is set.
func scrubPass(ix *core.Index, repair bool) (*core.ScrubReport, error) {
	sc := core.NewScrubber(ix, core.ScrubConfig{Throttle: -1, AutoRepair: repair})
	return sc.RunPass(context.Background())
}

// compactDir compacts the index at dir offline into a new epoch — every
// replica of every shard when dir is a sharded layout — whatever epoch it
// is at.
func compactDir(dir string, budget int64) ([]*core.CompactionReport, error) {
	o := core.CompactionOptions{Dir: dir, MemBudget: budget}
	if _, err := core.LoadShardTopology(dir); err == nil {
		return core.CompactShardedIndex(dir, o)
	}
	rep, err := core.CompactIndex(o)
	return []*core.CompactionReport{rep}, err
}
