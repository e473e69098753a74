// Command prixload builds a persistent PRIX index, either from XML files,
// from one large streamed XML input, or from one of the built-in synthetic
// datasets. With -shards > 1 it builds a sharded layout instead: documents
// are partitioned by docid hash into shard-NNN/replica-NNN index directories
// under -out, described by topology.json, and served by prixserve's
// scatter-gather coordinator.
//
// The -stream mode runs the streaming bulk ingest: the input is streamed
// one record at a time under -mem-budget into a scratch run under
// -out/.ingest, which is then bulk-loaded into the index. The index's own
// commit (topology.json for a sharded layout) is written last, so an
// interrupted build leaves no index that opens and is recovered by running
// the same command again. Malformed records are skipped, counted and
// reported up to -skip-budget.
//
// Usage:
//
//	prixload -out /tmp/idx -dataset dblp -scale 1 [-extended]
//	prixload -out /tmp/idx -xml 'docs/*.xml' [-extended]
//	prixload -out /tmp/sharded -dataset dblp -shards 4 -replicas 2
//	prixload -out /tmp/idx -stream corpus.xml -split -mem-budget 64M
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/datagen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("prixload: ")
	var (
		out       = flag.String("out", "", "output directory for the index (required)")
		dataset   = flag.String("dataset", "", "built-in dataset: dblp, swissprot or treebank")
		scale     = flag.Int("scale", 1, "dataset scale factor")
		seed      = flag.Int64("seed", 1, "dataset generator seed")
		xmlGlob   = flag.String("xml", "", "glob of XML files to index (one document per file)")
		stream    = flag.String("stream", "", "one large XML file to bulk-ingest with bounded memory")
		memBudget = flag.String("mem-budget", "", "memory budget for -stream, e.g. 64M or 1G (default 32M)")
		split     = flag.Bool("split", false, "treat each child of the -stream input's root element as its own document")
		skips     = flag.Int("skip-budget", 0, "malformed records tolerated (skipped and reported) before -stream fails")
		resyncTag = flag.String("resync-tag", "", "record tag -stream resynchronizes on after a malformed record (default: inferred)")
		workDir   = flag.String("work", "", "scratch directory for -stream, removed when it ends (default <out>/.ingest)")
		extended  = flag.Bool("extended", false, "build an Extended-Prüfer index (EPIndex, for value queries)")
		pool      = flag.Int("pool", 0, "buffer pool pages (default 2000)")
		shards    = flag.Int("shards", 1, "partition the collection into N shards (sharded layout when > 1)")
		replicas  = flag.Int("replicas", 1, "identical copies of each shard (sharded layout only)")
	)
	flag.Parse()
	if *out == "" {
		log.Fatal("-out is required")
	}
	if *shards < 1 || *replicas < 1 {
		log.Fatal("-shards and -replicas must be >= 1")
	}
	sharded := *shards > 1 || *replicas > 1

	if *stream != "" {
		if *dataset != "" || *xmlGlob != "" {
			log.Fatal("-stream is exclusive with -dataset and -xml")
		}
		budget, err := parseBytes(*memBudget)
		if err != nil {
			log.Fatalf("-mem-budget: %v", err)
		}
		o := core.IngestOptions{
			Input:           *stream,
			Dir:             *out,
			WorkDir:         *workDir,
			Split:           *split,
			ResyncTag:       *resyncTag,
			Extended:        *extended,
			MemBudget:       budget,
			SkipBudget:      *skips,
			BufferPoolPages: *pool,
		}
		if sharded {
			o.Shards = *shards
			o.Replicas = *replicas
		}
		rep, err := core.StreamIngest(o)
		if err != nil {
			log.Fatal(err)
		}
		printIngestReport(rep, *out, *extended)
		return
	}

	switch {
	case *xmlGlob != "":
		paths, err := filepath.Glob(*xmlGlob)
		if err != nil {
			log.Fatal(err)
		}
		if len(paths) == 0 {
			log.Fatalf("no files match %q", *xmlGlob)
		}
		sort.Strings(paths)
		buildFromFiles(paths, *out, sharded, core.ShardBuildConfig{
			Shards:          *shards,
			Replicas:        *replicas,
			Extended:        *extended,
			BufferPoolPages: *pool,
		})
	case *dataset != "":
		ds, err := datagen.ByName(*dataset, *scale, *seed)
		if err != nil {
			log.Fatal(err)
		}
		buildFromDocs(ds.Docs, *out, sharded, core.ShardBuildConfig{
			Shards:          *shards,
			Replicas:        *replicas,
			Extended:        *extended,
			BufferPoolPages: *pool,
		})
	default:
		log.Fatal("one of -dataset, -xml or -stream is required")
	}
}

// buildFromFiles indexes one document per file without ever holding more
// than one parsed document in memory: the plain build feeds an incremental
// builder, the sharded build streams one pass per shard.
func buildFromFiles(paths []string, out string, sharded bool, cfg core.ShardBuildConfig) {
	source := func() (func() (*core.Document, error), error) {
		i := 0
		return func() (*core.Document, error) {
			if i >= len(paths) {
				return nil, io.EOF
			}
			p := paths[i]
			f, err := os.Open(p)
			if err != nil {
				return nil, err
			}
			doc, err := core.ParseXML(i, f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			i++
			return doc, nil
		}, nil
	}
	if sharded {
		topo, err := core.BuildShardedIndexStream(out, source, cfg)
		if err != nil {
			log.Fatal(err)
		}
		printShardedSummary(topo, out)
		return
	}
	b, err := core.NewIndexBuilder(core.Options{
		Extended:        cfg.Extended,
		Dir:             out,
		BufferPoolPages: cfg.BufferPoolPages,
	})
	if err != nil {
		log.Fatal(err)
	}
	next, _ := source()
	for {
		doc, err := next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			b.Abort()
			log.Fatal(err)
		}
		if err := b.Add(doc); err != nil {
			b.Abort()
			log.Fatal(err)
		}
	}
	ix, err := b.Finalize()
	if err != nil {
		log.Fatal(err)
	}
	printIndexSummary(ix, out)
	if err := ix.Close(); err != nil {
		log.Fatal(err)
	}
}

// buildFromDocs indexes an in-memory collection (the synthetic datasets,
// which the generator materializes anyway).
func buildFromDocs(docs []*core.Document, out string, sharded bool, cfg core.ShardBuildConfig) {
	if sharded {
		topo, err := core.BuildShardedIndex(out, docs, cfg)
		if err != nil {
			log.Fatal(err)
		}
		printShardedSummary(topo, out)
		return
	}
	ix, err := core.BuildIndex(docs, core.Options{
		Extended:        cfg.Extended,
		Dir:             out,
		BufferPoolPages: cfg.BufferPoolPages,
	})
	if err != nil {
		log.Fatal(err)
	}
	printIndexSummary(ix, out)
	if err := ix.Close(); err != nil {
		log.Fatal(err)
	}
}

func printIndexSummary(ix *core.Index, out string) {
	kind := "RPIndex"
	if ix.Extended() {
		kind = "EPIndex"
	}
	fmt.Printf("built %s over %d documents in %s\n", kind, ix.NumDocs(), out)
	if n, ok := ix.Stat("trienodes"); ok {
		seqs, _ := ix.Stat("sequences")
		fmt.Printf("virtual trie: %d nodes for %d sequences\n", n, seqs)
	}
}

func printShardedSummary(topo *core.ShardTopology, out string) {
	kind := "RPIndex"
	if topo.Extended {
		kind = "EPIndex"
	}
	fmt.Printf("built sharded %s over %d documents in %s: %d shards x %d replicas (epoch %d)\n",
		kind, topo.Docs, out, topo.Shards, topo.Replicas, topo.Epoch)
}

func printIngestReport(rep *core.IngestReport, out string, extended bool) {
	kind := "RPIndex"
	if extended {
		kind = "EPIndex"
	}
	layout := out
	if rep.Shards > 0 {
		layout = fmt.Sprintf("%s (%d shards)", out, rep.Shards)
	}
	fmt.Printf("ingested %d documents into %s %s\n", rep.Docs, kind, layout)
	if rep.Skips > 0 {
		fmt.Printf("skipped %d malformed records:\n", rep.Skips)
		for _, s := range rep.SkipDetail {
			fmt.Printf("  record %d at byte %d: %s\n", s.Ordinal, s.Offset, s.Error)
		}
		if rep.Skips > len(rep.SkipDetail) {
			fmt.Printf("  ... and %d more\n", rep.Skips-len(rep.SkipDetail))
		}
	}
}

// parseBytes reads a byte count with an optional K/M/G suffix ("64M").
func parseBytes(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch u := strings.ToUpper(s); {
	case strings.HasSuffix(u, "K"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(u, "M"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(u, "G"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}
