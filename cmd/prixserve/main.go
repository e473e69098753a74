// Command prixserve serves twig queries over a persistent PRIX index as an
// HTTP service: POST /query executes an XPath-subset query, GET /healthz,
// GET /metrics (Prometheus text) and GET /stats expose service health,
// GET /scrub reports the background integrity scrubber and POST /repair
// runs an online repair pass without restarting the server. Per-query
// observability: POST /query?trace=1 returns the execution span tree,
// GET /debug/slowlog serves the slow-query ring buffer and /debug/pprof/
// exposes the runtime profiler.
//
// A single index — any build's — is served through a compaction root:
// -compact-interval runs a rate-limited background pass that rewrites the
// accumulated inserts into the packed bulk layout and swaps epochs with
// zero downtime (queries never pause; inserts pause only for the final
// catch-up window), and POST /compact forces a pass. Startup deletes what a
// compaction a crash interrupted left behind before serving; the next pass
// compacts again.
//
// When -index points at a sharded layout (a directory holding the
// topology.json written by prixload -shards), prixserve serves it through
// the scatter-gather coordinator: queries fan out to every shard
// concurrently, results merge into exactly the single-index order, and a
// quarantined or dead shard degrades alone — the response is partial with
// X-Prix-Degraded naming the shard, never a 500. Each shard replica gets
// its own scrubber, so /scrub and /repair cover the whole fleet.
//
// Usage:
//
//	prixserve -index /tmp/idx -addr :8080
//	prixserve -index /tmp/sharded -replicas 2 -hedge 50ms
//	curl -s localhost:8080/query -d '//inproceedings[./year="1990"]/title'
//	curl -s localhost:8080/query -d '{"query": "//a[./b]/c", "timeout_ms": 100}'
//
// SIGINT/SIGTERM triggers a graceful shutdown: new queries are refused with
// 503 while in-flight ones run to completion (bounded by -drain-timeout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("prixserve: ")
	var (
		dir       = flag.String("index", "", "index directory (required)")
		addr      = flag.String("addr", ":8080", "listen address")
		inflight  = flag.Int("max-inflight", 0, "max concurrently executing queries (default 64; excess gets 429)")
		timeout   = flag.Duration("timeout", 0, "default per-query deadline (default 2s; negative = none)")
		maxTO     = flag.Duration("max-timeout", 0, "cap on client-requested deadlines (default 30s)")
		cacheCap  = flag.Int("cache", 0, "result cache entries (default 1024; negative disables)")
		shards    = flag.Int("cache-shards", 0, "result cache shards (default 16)")
		maxMatch  = flag.Int("max-matches", 0, "max matches serialized per response (default 1000)")
		pool      = flag.Int("pool", 0, "buffer pool pages (default 2000)")
		par       = flag.Int("parallelism", 0, "default per-query worker cap (0 = GOMAXPROCS, 1 = serial; requests may override)")
		drainTO   = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight queries on shutdown")
		scrubIv   = flag.Duration("scrub-interval", 30*time.Second, "background scrub pass interval (0 disables the scrubber)")
		scrubFix  = flag.Bool("scrub-repair", true, "let scrub passes repair damage automatically (POST /repair works either way)")
		slowCap   = flag.Int("slowlog", 0, "slow-query ring buffer entries at GET /debug/slowlog (default 64; negative disables)")
		slowAfter = flag.Duration("slowlog-threshold", 0, "log queries at or above this elapsed time (default 100ms; negative logs all)")
		noTrace   = flag.Bool("no-tracing", false, "disable per-query span collection (stage histograms, slowlog traces, ?trace=1)")
		noPprof   = flag.Bool("no-pprof", false, "remove the net/http/pprof handlers from /debug/pprof/")
		replicas  = flag.Int("replicas", 0, "replicas to open per shard on a sharded layout (0 = all in the topology)")
		hedge     = flag.Duration("hedge", 0, "launch a backup replica read after this delay (sharded layout; 0 disables hedging)")
		shardInfl = flag.Int("shard-inflight", 0, "max concurrently executing queries per shard (default 64)")
		retryN    = flag.Int("retry-budget", 0, "total replica attempts per query on a sharded layout (0 = one per replica)")
		retryBase = flag.Duration("retry-backoff", 5*time.Millisecond, "base backoff before the second replica attempt (doubles, jittered)")
		retryMax  = flag.Duration("retry-backoff-max", 250*time.Millisecond, "cap on the exponential replica backoff")
		compactIv = flag.Duration("compact-interval", 0, "background compaction pass interval on a single index (0 disables the loop; POST /compact still works)")
		compactMB = flag.Int64("compact-budget", 0, "compaction memory budget in bytes (default 32 MiB)")
		hotBudget = flag.Int64("hot-budget", 0, "compressed in-memory hot tier budget in bytes (0 disables; results stay byte-identical)")
	)
	flag.Parse()
	if *dir == "" {
		log.Fatal("usage: prixserve -index DIR [-addr :8080]")
	}
	// A topology.json in the index directory selects the sharded serving
	// tier; otherwise the directory is a plain single index, served through
	// a compaction root. Both are the same QuerySource, so everything below
	// is shared.
	var (
		src      core.QuerySource
		indexes  []*core.Index
		root     *core.CompactRoot
		topoNote string
	)
	if topo, err := core.LoadShardTopology(*dir); err == nil {
		co, err := core.OpenShardedIndex(*dir, core.Options{BufferPoolPages: *pool, HotBudget: *hotBudget}, core.ShardConfig{
			MaxInFlightPerShard: *shardInfl,
			HedgeDelay:          *hedge,
			OpenReplicas:        *replicas,
			// Compacted replicas keep their files under an epoch
			// subdirectory; the resolver follows each CURRENT pointer.
			ResolveDir: core.ResolveIndexDir,
			Retry:      core.RetryPolicy{Base: *retryBase, Max: *retryMax, Budget: *retryN},
		})
		if err != nil {
			log.Fatal(err)
		}
		src = co
		indexes = co.Indexes()
		topoNote = fmt.Sprintf(" across %d shards (%d replicas open, epoch %d)",
			topo.Shards, len(indexes), topo.Epoch)
	} else if errors.Is(err, core.ErrNoTopology) {
		// OpenCompactRoot deletes what an interrupted compaction left, then
		// follows the epoch pointer and serves the index insertable with
		// zero-downtime epoch swaps, whichever build wrote it.
		r, err := core.OpenCompactRoot(*dir, core.Options{BufferPoolPages: *pool, HotBudget: *hotBudget})
		if err != nil {
			log.Fatal(err)
		}
		root = r
		src = r
		indexes = []*core.Index{r.Index().Index()}
		if e := r.Epoch(); e > 0 {
			topoNote = fmt.Sprintf(" (compaction epoch %d)", e)
		}
	} else {
		log.Fatal(err)
	}
	srv := core.NewServer(src, core.ServerConfig{
		MaxInFlight:      *inflight,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTO,
		CacheCapacity:    *cacheCap,
		CacheShards:      *shards,
		MaxMatches:       *maxMatch,
		Parallelism:      *par,
		SlowLogCapacity:  *slowCap,
		SlowLogThreshold: *slowAfter,
		DisableTracing:   *noTrace,
		DisablePprof:     *noPprof,
	})
	capVal := *inflight
	if capVal <= 0 {
		capVal = 64
	}
	// Back off while the query load uses more than half the admission
	// capacity; background maintenance (scrubbing, compaction) is strictly
	// lower priority than serving.
	busy := func() bool {
		return srv.Metrics().InFlight.Load() > int64(capVal/2)
	}
	var scrubbers []*core.Scrubber
	if *scrubIv > 0 {
		// On a sharded layout each replica index scrubs (and heals)
		// independently.
		for _, ix := range indexes {
			cfg := core.ScrubConfig{
				Interval:   *scrubIv,
				AutoRepair: *scrubFix,
				Busy:       busy,
			}
			if root != nil {
				// Behind a compaction root the scrubber re-resolves the
				// serving epoch each pass and skips passes that collide
				// with an epoch swap instead of flagging mid-swap files.
				cfg.Source = func() *core.Index { return root.Index().Index() }
				cfg.Gate = root.Gate()
			}
			sc := core.NewScrubber(ix, cfg)
			scrubbers = append(scrubbers, sc)
			sc.Start()
		}
		srv.SetScrubbers(scrubbers)
	}
	var compactor *core.Compactor
	if root != nil {
		compactor = core.NewCompactor(root, core.CompactorConfig{
			Interval:  *compactIv,
			MemBudget: *compactMB,
			Busy:      busy,
		})
		if *compactIv > 0 {
			compactor.Start()
		}
		srv.SetCompactor(compactor)
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		log.Printf("caught %v; draining (max %v)", s, *drainTO)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			log.Printf("drain: %v", err)
		}
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		for _, sc := range scrubbers {
			sc.Stop()
		}
		if compactor != nil {
			compactor.Stop()
		}
		if root != nil {
			if err := root.Close(); err != nil {
				log.Printf("close: %v", err)
			}
		}
	}()

	st := src.Stats()
	log.Printf("serving %d docs (extended=%v)%s on %s", st.Docs, st.Extended, topoNote, *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
	log.Print("bye")
}
