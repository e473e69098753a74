# Standard developer entry points. Everything is stdlib-only Go; no
# generated code, no external tools beyond the go toolchain.

GO ?= go

.PHONY: all build test race vet fmt-check fuzz chaos bench bench-smoke clean ci cover differential sched benchmark-module size allocs reach

all: build vet test

# Everything CI runs, in one target, so local and CI results agree.
ci: build vet fmt-check test allocs race sched differential cover fuzz chaos bench-smoke benchmark-module size reach

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# One race-detector pass over every package with shared mutable state (full
# ./... under -race is slow), each package once:
#   - server: concurrent requests, singleflight, drain, overload; the
#     pooled request deadline against context.WithTimeout
#     (TestRequestContextMatchesStdlib: expiry, parent cancellation, a late
#     timer against the value's next request, a deadline expiring mid-descent
#     and during shard admission); the
#     oracle differential through the handler (plain, EP and sharded); the
#     multi-shard loop (query, quarantine one shard by a corrupt page,
#     partial Degraded answer naming it, online /repair, full answer); the
#     POST /compact surface; the hot tier's /stats and /metrics; pooled
#     traces under 8 goroutines of traced, slow-logged requests at
#     Parallelism 4, on one index and on a 2x2 coordinator that hedges
#     (TestPooledTracesConcurrent: every reply's tree and slow-log entry is
#     its own query's); cache-off answers packed into pooled buffers while
#     eight identical requests share one singleflight leader and other
#     queries recycle buffers beside them
#     (TestSharedRepliesOutliveRecycling, ten runs below); the same over a
#     2x2 coordinator with the cache on, hedged and with a degraded first
#     replica, whose cached and shared answers must outlive the pooled shard
#     buffers they were merged from (TestShardedRepliesOutliveRecycling, ten
#     runs below).
#   - prix: the parallel and hot-vs-paged differentials, the dynamic write
#     path racing queries against hot-tier invalidations, the metamorphic
#     mutation suite and AS OF replay against the brute-force oracle, the
#     Delete/Update/Patch power-cut sweeps and the version-map fuzz seeds;
#     answers packed into a lent MatchBuf (TestMatchIntoEqualsOwned).
#   - pager, btree: the crash-recovery sweeps (the B+-tree's over slotted
#     and packed leaves' inserts and splits, packed postings and
#     packed Docid entries with tombstones), panic- and race-free; the
#     pager's no-fill reads racing Get on shared pages (TestNoFillConcurrentWithGet);
#     pager/pagertest, the sweep driver every crash sweep runs on.
#   - docstore: eight goroutines interning into and naming from one arena
#     dictionary (TestDictConcurrent).
#   - shard: cross-shard-count differential, replica failover, the sharded
#     version crash sweep; a hedging 2x2 coordinator handed a lent MatchBuf
#     (TestCoordinatorLeavesIntoAlone).
#   - ingest: a corpus 20x the memory budget under a pinned peak heap,
#     power-cut sweeps over every write point (each crash image opens
#     complete and byte-identical or refuses to open, and running the build
#     again recovers it), and the malformed-record skip budget; plus
#     xmltree's record cursor (split streams, resync after syntax and token
#     size errors), and xmltree/xmltreetest, the tree fixtures tests build.
#   - compact: concurrent queries and inserts across the zero-downtime epoch
#     swap, per-ordinal power-cut sweeps (plain and sharded), the
#     scrub-during-swap gate and tombstone GC under the retention window.
#   - hot: eviction under budget pressure, and readers scanning held views
#     while a writer forces arena repacks (TestTierViewsSurviveCompaction);
#     mvcc: the version-map/diff suite.
#   - the pooled query scratch under 8 concurrent resident queries, ten
#     rounds.
# One single-goroutine check does less under -race, where the detector only
# checks each load its bit decoding makes (raceEnabled): the hot tier's
# residency test queries four of its nine shapes (TestHotBuildsLeaveNoFrames);
# go test runs it whole. The leaf-ops model check (TestLeafOpsAgainstModel)
# runs whole here too: every packed layout a seed, and the narrow pass.
# ./internal/prix runs on its own, in three invocations that together run
# every test once (-run of two patterns, then -skip of both), each well
# under go test's default 10-minute timeout. On the 2-core host, beside the
# other packages, it hit that timeout (600 s, in the fuzz seeds it runs
# last); alone in one invocation it took 570 s; split in two, the power-cut
# sweep of its three mutations took 198 s and the rest 364-442 s. The rest
# is split again: the serial-vs-parallel differential, its fuzz seeds and
# the metamorphic suite (54 + 50 + 86 s of a 365 s -v run) apart from
# everything else. Measured in one whole make race (1,113 s): 154 s, 189 s
# and 175 s.
# -count=1 so a cached pass never stands in for a run.
race_prix_long = ^TestVersionCrashSweepMutations$$
race_prix_mid = ^(TestParallelMatchesSerialDifferential|FuzzParallelMatch|TestMetamorphic.*)$$
race:
	$(GO) test -race -count=1 -run '$(race_prix_long)' ./internal/prix
	$(GO) test -race -count=1 -run '$(race_prix_mid)' ./internal/prix
	$(GO) test -race -count=1 -skip '$(race_prix_long)|$(race_prix_mid)' ./internal/prix
	$(GO) test -race -count=1 ./internal/server ./internal/pager ./internal/pager/pagertest ./internal/docstore ./internal/btree ./internal/bench ./internal/shard ./internal/ingest ./internal/compact ./internal/hot ./internal/mvcc
	$(GO) test -race -count=1 ./internal/xmltree ./internal/xmltree/xmltreetest -run 'Cursor|ParseError'
	$(GO) test -race -count=10 ./internal/prix -run 'TestScratchIsolation'
	$(GO) test -race -count=10 ./internal/server -run 'TestSharedRepliesOutliveRecycling'
	$(GO) test -race -count=10 ./internal/server -run 'TestShardedRepliesOutliveRecycling'

vet:
	$(GO) vet ./...

# Production packages hold what a binary runs. tools/reach builds the six
# cmd/ binaries, the three examples and the benchmark module without
# inlining, reads their symbols with go tool nm, and fails on any function
# declared in a package under internal/ (the *test helper packages
# skipped) that none of them links and tools/reach/allowlist.txt does not
# name with a reason, on an allowlist entry a binary links or that names
# no function, and on a binary that links a *test package. Test-only code
# goes in _test.go files or a *test package.
reach:
	$(GO) run ./tools/reach

# gofmt is a gate: any file it would rewrite fails the build.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Scheduling-dependence check, the proof that Parallelism only schedules the
# one Algorithm 1 walk: the hot-vs-paged, Parallelism 1-vs-N and oracle
# differential suites assert byte-identical matches and identical QueryStats
# (and the paged/resident suites their allocation bounds), so every counter,
# RecordFetches of AS OF reads included, must come out the same on one, two
# and eight Ps.
sched:
	$(GO) test -cpu 1,2,8 -run 'TestHot|TestParallel|Differential|TestPaged|TestResident' -count=1 ./internal/prix

# Every allocation guard (tests named *Allocs, each an AllocsPerRun bound): a
# page pin hit or missed, a no-fill page read that missed, a journaled flush, an in-place leaf edit on the
# slotted codec and on the packed one (TestPackedEditAllocs: an
# insert its widths hold moves the cells after it, a delete re-encodes through
# a pooled packer, 0 objects, postings and Docid entries), a range scan across
# packed leaves (TestPackedScanAllocs: 0, the decode buffer pooled, Scan,
# ScanPostings and ScanDocIDs), a range scan of a bit-packed posting list
# (TestScanAllocs: 0, narrow and wide cells), a slotted leaf split (a few objects, not one a cell), a record
# decoded into a sized destination, a Match resident and paged, on one
# goroutine and at Parallelism 4 (TestPagedMatchAllocs also runs
# //S[./NP]/NN on MIX, 16,020 range queries through level cursors whose page
# buffers stay in the pooled scratch: 3 objects, 0 into a lent buffer), a trace, the nil span API, a canonical query string,
# a parsed query (TestParseAllocs: two objects up to 16 nodes), one POST /query
# through the handler on a resident index (TestHandleQueryAllocs: the pooled
# deadline, body buffer and trace, the one-slab parse, the pattern compiled
# into the query scratch, the answer packed into a pooled prix.MatchBuf and
# the reply appended from it into the body's buffer leave 12 objects, 51
# before) and the bytes it allocates (TestHandleQueryBytesPerRequest: Q5
# 1,192 B, Q6 1,080 B, measured on one P after as many requests again, so
# no per-P pool is cold inside the loop; no longer growing with the answer; 1,928 B and
# 21,144 B while every answer was packed into fresh memory, 4,104 B and
# 29,640 B with a []MatchJSON reply and a fresh trace), a Match into a warmed
# MatchOptions.Into (0 objects, resident and paged), a traced query through a
# warmed 2x2 shard coordinator (TestCoordinatorMatchAllocs: 7 objects, the
# shards' answers in pooled buffers merged once and the spans from the
# trace's kept slabs; 43 before), a released fan-out-sized trace
# (TestTraceTreeAllocs: 11 spans with attributes, 0 objects), one document drained by a
# compaction (TestCompactDrainAllocs: 0, the DocSeq reused), one record a
# warmed run reader replays (TestRunReaderAllocs in ingest: 0), a compaction's
# bulk load per document (TestBulkLoadDynamicAllocs: ≤ 1), the version map
# re-encoded into kept buffers (TestAppendEncodeAllocs in mvcc: 0) and by a
# committed Delete (TestVersionPersistAllocs: 0 for the map) — plus the
# resident cost of a labeler
# trie node (TestLabelerBytesPerNode: live bytes and objects, not mallocs), of
# a buffer-pool page and an empty pool (TestPoolBytesPerPage), of a
# dictionary name (TestDictBytesPerName), of a shape-dictionary shape, a
# directory entry and a resident LPS entry (TestShapeBytesPerShape: MIX's 787
# shapes in a few objects, accounted bytes equal to heap bytes, ≤ 1.8 B per
# LPS entry), of a hot-tier leaf (TestTierBytesPerStructure: a MIX-shaped
# tier of 55 leaf images in at most 16 objects, ≤ 300 B a leaf beyond its
# 8,176-byte image: slot, parsed header, order cell) and of a hot-tier
# posting on the MIX index itself (TestHotTierBytesPerPosting:
# HotStats().Tier.Bytes, 51 leaves, ≤ 4.9 B a posting), and
# the dictionary's allocation-free hits (TestDictLookupAllocs) and the shape
# dictionary's (TestShapeInternAllocs: a Put of a known shape allocates 0).
# -count=1 so a cached pass never stands in for a run; an allocation regression
# then fails a named test here before it reaches the benchmark's allocs_op or
# live_heap_mb.
allocs:
	$(GO) test -count=1 -run 'Allocs|BytesPer' ./internal/pager ./internal/btree ./internal/docstore ./internal/prix ./internal/obs ./internal/twig ./internal/vtrie ./internal/hot ./internal/server ./internal/shard ./internal/ingest ./internal/mvcc

# The driver's benchmark is a nested module (benchmark/go.mod) that `go test
# ./...` does not reach: vet and short-test it here, so a change to an
# exported signature it uses fails CI rather than the next benchmark run.
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# Short fuzz passes over the parsing/encoding boundaries: the query parser
# (the service boundary), the docstore record decoder (the corruption
# boundary), the trace/slow-log JSON encoder (the ?trace=1 boundary) and the
# chain labels' nesting over an exact base (the insert boundary); the
# hot lists' binary-searched range scans against a naive filter; the hot
# tier's Add/TryAdd/Get/Invalidate sequences against a container/list LRU
# model, views held across arena repacks included (FuzzTier); the
# B+-tree's in-place slotted leaf edits against a
# sorted-slice model, and its packed leaves' bulk loads, postings and Docid
# entries (symbol boundaries, duplicate keys, tombstones, fields needing all
# 64 bits) and the inserts and deletes that follow (cells widened and
# narrowed, a tombstone beside its live entry, bases moved, leaves split by
# bits two ways or more) against the same model (FuzzPackedLeaf); and the docstore
# meta's header fields, chain pointers and block counts as Open reads them
# from a corrupt file; the shapes section's resync headers and shape
# encodings and the record encoding's shape ids and LPS lengths through Open,
# Get and ViewOf (FuzzDecodeShape); the arena dictionary's intern/lookup/name sequences
# against a map + slice model; and the compaction drain's record → DocSeq
# derivation against the reconstruct-and-transform detour it replaced; and
# the POST /query reply appender against encoding/json's Encoder over
# fuzzed responses (FuzzQueryReply: HTML metacharacters, U+2028, control
# bytes and invalid UTF-8 in the query and shard names, nil and empty
# images, degraded shards, quarantined ids, trace trees); and Match itself
# against the brute-force oracle over random twigs and seeded random corpora
# (FuzzMatchOracle: EP and RP, Parallelism 1 and 4, ordered and unordered,
# and an EPIndex of two postings leaves behind an eight-frame pool and a
# one-leaf hot tier, where level cursors mix resident and paged leaves),
# and the write path against the same oracle: random inserts, updates,
# patches and deletes on a Build output, a compaction, more writes, every
# retained AS OF version checked, behind an eight-frame pool and a one-leaf
# tier (FuzzDynamicOracle).
# -fuzzminimizetime bounds the minimization of each new interesting input
# (60 s by default): with it unbounded both workers sat minimizing from
# 9-12 s to the end of the 30 s budget, "execs: … (0/sec)", and
# FuzzQueryReply ran 30,601 execs, FuzzSpanJSON 20,408; at 2 s neither
# stalls, 146,620 and 81,091 (EXPERIMENTS.md "Answers packed into lent
# memory").
fuzz:
	$(GO) test ./internal/twig -run FuzzParseQuery -fuzz FuzzParseQuery -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/docstore -run FuzzDecodeRecord -fuzz FuzzDecodeRecord -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/docstore -run FuzzOpenMeta -fuzz FuzzOpenMeta -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/docstore -run FuzzDecodeShape -fuzz FuzzDecodeShape -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/docstore -run FuzzDict -fuzz FuzzDict -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/obs -run FuzzSpanJSON -fuzz FuzzSpanJSON -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/vtrie -run FuzzDynamicLabeler -fuzz FuzzDynamicLabeler -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/mvcc -run FuzzSeqDiffPatch -fuzz FuzzSeqDiffPatch -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/prix -run FuzzAsOfVersionMap -fuzz FuzzAsOfVersionMap -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/compact -run FuzzDynamicOracle -fuzz FuzzDynamicOracle -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/hot -run FuzzPostingsScan -fuzz FuzzPostingsScan -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/hot -run FuzzDocIDsScan -fuzz FuzzDocIDsScan -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/hot -run FuzzTier -fuzz FuzzTier -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/btree -run FuzzLeafOps -fuzz FuzzLeafOps -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/btree -run FuzzPackedLeaf -fuzz FuzzPackedLeaf -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/prix -run FuzzRecordDocSeq -fuzz FuzzRecordDocSeq -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/server -run FuzzQueryReply -fuzz FuzzQueryReply -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/prix -run FuzzMatchOracle -fuzz FuzzMatchOracle -fuzztime 30s -fuzzminimizetime 2s

# The oracle-backed differential suite: every engine (PRIX serial/parallel,
# TwigStack, TwigStackXB, ViST) against the brute-force
# embedding oracle, ordered and unordered, on generated and sample docs.
differential:
	$(GO) test ./internal/prix -run Differential -count=1

# Coverage floors for the engine, its storage and the observability layer.
# The floors sit a few points under measured coverage (internal/prix 82.0%,
# internal/obs 84.9%, internal/server 89.1%, internal/shard 73.5%,
# internal/btree 83.0%, internal/pager 85.4% with the artifact FS and the
# atomic write moved in, internal/docstore 84.2% when the floors were set) so
# refactors have headroom but a PR that lands significant untested code fails
# here. Each package's test output goes to cover-<pkg>.log; a failing run
# prints the tail of its log and stops the target.
cover_test = $(GO) test -coverprofile=cover-$(1).out $(2) ./internal/$(1) > cover-$(1).log 2>&1 || { echo "go test ./internal/$(1) failed; tail of cover-$(1).log:"; tail -n 40 cover-$(1).log; exit 1; }
cover:
	@$(call cover_test,prix)
	@$(call cover_test,obs)
	@$(call cover_test,ingest,-short)
	@$(call cover_test,compact)
	@$(call cover_test,hot)
	@$(call cover_test,mvcc)
	@$(call cover_test,server)
	@$(call cover_test,shard)
	@$(call cover_test,btree)
	@$(call cover_test,pager)
	@$(call cover_test,docstore)
	@$(GO) tool cover -func=cover-prix.out | awk '$$1=="total:" { sub("%","",$$3); printf "internal/prix coverage %s%% (floor 78%%)\n", $$3; if ($$3+0 < 78.0) exit 1 }'
	@$(GO) tool cover -func=cover-obs.out | awk '$$1=="total:" { sub("%","",$$3); printf "internal/obs coverage %s%% (floor 80%%)\n", $$3; if ($$3+0 < 80.0) exit 1 }'
	@$(GO) tool cover -func=cover-ingest.out | awk '$$1=="total:" { sub("%","",$$3); printf "internal/ingest coverage %s%% (floor 75%%)\n", $$3; if ($$3+0 < 75.0) exit 1 }'
	@$(GO) tool cover -func=cover-compact.out | awk '$$1=="total:" { sub("%","",$$3); printf "internal/compact coverage %s%% (floor 75%%)\n", $$3; if ($$3+0 < 75.0) exit 1 }'
	@$(GO) tool cover -func=cover-hot.out | awk '$$1=="total:" { sub("%","",$$3); printf "internal/hot coverage %s%% (floor 75%%)\n", $$3; if ($$3+0 < 75.0) exit 1 }'
	@$(GO) tool cover -func=cover-mvcc.out | awk '$$1=="total:" { sub("%","",$$3); printf "internal/mvcc coverage %s%% (floor 75%%)\n", $$3; if ($$3+0 < 75.0) exit 1 }'
	@$(GO) tool cover -func=cover-server.out | awk '$$1=="total:" { sub("%","",$$3); printf "internal/server coverage %s%% (floor 85%%)\n", $$3; if ($$3+0 < 85.0) exit 1 }'
	@$(GO) tool cover -func=cover-shard.out | awk '$$1=="total:" { sub("%","",$$3); printf "internal/shard coverage %s%% (floor 70%%)\n", $$3; if ($$3+0 < 70.0) exit 1 }'
	@$(GO) tool cover -func=cover-btree.out | awk '$$1=="total:" { sub("%","",$$3); printf "internal/btree coverage %s%% (floor 77%%)\n", $$3; if ($$3+0 < 77.0) exit 1 }'
	@$(GO) tool cover -func=cover-pager.out | awk '$$1=="total:" { sub("%","",$$3); printf "internal/pager coverage %s%% (floor 82%%)\n", $$3; if ($$3+0 < 82.0) exit 1 }'
	@$(GO) tool cover -func=cover-docstore.out | awk '$$1=="total:" { sub("%","",$$3); printf "internal/docstore coverage %s%% (floor 80%%)\n", $$3; if ($$3+0 < 80.0) exit 1 }'
	@rm -f cover-*.out cover-*.log

# Chaos stage: fault-injection and self-healing end to end. Power-cut sweeps
# across every write point of a commit, of a sectioned store flush, of an
# online repair, of a dynamic index's forest rebuild (whose recovered image
# must reopen with OpenDynamic and take inserts oracle-exact) and of a
# streaming ingest (plain and sharded, crash image checked before the
# rerun), bit-flip corruption that must be scrub-detected and auto-repaired
# under live queries, and snapshot restore for the unrepairable cases. The
# repair tests of compact, scrub, prixcheck and prixscrub repair a dynamic
# index on each binary's path (a scrubber over a compaction root, -repair)
# and hold the inserts after it to the oracle.
chaos:
	$(GO) test ./internal/pager -run 'Crash|Torn|Fault|Trim' -count=1
	$(GO) test ./internal/docstore -run 'Crash|Unreadable' -count=1
	$(GO) test ./internal/prix -run 'Crash|BitFlip|Repair|Snapshot' -count=1
	$(GO) test ./internal/ingest -run 'Crash' -count=1
	$(GO) test ./internal/compact ./internal/scrub -run Repair -count=1
	$(GO) test ./cmd/prixcheck ./cmd/prixscrub -run Repair -count=1
	$(GO) test -race ./internal/scrub -count=1

bench:
	$(GO) run ./cmd/prixbench -table all -scale 1

# Fast parallel-pipeline check: the serial-vs-parallel comparison on one
# bundled dataset (the table asserts identical match counts, so it doubles
# as a differential test), plus one iteration of the in-package benchmarks
# (the resident- and paged-path ones assert their hit and match counts), the
# pool's pin on a hit and on a miss, a leaf edit on a full slotted page
# (BenchmarkLeafInsertFullPage), and the write
# path's two: one re-pointed document flushed on a 5,000-document store, and
# one Update committed on a 3,000-document EPIndex over real files (pages and
# syncs per commit reported); a dictionary hit over the MIX names; POST /query through the server's handler, paged
# and resident (-benchmem: the request shell plus the engine); and the dynamic
# side's two: 5,500 sequences labeled into a fresh DynamicLabeler (ns/node),
# and one whole compaction of a 3,000-document EPIndex carrying 300 mutations
# (docs/s, -benchmem).
bench-smoke:
	$(GO) run ./cmd/prixbench -table parallel -datasets SWISSPROT
	$(GO) test ./internal/prix -run XXX -bench 'UnorderedSplit|MatchResident|MatchPaged|CommitUpdate' -benchtime 1x -benchmem
	$(GO) test ./internal/docstore -run XXX -bench 'StoreFlushOneDoc|DictLookup' -benchtime 1x -benchmem
	$(GO) test ./internal/hot -run XXX -bench 'PostingsSeek|DocIDsSeek|SummaryRefine' -benchtime 1x -benchmem
	$(GO) test ./internal/pager -run XXX -bench 'PoolGet' -benchtime 1x -benchmem
	$(GO) test ./internal/btree -run XXX -bench 'LeafInsertFullPage' -benchtime 1x -benchmem
	$(GO) test ./internal/server -run XXX -bench 'ServeQueryCold|ServeQueryHot' -benchtime 1x -benchmem
	$(GO) test ./internal/vtrie -run XXX -bench 'LabelerAdd' -benchtime 1x -benchmem
	$(GO) test ./internal/compact -run XXX -bench 'CompactDynamic' -benchtime 1x -benchmem

# Index size: the directory (seq.idx + docs.db) must stay within 1.04x
# (DBLP), 1.74x (SWISSPROT) and 2.22x (TREEBANK) the XML on the three
# generated corpora — packed postings and Docid leaves' 0.991x, 1.658x and
# 2.117x plus 5 % — and prixcheck's size report (bytes per file; entries, height, pages per
# level, leaf fill, leaf cell format and bytes per entry per tree; shapes,
# documents per shape, NPS entries and bytes per copy; bytes per XML byte) is
# printed for a freshly loaded one. A compacted dynamic index's post tree must
# keep packed leaves at ≥ 65 % fill and ≤ 8 B a posting, and its docid tree
# packed leaves at ≥ 65 % fill and ≤ 8 B an entry, through a
# mutate_mixed-sized batch of inserts and updates
# (TestDynamicLeafFill: BulkLoad's slack in every tree that takes inserts).
size:
	$(GO) test ./internal/prix -run 'TestIndexSizeBound' -count=1
	$(GO) test ./internal/compact -run 'TestDynamicLeafFill' -count=1 -v
	rm -rf .size_idx
	$(GO) run ./cmd/prixload -out .size_idx -dataset swissprot -scale 1 -extended
	$(GO) run ./cmd/prixcheck .size_idx
	rm -rf .size_idx

clean:
	$(GO) clean ./...
