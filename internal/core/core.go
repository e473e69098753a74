// Package core is the public facade of the PRIX reproduction: it re-exports
// the types a downstream user needs — index building/opening, query parsing
// and matching — without requiring them to know the internal package split.
// The primary contribution (Prüfer-sequence indexing and holistic twig
// matching, §3-§5 of the paper) lives in internal/prix; the substrates it
// depends on are internal/{xmltree,prufer,pager,btree,vtrie,docstore,twig}.
package core

import (
	"io"

	"repro/internal/compact"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/prix"
	"repro/internal/scrub"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/twig"
	"repro/internal/xmltree"
)

// Document is an ordered labeled XML tree.
type Document = xmltree.Document

// Index is a PRIX index (RPIndex or EPIndex per Options.Extended).
type Index = prix.Index

// Options configures index construction.
type Options = prix.Options

// MatchOptions tunes query execution.
type MatchOptions = prix.MatchOptions

// Match is one twig occurrence.
type Match = prix.Match

// QueryStats reports per-query work (range queries, candidates, pages).
type QueryStats = prix.QueryStats

// Trace collects a per-query span tree when attached to
// MatchOptions.Trace; a nil *Trace keeps the engine's zero-overhead path.
type Trace = obs.Trace

// Span is one timed node of a Trace's tree.
type Span = obs.Span

// SpanJSON is the wire form of a span tree (Trace.Tree).
type SpanJSON = obs.SpanJSON

// NewTrace starts an empty trace whose root span has the given name.
func NewTrace(name string) *Trace { return obs.NewTrace(name) }

// RenderTrace pretty-prints a finished trace's span tree to w.
func RenderTrace(w io.Writer, tr *Trace) { obs.Render(w, tr) }

// Query is a parsed twig query.
type Query = twig.Query

// ParseXML parses one XML document (attributes become subelements, values
// become leaf nodes) and assigns the postorder numbering PRIX relies on.
func ParseXML(id int, r io.Reader) (*Document, error) {
	return xmltree.Parse(id, r, xmltree.ParseOptions{})
}

// ParseXMLString is ParseXML over a string.
func ParseXMLString(id int, s string) (*Document, error) {
	return xmltree.ParseString(id, s)
}

// ParseQuery parses the XPath subset of the paper (child and descendant
// axes, '*' steps, equality value predicates): //a[./b="v"][.//c]/d.
func ParseQuery(src string) (*Query, error) { return twig.Parse(src) }

// BuildIndex indexes a document collection. Use Options.Extended for an
// EPIndex (recommended when queries contain values, §5.6); Options.Dir for
// a persistent on-disk index.
func BuildIndex(docs []*Document, opts Options) (*Index, error) {
	return prix.Build(docs, opts)
}

// OpenIndex opens a previously built on-disk index.
func OpenIndex(dir string, opts Options) (*Index, error) {
	return prix.Open(dir, opts)
}

// IndexBuilder accumulates documents one at a time — the memory-bounded
// alternative to BuildIndex when the collection should not be held in memory
// all at once. Finalize seals the index; Abort releases resources without
// finishing.
type IndexBuilder = prix.Builder

// NewIndexBuilder starts an incremental index build.
func NewIndexBuilder(opts Options) (*IndexBuilder, error) {
	return prix.NewBuilder(opts)
}

// DynamicIndex accepts document writes after construction, each labeled as
// a private chain under the trie root.
type DynamicIndex = prix.DynamicIndex

// DynamicOptions is kept for callers that pass one; chain labeling ignores
// it.
type DynamicOptions = prix.DynamicOptions

// NewDynamicIndex builds an insertable index seeded with initial documents.
func NewDynamicIndex(initial []*Document, opts Options, dopts DynamicOptions) (*DynamicIndex, error) {
	return prix.NewDynamicIndex(initial, opts, dopts)
}

// QuerySource is the engine a query service executes against: *Index,
// *DynamicIndex, *CompactRoot and *ShardCoordinator all satisfy it.
type QuerySource = server.Source

// ServerConfig tunes the HTTP query service (admission bound, deadlines,
// result cache, response caps).
type ServerConfig = server.Config

// Server is the concurrent HTTP query service over one shared index.
type Server = server.Server

// Executor is the shared query execution path (result cache + singleflight
// + context cancellation) used by the service, CLIs and benchmarks.
type Executor = server.Executor

// QueryOptions are per-request execution knobs of an Executor.
type QueryOptions = server.QueryOptions

// ServerMetrics is the service's lock-free counter/histogram registry.
type ServerMetrics = server.Metrics

// NewServer builds a query service over an index. Result-cache keys carry
// the source's generation, so a mutation retires every stale entry.
func NewServer(src QuerySource, cfg ServerConfig) *Server {
	return server.New(src, cfg)
}

// NewExecutor builds the bare execution path without the HTTP layer.
// cacheCapacity < 1 disables result caching; metrics may be nil.
func NewExecutor(src QuerySource, cacheCapacity, cacheShards int, m *ServerMetrics) *Executor {
	return server.NewExecutor(src, cacheCapacity, cacheShards, m)
}

// Scrubber is the background integrity scrubber: it walks pages, B+-tree
// invariants and document records, quarantines damage ahead of queries and
// (with AutoRepair or RepairNow) heals it online from the index's built-in
// Prüfer-sequence redundancy.
type Scrubber = scrub.Scrubber

// ScrubConfig tunes pass cadence, throttling and repair policy.
type ScrubConfig = scrub.Config

// ScrubReport summarizes one scrub/repair pass.
type ScrubReport = scrub.Report

// NewScrubber builds a scrubber over an index; for a DynamicIndex pass
// di.Index().
func NewScrubber(ix *Index, cfg ScrubConfig) *Scrubber {
	return scrub.New(ix, cfg)
}

// RestoreSnapshot replaces the index files in indexDir with a snapshot
// previously taken by Index.Snapshot. Offline only; every snapshot page is
// verified before the live index is touched.
func RestoreSnapshot(indexDir, snapDir string) error {
	return prix.RestoreSnapshot(indexDir, snapDir)
}

// ShardCoordinator is the scatter-gather serving tier over a sharded
// layout: it satisfies QuerySource, so NewServer/NewExecutor run unchanged
// over N shards, and a quarantined or dead shard degrades alone (partial
// Degraded answers instead of errors).
type ShardCoordinator = shard.Coordinator

// ShardTopology describes a sharded layout (shard/replica counts, document
// count, placement epoch).
type ShardTopology = shard.Topology

// ShardConfig tunes coordinator serving (per-shard admission, hedged
// replica reads, replicas opened per shard).
type ShardConfig = shard.Config

// RetryPolicy shapes replica failover: jittered exponential backoff and a
// per-query attempt budget.
type RetryPolicy = shard.RetryPolicy

// ShardBuildConfig parameterizes a sharded build (shard/replica counts,
// index kind).
type ShardBuildConfig = shard.BuildConfig

// ErrNoTopology reports a directory without a sharded layout; callers fall
// back to opening it as a single index.
var ErrNoTopology = shard.ErrNoTopology

// ShardName renders a shard ordinal's canonical name ("shard-002"), as
// used in directory layout, X-Prix-Degraded and trace spans.
func ShardName(i int) string { return shard.Name(i) }

// LoadShardTopology reads root/topology.json.
func LoadShardTopology(root string) (*ShardTopology, error) {
	return shard.LoadTopology(root)
}

// BuildShardedIndex partitions the collection by docid hash and writes a
// complete sharded layout (topology.json + per-shard replica directories)
// under root.
func BuildShardedIndex(root string, docs []*Document, cfg ShardBuildConfig) (*ShardTopology, error) {
	return shard.Build(root, docs, cfg)
}

// OpenShardedIndex opens a layout built by BuildShardedIndex and returns
// its serving coordinator (Close releases the opened replicas).
func OpenShardedIndex(root string, opts Options, cfg ShardConfig) (*ShardCoordinator, error) {
	return shard.Open(root, opts, cfg)
}

// BuildShardedIndexStream is BuildShardedIndex for collections too large to
// hold in memory: source opens a fresh pass over the documents (yielding one
// at a time until io.EOF) and the builder makes one pass per shard.
func BuildShardedIndexStream(root string, source func() (func() (*Document, error), error), cfg ShardBuildConfig) (*ShardTopology, error) {
	return shard.BuildStream(root, source, cfg)
}

// IngestOptions configures a streaming bulk ingest: one large XML input
// streamed through a bounded-memory pipeline into a plain or sharded on-disk
// index. Until the index's own commit (topology.json for a sharded layout)
// is durable, the directory holds no index that opens; an interrupted
// ingest is recovered by running it again.
type IngestOptions = ingest.Options

// IngestReport summarizes a completed ingest (documents indexed, runs
// spooled, malformed records skipped).
type IngestReport = ingest.Report

// IngestSkip records one malformed record that ingest skipped (input byte
// offset, record ordinal, parse error).
type IngestSkip = ingest.SkipRecord

// StreamIngest runs a streaming bulk ingest from scratch.
func StreamIngest(o IngestOptions) (*IngestReport, error) { return ingest.Run(o) }

// CompactRoot is a live serving view of an epoch-root index directory:
// queries and inserts flow through the current epoch, and background
// compaction swaps in a packed bulk-loaded epoch with zero downtime.
type CompactRoot = compact.Root

// Compactor periodically compacts a CompactRoot in the background.
type Compactor = compact.Compactor

// CompactorConfig tunes the background compaction loop (interval, memory
// budget, throttling).
type CompactorConfig = compact.Config

// CompactOptions tunes one online compaction run.
type CompactOptions = compact.CompactOptions

// CompactionOptions configures an offline compaction of a closed index
// directory (prixscrub -compact).
type CompactionOptions = compact.Options

// CompactionReport summarizes one compaction.
type CompactionReport = compact.Report

// OpenCompactRoot opens a directory for live serving with online
// compaction: a plain index directory or an epoch root, first deleting what a
// compaction a crash interrupted left behind.
func OpenCompactRoot(dir string, opts Options) (*CompactRoot, error) {
	return compact.OpenRoot(dir, opts)
}

// NewCompactor builds the background compaction loop over a live root.
func NewCompactor(r *CompactRoot, cfg CompactorConfig) *Compactor {
	return compact.New(r, cfg)
}

// CompactIndex compacts a closed index directory offline from scratch (an
// interrupted earlier attempt is discarded, not resumed).
func CompactIndex(o CompactionOptions) (*CompactionReport, error) {
	return compact.Run(o)
}

// CompactShardedIndex compacts every replica of every shard under a sharded
// layout root (offline).
func CompactShardedIndex(root string, o CompactionOptions) ([]*CompactionReport, error) {
	return compact.RunSharded(root, o)
}

// ResolveIndexDir resolves a directory through its epoch pointer: an epoch
// root yields the serving epoch's subdirectory, a plain index directory
// yields itself. Every opener should route through this so compacted
// layouts stay drop-in replacements for plain ones.
func ResolveIndexDir(dir string) (string, error) { return compact.ResolveDir(dir) }

// ParseOptions bounds the streaming XML parser (max depth, max record size).
type ParseOptions = xmltree.ParseOptions

// ParseError is a malformed-record diagnostic carrying the input byte
// offset and record ordinal where parsing failed.
type ParseError = xmltree.ParseError
