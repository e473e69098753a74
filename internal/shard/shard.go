package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/prix"
	"repro/internal/twig"
)

// RetryPolicy shapes sequential failover across a shard's replica group.
// The zero value reproduces plain failover: one immediate attempt per
// replica, no sleeps.
type RetryPolicy struct {
	// Base is the backoff before the second attempt; each further attempt
	// doubles it (capped at Max), with ±50% jitter so replicas recovering
	// from a shared stall are not hammered in lockstep. 0 fails over
	// immediately.
	Base time.Duration
	// Max caps the exponential growth (0 = uncapped).
	Max time.Duration
	// Budget is the total attempts allowed per query, counting the first.
	// More attempts than replicas loops back over the group — a transient
	// error (replica restarting, page cache thrash) gets retried after the
	// backoff instead of failing the query. 0 means one attempt per replica.
	Budget int
}

// Shard is one partition of the collection: a replica group plus the
// local→global docid map and the shard-local health/serving state. Its
// Match runs one replica (failing over, or hedging, onto the others) and
// remaps the results into global docids. All replicas of a shard hold
// byte-identical data, so any of them can answer any of the shard's reads.
type Shard struct {
	id       int
	toGlobal []uint32
	replicas []prix.Source
	// sem is the per-shard admission bound: a hot shard queues (bounded by
	// the caller's context) instead of oversubscribing its buffer pools,
	// and a stuck shard cannot absorb every worker goroutine the
	// coordinator owns.
	sem   chan struct{}
	hedge time.Duration
	retry RetryPolicy
	// rr rotates the first replica tried, spreading read load (and buffer
	// pool warmth) across the replica group.
	rr atomic.Uint32
	// down latches after a query finds every replica failing, and clears
	// on the next success; it names dead shards that have no quarantined
	// documents to point at (prix.SourceStats.DegradedShards).
	down atomic.Bool

	queries   atomic.Uint64
	errs      atomic.Uint64
	failovers atomic.Uint64
	retries   atomic.Uint64
	hedges    atomic.Uint64
	degraded  atomic.Uint64
	latencyNS atomic.Int64
}

// NewShard assembles a shard from its replica group. toGlobal maps local
// docids to global ones and must be strictly increasing: Match keeps each
// answer's order through the mapping, and the coordinator merges shards'
// answers on it. maxInFlight bounds concurrently executing queries on this
// shard (≤ 0 means DefaultShardInFlight); hedge, when positive, launches a
// backup read on the next replica if the current one has not answered
// within that delay.
func NewShard(id int, toGlobal []uint32, replicas []prix.Source, maxInFlight int, hedge time.Duration) (*Shard, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("shard %d: no replicas", id)
	}
	for k := 1; k < len(toGlobal); k++ {
		if toGlobal[k] <= toGlobal[k-1] {
			return nil, fmt.Errorf("shard %d: docmap not strictly increasing at local docid %d (%d after %d)",
				id, k, toGlobal[k], toGlobal[k-1])
		}
	}
	for r, b := range replicas {
		if n := b.Stats().Docs; n != len(toGlobal) {
			return nil, fmt.Errorf("shard %d replica %d: %d docs, docmap has %d",
				id, r, n, len(toGlobal))
		}
	}
	if maxInFlight <= 0 {
		maxInFlight = DefaultShardInFlight
	}
	return &Shard{
		id:       id,
		toGlobal: toGlobal,
		replicas: replicas,
		sem:      make(chan struct{}, maxInFlight),
		hedge:    hedge,
	}, nil
}

// SetRetry installs the failover retry policy. Call before the shard
// serves queries (it is not synchronized against in-flight Matches).
func (s *Shard) SetRetry(p RetryPolicy) { s.retry = p }

// NumDocs returns the documents this shard owns.
func (s *Shard) NumDocs() int { return len(s.toGlobal) }

// PagesRead sums physical page reads over the replica group.
func (s *Shard) PagesRead() uint64 {
	var n uint64
	for _, b := range s.replicas {
		n += b.PagesRead()
	}
	return n
}

// Quarantined returns the global docids quarantined on any replica
// (ascending, deduplicated). Replicas quarantine independently — damage is
// per copy — so the union is the set of documents some read of this shard
// may be missing.
func (s *Shard) Quarantined() []uint32 {
	var out []uint32
	for _, b := range s.replicas {
		for _, local := range b.Stats().Quarantined {
			if int(local) < len(s.toGlobal) {
				out = append(out, s.toGlobal[local])
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Stats snapshots the shard's counters.
func (s *Shard) Stats() prix.ShardStats {
	st := prix.ShardStats{
		ID:          s.id,
		Replicas:    len(s.replicas),
		Docs:        len(s.toGlobal),
		Queries:     s.queries.Load(),
		Errors:      s.errs.Load(),
		Failovers:   s.failovers.Load(),
		Retries:     s.retries.Load(),
		Hedges:      s.hedges.Load(),
		Degraded:    s.degraded.Load(),
		Down:        s.down.Load(),
		PagesRead:   s.PagesRead(),
		Quarantined: s.Quarantined(),
	}
	if st.Queries > 0 {
		st.MeanUS = s.latencyNS.Load() / int64(st.Queries) / int64(time.Microsecond)
	}
	return st
}

// Match executes the query on this shard: per-shard admission, replica
// selection with failover (and hedging when configured), then docid
// remapping into the global space. A clean result from any replica wins;
// a degraded result (quarantined documents skipped) is used only when no
// replica can do better — replica redundancy masks single-copy damage.
// opts.Into, when set, is lent to the first replica attempt only: one
// buffer holds one answer, so failover and hedged attempts answer into
// memory of their own. The docids are mapped in place, in whichever memory
// the answer is in; a shard's docid map rises, so the answer stays in
// the engine's match order (prix's compareMatches).
func (s *Shard) Match(ctx context.Context, q *twig.Query, opts prix.MatchOptions) ([]prix.Match, *prix.QueryStats, error) {
	// A free slot is taken without a select on ctx.Done(): a request
	// context may build its Done channel on first use, and an uncontended
	// shard has no reason to make it.
	select {
	case s.sem <- struct{}{}:
	default:
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, nil, fmt.Errorf("shard %d: admission: %w", s.id, ctx.Err())
		}
	}
	defer func() { <-s.sem }()
	start := time.Now()
	ms, stats, err := s.matchReplicas(ctx, q, opts)
	s.queries.Add(1)
	s.latencyNS.Add(int64(time.Since(start)))
	if err != nil {
		s.errs.Add(1)
		if !isContextErr(err) {
			s.down.Store(true)
		}
		return nil, nil, err
	}
	s.down.Store(false)
	if stats.Degraded {
		s.degraded.Add(1)
	}
	for i := range ms {
		local := ms[i].DocID
		if int(local) >= len(s.toGlobal) {
			return nil, nil, fmt.Errorf("shard %d: local docid %d outside docmap (%d docs)",
				s.id, local, len(s.toGlobal))
		}
		ms[i].DocID = s.toGlobal[local]
	}
	return ms, stats, nil
}

// attempt is one replica execution's outcome.
type attempt struct {
	ms      []prix.Match
	stats   *prix.QueryStats
	err     error
	replica int
}

// better reports whether a is a preferable outcome to b: clean beats
// degraded beats error. Replicas are byte-identical, so any clean result
// is THE result; preference only decides what to serve when every replica
// is damaged some way.
func (a *attempt) better(b *attempt) bool {
	if b == nil {
		return true
	}
	rank := func(x *attempt) int {
		switch {
		case x.err != nil:
			return 0
		case x.stats.Degraded:
			return 1
		default:
			return 2
		}
	}
	return rank(a) > rank(b)
}

// matchReplicas picks the replica order (rotating the start for read
// spreading) and runs the failover — sequential with the retry policy's
// jittered exponential backoff, or hedged when a hedge delay is configured
// and the shard has more than one replica (the hedge path launches the
// whole group latency-driven, so the retry budget applies only here).
func (s *Shard) matchReplicas(ctx context.Context, q *twig.Query, opts prix.MatchOptions) ([]prix.Match, *prix.QueryStats, error) {
	n := len(s.replicas)
	first := 0
	if n > 1 {
		first = int(s.rr.Add(1)-1) % n
	}
	if s.hedge > 0 && n > 1 {
		return s.matchHedged(ctx, q, opts, first)
	}
	budget := s.retry.Budget
	if budget <= 0 {
		budget = n
	}
	delay := s.retry.Base
	var best *attempt
	var kept attempt // what best points at
	cycleErred := false
	for i := 0; i < budget; i++ {
		r := (first + i) % n
		if i > 0 {
			s.failovers.Add(1)
			if i >= n {
				s.retries.Add(1)
			}
			if delay > 0 {
				if err := backoffSleep(ctx, &delay, s.retry.Max); err != nil {
					// The query's own deadline consumed the budget mid-backoff;
					// serve the best degraded outcome rather than nothing.
					if best != nil && best.err == nil {
						return best.ms, best.stats, nil
					}
					return nil, nil, err
				}
			}
		}
		a := s.tryReplica(ctx, r, q, opts)
		// A degraded answer in the lent buffer may yet be served as best:
		// later attempts pack into memory of their own.
		opts.Into = nil
		if a.err == nil && !a.stats.Degraded {
			return a.ms, a.stats, nil
		}
		if a.err != nil && isContextErr(a.err) {
			// The caller's deadline died, not the replica: every further
			// attempt inherits the same dead context.
			return nil, nil, a.err
		}
		if a.err != nil {
			cycleErred = true
		}
		if a.better(best) {
			kept = a
			best = &kept
		}
		if (i+1)%n == 0 {
			if best.err == nil && !cycleErred {
				// Every replica in this cycle answered, just degraded
				// (quarantined documents, not transient failures); retrying
				// re-reads the same damage. A cycle that mixed a degraded
				// success with transient errors keeps retrying — a
				// recovering replica may yet return a clean answer.
				break
			}
			cycleErred = false
		}
	}
	return best.ms, best.stats, best.err
}

// backoffSleep sleeps the current jittered delay (±50%), doubles it for the
// next round (capped), and aborts early on context death.
func backoffSleep(ctx context.Context, delay *time.Duration, max time.Duration) error {
	d := *delay
	if max > 0 && d > max {
		d = max
	}
	next := d * 2
	if max > 0 && next > max {
		next = max
	}
	*delay = next
	jittered := d/2 + time.Duration(rand.Int63n(int64(d)+1))
	t := time.NewTimer(jittered)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// matchHedged is failover driven by latency as well as errors: the next
// replica is launched when the current attempt is slow (one hedge) or
// failed (one failover), and the best outcome wins. Losing attempts are
// canceled and drained before returning, so no goroutine outlives the
// call — required for trace safety (the caller finishes and reads the
// span tree right after) and for sane I/O accounting.
func (s *Shard) matchHedged(ctx context.Context, q *twig.Query, opts prix.MatchOptions, first int) ([]prix.Match, *prix.QueryStats, error) {
	// Attempts run side by side, so none of them may pack into a lent
	// buffer.
	opts.Into = nil
	n := len(s.replicas)
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	resc := make(chan *attempt, n)
	launched, pending := 0, 0
	launch := func() {
		r := (first + launched) % n
		launched++
		pending++
		go func() {
			a := s.tryReplica(actx, r, q, opts)
			resc <- &a
		}()
	}
	drain := func() {
		cancel()
		for pending > 0 {
			<-resc
			pending--
		}
	}
	launch()
	timer := time.NewTimer(s.hedge)
	defer timer.Stop()
	var best *attempt
	for pending > 0 {
		select {
		case <-timer.C:
			if launched < n {
				s.hedges.Add(1)
				launch()
				timer.Reset(s.hedge)
			}
		case a := <-resc:
			pending--
			if a.err == nil && !a.stats.Degraded {
				drain()
				return a.ms, a.stats, nil
			}
			if a.err != nil && isContextErr(a.err) && ctx.Err() != nil {
				drain()
				return nil, nil, a.err
			}
			if a.better(best) {
				best = a
			}
			if launched < n {
				s.failovers.Add(1)
				launch()
			}
		}
	}
	return best.ms, best.stats, best.err
}

// tryReplica runs the query on one replica, under a replica/NNN trace
// span so a traced failover shows every attempt it made.
func (s *Shard) tryReplica(ctx context.Context, r int, q *twig.Query, opts prix.MatchOptions) attempt {
	o := opts
	o.Ctx = ctx
	var rsp *obs.Span
	if o.Trace != nil && o.TraceParent != nil {
		rsp = o.TraceParent.ChildKeyed("replica", obs.OrdinalKey(r))
		o.TraceParent = rsp
	}
	ms, stats, err := s.replicas[r].Match(q, o)
	if rsp != nil {
		if err != nil {
			rsp.SetStr("error", err.Error())
		} else if stats.Degraded {
			rsp.SetInt("degraded", 1)
		}
		rsp.End()
	}
	return attempt{ms: ms, stats: stats, err: err, replica: r}
}

// isContextErr reports cancellation or deadline expiry somewhere under the
// chain.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
