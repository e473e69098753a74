package shard

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/prix"
	"repro/internal/twig"
)

// flakyBackend fails its first failFirst Match calls, then answers clean —
// a replica recovering from a transient stall (restart, cache thrash).
type flakyBackend struct {
	stubBackend
	failFirst int
}

func (f *flakyBackend) Match(q *twig.Query, opts prix.MatchOptions) ([]prix.Match, *prix.QueryStats, error) {
	f.calls++
	if f.calls <= f.failFirst {
		return nil, nil, errors.New("transient: replica warming up")
	}
	return []prix.Match{{DocID: 0, Positions: []int32{1}, Images: []int32{1}, Root: 1}},
		&prix.QueryStats{Matches: 1}, nil
}

func retryShard(t *testing.T, p RetryPolicy, backends ...prix.Source) *Shard {
	t.Helper()
	sh, err := NewShard(0, []uint32{42}, backends, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sh.SetRetry(p)
	sh.rr.Store(0) // pin rotation so attempt order is deterministic
	return sh
}

// TestRetryBudgetRecoversTransient: with a retry budget above the replica
// count, a transiently failing single replica is retried after backoff and
// the query succeeds; without the budget the same query fails.
func TestRetryBudgetRecoversTransient(t *testing.T) {
	q := twig.MustParse(`//a`)
	flaky := &flakyBackend{stubBackend: stubBackend{docs: 1}, failFirst: 2}
	sh := retryShard(t, RetryPolicy{Base: time.Millisecond, Max: 4 * time.Millisecond, Budget: 4}, flaky)
	ms, stats, err := sh.Match(context.Background(), q, prix.MatchOptions{})
	if err != nil {
		t.Fatalf("retry budget should have recovered the transient failure: %v", err)
	}
	if stats.Degraded || len(ms) != 1 || ms[0].DocID != 42 {
		t.Fatalf("recovered query: stats=%+v ms=%v", stats, ms)
	}
	if flaky.calls != 3 {
		t.Fatalf("replica tried %d times, want 3 (2 failures + 1 success)", flaky.calls)
	}
	st := sh.Stats()
	if st.Retries < 2 {
		t.Fatalf("retries counter = %d, want >= 2 (attempts beyond the replica count)", st.Retries)
	}

	// The zero policy is plain failover: one attempt for the only replica.
	flaky2 := &flakyBackend{stubBackend: stubBackend{docs: 1}, failFirst: 2}
	sh = retryShard(t, RetryPolicy{}, flaky2)
	if _, _, err := sh.Match(context.Background(), q, prix.MatchOptions{}); err == nil {
		t.Fatal("zero retry policy unexpectedly recovered a transient failure")
	}
	if flaky2.calls != 1 {
		t.Fatalf("zero policy tried the replica %d times, want 1", flaky2.calls)
	}
}

// TestRetryBudgetExhausted: a replica that never recovers consumes exactly
// the budget, then the query fails with the replica's error.
func TestRetryBudgetExhausted(t *testing.T) {
	q := twig.MustParse(`//a`)
	dead := &stubBackend{docs: 1, err: errors.New("boom")}
	sh := retryShard(t, RetryPolicy{Base: time.Microsecond, Budget: 3}, dead)
	if _, _, err := sh.Match(context.Background(), q, prix.MatchOptions{}); err == nil {
		t.Fatal("dead replica: Match succeeded")
	}
	if dead.calls != 3 {
		t.Fatalf("dead replica tried %d times, want exactly the budget of 3", dead.calls)
	}
}

// TestRetryStopsOnDegraded: degraded answers are not transient — every
// replica already answered from its quarantine state, so the budget must
// not be burned re-reading the same damage.
func TestRetryStopsOnDegraded(t *testing.T) {
	q := twig.MustParse(`//a`)
	d1 := &stubBackend{docs: 1, degraded: true}
	d2 := &stubBackend{docs: 1, degraded: true}
	sh := retryShard(t, RetryPolicy{Base: time.Microsecond, Budget: 10}, d1, d2)
	_, stats, err := sh.Match(context.Background(), q, prix.MatchOptions{})
	if err != nil || !stats.Degraded {
		t.Fatalf("want degraded success, got stats=%+v err=%v", stats, err)
	}
	if d1.calls+d2.calls != 2 {
		t.Fatalf("replicas tried %d times total, want 2 (one full cycle, no retries)", d1.calls+d2.calls)
	}
}

// TestRetryKeepsTryingPastMixedCycle: a cycle that mixes a degraded
// success with a transient error must not trigger the all-degraded early
// break — the erroring replica may recover and return a clean answer, and
// serving it beats settling for the degraded one while budget remains.
func TestRetryKeepsTryingPastMixedCycle(t *testing.T) {
	q := twig.MustParse(`//a`)
	degraded := &stubBackend{docs: 1, degraded: true}
	flaky := &flakyBackend{stubBackend: stubBackend{docs: 1}, failFirst: 1}
	sh := retryShard(t, RetryPolicy{Base: time.Microsecond, Budget: 4}, degraded, flaky)
	ms, stats, err := sh.Match(context.Background(), q, prix.MatchOptions{})
	if err != nil {
		t.Fatalf("mixed cycle should have recovered a clean answer: %v", err)
	}
	if stats.Degraded {
		t.Fatal("settled for the degraded answer instead of retrying the recovering replica")
	}
	if len(ms) != 1 || ms[0].DocID != 42 {
		t.Fatalf("recovered query: ms=%v", ms)
	}
	if flaky.calls != 2 {
		t.Fatalf("recovering replica tried %d times, want 2 (1 failure + 1 success)", flaky.calls)
	}
}

// TestRetryBackoffHonorsContext: a context that dies mid-backoff fails the
// query promptly instead of sleeping out the schedule.
func TestRetryBackoffHonorsContext(t *testing.T) {
	q := twig.MustParse(`//a`)
	dead := &stubBackend{docs: 1, err: errors.New("boom")}
	sh := retryShard(t, RetryPolicy{Base: 10 * time.Second, Budget: 5}, dead)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := sh.Match(ctx, q, prix.MatchOptions{})
	if err == nil {
		t.Fatal("Match succeeded with a dead replica")
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("Match slept %v through context death", e)
	}
}
