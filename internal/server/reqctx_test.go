package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/prix"
	"repro/internal/shard"
	"repro/internal/twig"
)

// deadlineSource records the deadline every Match runs under.
type deadlineSource struct {
	*prix.Index
	remaining time.Duration // time left to the deadline; -1 when there is none
}

func (s *deadlineSource) Match(q *twig.Query, opts prix.MatchOptions) ([]prix.Match, *prix.QueryStats, error) {
	s.remaining = -1
	if d, ok := opts.Ctx.Deadline(); ok {
		s.remaining = time.Until(d)
	}
	return s.Index.Match(q, opts)
}

// TestTimeoutMSClampedToMax: timeout_ms is capped by MaxTimeout before it
// becomes a Duration. Multiplied first, 9223372036854775807 ms wrapped to
// -1 ms and ran with no deadline at all, and 9223372036854776 ms to 192 µs,
// a spurious 504.
func TestTimeoutMSClampedToMax(t *testing.T) {
	const maxTimeout = 5 * time.Second
	src := &deadlineSource{Index: buildIndex(t, 4)}
	h := New(src, Config{MaxTimeout: maxTimeout, CacheCapacity: -1}).Handler()
	for _, tc := range []struct {
		ms   string
		want time.Duration
	}{
		{"9223372036854775807", maxTimeout},
		{"9223372036854776", maxTimeout},
		{"1500", 1500 * time.Millisecond},
	} {
		rec := httptest.NewRecorder()
		body := `{"query": "//a/b", "timeout_ms": ` + tc.ms + `}`
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Errorf("timeout_ms %s: status %d (%s), want 200", tc.ms, rec.Code, rec.Body)
			continue
		}
		if got := src.remaining; got > tc.want || got < tc.want-time.Second {
			t.Errorf("timeout_ms %s: the query ran %v before its deadline, want %v", tc.ms, got, tc.want)
		}
	}
}

// ctxKey is a context value key for the Value check.
type ctxKey struct{}

// TestRequestContextMatchesStdlib holds the pooled request deadline to
// context.WithTimeout's behaviour, side by side on the same parent: Err
// before and after expiry and after parent cancellation, Done closing in
// both cases (made before the event and after it), Deadline and Value. Then
// end to end: a query whose deadline expires mid-descent answers 504; a timer
// that fires after its request has ended never expires the request that
// reuses the value; and on the sharded path the oracle differential's shard
// cases run under the pooled deadline while a deadline expiring during a
// wait for shard admission answers 504.
func TestRequestContextMatchesStdlib(t *testing.T) {
	type side struct {
		name string
		ctx  context.Context
	}
	// pair builds both contexts on one parent; release runs once the case is
	// over, as the handler's defer does.
	pair := func(t *testing.T, parent context.Context, timeout time.Duration) []side {
		std, cancel := context.WithTimeout(parent, timeout)
		rc := withTimeout(parent, timeout)
		t.Cleanup(func() { cancel(); rc.release() })
		return []side{{"stdlib", std}, {"pooled", rc}}
	}
	waitDone := func(t *testing.T, s side) {
		t.Helper()
		select {
		case <-s.ctx.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Done never closed", s.name)
		}
	}
	closed := func(ctx context.Context) bool {
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
	t.Run("before expiry", func(t *testing.T) {
		parent := context.WithValue(context.Background(), ctxKey{}, "v")
		start := time.Now()
		sides := pair(t, parent, time.Hour)
		for _, s := range sides {
			if err := s.ctx.Err(); err != nil {
				t.Errorf("%s: Err = %v before expiry", s.name, err)
			}
			if closed(s.ctx) {
				t.Errorf("%s: Done closed before expiry", s.name)
			}
			d, ok := s.ctx.Deadline()
			if !ok || d.Before(start.Add(time.Hour)) || d.After(time.Now().Add(time.Hour)) {
				t.Errorf("%s: Deadline = %v, %v; want an hour from now", s.name, d, ok)
			}
			if v := s.ctx.Value(ctxKey{}); v != "v" {
				t.Errorf("%s: Value = %v, want the parent's", s.name, v)
			}
		}
	})
	t.Run("expiry, Done made before", func(t *testing.T) {
		for _, s := range pair(t, context.Background(), 5*time.Millisecond) {
			s.ctx.Done()
			waitDone(t, s)
			if err := s.ctx.Err(); err != context.DeadlineExceeded {
				t.Errorf("%s: Err = %v after expiry, want DeadlineExceeded", s.name, err)
			}
		}
	})
	t.Run("expiry, Done made after", func(t *testing.T) {
		for _, s := range pair(t, context.Background(), 5*time.Millisecond) {
			for s.ctx.Err() == nil {
				time.Sleep(time.Millisecond)
			}
			if err := s.ctx.Err(); err != context.DeadlineExceeded || !closed(s.ctx) {
				t.Errorf("%s: Err = %v, Done closed %v after expiry; want DeadlineExceeded, true", s.name, err, closed(s.ctx))
			}
		}
	})
	t.Run("parent canceled", func(t *testing.T) {
		parent, cancel := context.WithCancel(context.Background())
		sides := pair(t, parent, 20*time.Millisecond)
		sides[0].ctx.Done()
		sides[1].ctx.Done()
		cancel()
		for _, s := range sides {
			waitDone(t, s)
			if err := s.ctx.Err(); err != context.Canceled {
				t.Errorf("%s: Err = %v after parent cancellation, want Canceled", s.name, err)
			}
		}
		// The deadline passing later does not change the error.
		time.Sleep(40 * time.Millisecond)
		for _, s := range sides {
			if err := s.ctx.Err(); err != context.Canceled {
				t.Errorf("%s: Err = %v once the deadline passed too, want Canceled", s.name, err)
			}
		}
	})
	t.Run("parent canceled, Done made after", func(t *testing.T) {
		parent, cancel := context.WithCancel(context.Background())
		sides := pair(t, parent, time.Hour)
		cancel()
		for _, s := range sides {
			if err := s.ctx.Err(); err != context.Canceled || !closed(s.ctx) {
				t.Errorf("%s: Err = %v, Done closed %v after parent cancellation", s.name, s.ctx.Err(), closed(s.ctx))
			}
		}
	})
	t.Run("parent deadline sooner", func(t *testing.T) {
		parent, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		pd, _ := parent.Deadline()
		for _, s := range pair(t, parent, time.Hour) {
			if d, ok := s.ctx.Deadline(); !ok || !d.Equal(pd) {
				t.Errorf("%s: Deadline = %v, %v; want the parent's %v", s.name, d, ok, pd)
			}
			waitDone(t, s)
			if err := s.ctx.Err(); err != context.DeadlineExceeded {
				t.Errorf("%s: Err = %v, want DeadlineExceeded", s.name, err)
			}
		}
	})
	t.Run("parent deadline passed", func(t *testing.T) {
		parent, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		for _, s := range pair(t, parent, time.Hour) {
			if err := s.ctx.Err(); err != context.DeadlineExceeded || !closed(s.ctx) {
				t.Errorf("%s: Err = %v, Done closed %v under an expired parent", s.name, err, closed(s.ctx))
			}
		}
	})

	t.Run("expires mid-descent", func(t *testing.T) {
		src := &stallingSource{Index: buildIndex(t, 20), at: 3}
		h := New(src, Config{CacheCapacity: -1}).Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query",
			strings.NewReader(`{"query": "//a[./b/c]/d", "timeout_ms": 20}`)))
		if rec.Code != http.StatusGatewayTimeout || !strings.Contains(rec.Body.String(), "match canceled") {
			t.Fatalf("status %d (%s), want 504 from the descent", rec.Code, rec.Body)
		}
		if n := src.calls.Load(); n < 3 {
			t.Fatalf("Err called %d times: the deadline never reached the descent", n)
		}
	})

	t.Run("late timer", func(t *testing.T) {
		reused := 0
		for i := 0; i < 600; i++ {
			// A deadline a few microseconds out, released at about the moment
			// its timer fires, so release meets the callback in every state:
			// stopped in time, already run, and started but not yet run.
			c := withTimeout(context.Background(), time.Duration(i%50)*time.Microsecond)
			time.Sleep(time.Duration(i%40) * time.Microsecond)
			c.release()
			next := withTimeout(context.Background(), time.Hour)
			if next == c {
				reused++
			}
			time.Sleep(100 * time.Microsecond) // room for a stale callback to run
			if err := next.Err(); err != nil {
				t.Fatalf("round %d: a fresh hour-long deadline reports %v", i, err)
			}
			next.release()
		}
		if reused == 0 {
			t.Fatal("no value was reused: nothing was tested")
		}
	})

	t.Run("sharded", func(t *testing.T) {
		// The oracle differential's shard cases under the pooled deadline.
		docs := oracleCorpus()
		co, err := shard.BuildMemory(docs, shard.BuildConfig{Shards: 3, Extended: true, Epoch: 1}, shard.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer co.Close()
		ts := httptest.NewServer(New(co, Config{CacheCapacity: -1}).Handler())
		defer ts.Close()
		for _, shape := range oracleShapes {
			q := twig.MustParse(shape)
			code, qr, raw := doQuery(t, ts.Client(), ts.URL, `{"query": "`+strings.ReplaceAll(shape, `"`, `\"`)+`", "timeout_ms": 2000}`)
			if code != http.StatusOK {
				t.Fatalf("%s: %d %s", shape, code, raw)
			}
			if oracle := twig.CountBruteForce(q, docs); qr.Complete && qr.Count != oracle || qr.Count > oracle {
				t.Errorf("%s: count %d (complete %v), oracle %d", shape, qr.Count, qr.Complete, oracle)
			}
		}

		// One shard admitting one query at a time, held by a blocked one: a
		// second query's deadline expires while it waits for admission.
		ix, err := prix.Build(docs, prix.Options{Extended: true})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		blocked := &blockingSource{Index: ix, entered: make(chan struct{}, 4), release: make(chan struct{})}
		topo := &shard.Topology{Version: 1, Shards: 1, Replicas: 1, Extended: true, Docs: uint32(len(docs)), Epoch: 1}
		one, err := shard.NewCoordinator(topo, [][]prix.Source{{blocked}}, shard.Config{MaxInFlightPerShard: 1})
		if err != nil {
			t.Fatal(err)
		}
		h := New(one, Config{CacheCapacity: -1, DefaultTimeout: -1}).Handler()
		holder := make(chan int, 1)
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`//a/b`)))
			holder <- rec.Code
		}()
		select {
		case <-blocked.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("the holding query never reached the shard")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query",
			strings.NewReader(`{"query": "//d/e", "timeout_ms": 20}`)))
		if rec.Code != http.StatusGatewayTimeout || !strings.Contains(rec.Body.String(), "admission") {
			t.Errorf("query waiting for admission: status %d (%s), want 504 from admission", rec.Code, rec.Body)
		}
		close(blocked.release)
		if code := <-holder; code != http.StatusOK {
			t.Errorf("holding query: status %d, want 200", code)
		}
	})
}

// stallingSource runs Match under a context whose Err, from call number at
// on, first waits for the request's own deadline: every Err call from the
// engine's start check on is one descent step, so the deadline is observed
// mid-descent, not before it.
type stallingSource struct {
	*prix.Index
	at    int64
	calls atomic.Int64
}

type stallingCtx struct {
	context.Context
	src *stallingSource
}

func (c stallingCtx) Err() error {
	if c.src.calls.Add(1) >= c.src.at {
		for c.Context.Err() == nil {
			time.Sleep(100 * time.Microsecond)
		}
	}
	return c.Context.Err()
}

func (s *stallingSource) Match(q *twig.Query, opts prix.MatchOptions) ([]prix.Match, *prix.QueryStats, error) {
	opts.Ctx = stallingCtx{Context: opts.Ctx, src: s}
	return s.Index.Match(q, opts)
}
