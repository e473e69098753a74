package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/pager/pagertest"
	"repro/internal/prix"
	"repro/internal/twig"
)

// Acceptance: with one document quarantined, the service keeps serving the
// healthy ones, flags the response (body field + X-Prix-Degraded header),
// reports a degraded /healthz, and counts it all in /metrics.
func TestDegradedModeServesHealthyDocs(t *testing.T) {
	ix := buildIndex(t, 4)
	full, _, err := ix.Match(twig.MustParse(`//a/b`), prix.MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Store().Quarantine(0)

	srv := New(ix, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/query", "text/plain", strings.NewReader(`//a/b`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: degraded service must keep answering", resp.StatusCode)
	}
	if resp.Header.Get("X-Prix-Degraded") != "true" {
		t.Error("X-Prix-Degraded header missing")
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var qr QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatalf("bad body %q: %v", raw, err)
	}
	if !qr.Degraded {
		t.Error("response not marked degraded")
	}
	if len(qr.Quarantined) != 1 || qr.Quarantined[0] != 0 {
		t.Errorf("quarantined = %v, want [0]", qr.Quarantined)
	}
	if qr.Count != len(full)-1 {
		t.Errorf("count = %d, want %d (full answer minus doc 0)", qr.Count, len(full)-1)
	}
	for _, m := range qr.Matches {
		if m.Doc == 0 {
			t.Error("match served from quarantined doc 0")
		}
	}
	// Degraded answers must not stick in the result cache.
	if n := srv.Executor().CacheLen(); n != 0 {
		t.Errorf("degraded result cached (%d entries)", n)
	}

	hz, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hzBody, _ := io.ReadAll(hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d: degraded is not down", hz.StatusCode)
	}
	if !strings.Contains(string(hzBody), `"degraded"`) {
		t.Errorf("healthz body %s does not report degraded", hzBody)
	}
	if hz.Header.Get("X-Prix-Degraded") != "true" {
		t.Error("healthz missing X-Prix-Degraded header")
	}

	mx, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mxBody, _ := io.ReadAll(mx.Body)
	mx.Body.Close()
	for _, want := range []string{
		"prix_quarantined_docs 1",
		"prix_degraded_responses_total 1",
	} {
		if !strings.Contains(string(mxBody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	if snap := srv.Snapshot(); snap.Quarantined != 1 || snap.Degraded != 1 {
		t.Errorf("snapshot quarantined=%d degraded=%d", snap.Quarantined, snap.Degraded)
	}
}

// faultySource fails its first n Matches with a transient error; the
// executor's single retry must absorb n==1 and give up at n==2.
type faultySource struct {
	*prix.Index
	failures int
}

func (s *faultySource) Match(q *twig.Query, opts prix.MatchOptions) ([]prix.Match, *prix.QueryStats, error) {
	if s.failures > 0 {
		s.failures--
		return nil, nil, pagertest.Injected("read")
	}
	return s.Index.Match(q, opts)
}

func TestTransientFaultRetriedOnce(t *testing.T) {
	ix := buildIndex(t, 4)

	// One failure: absorbed by the retry.
	src := &faultySource{Index: ix, failures: 1}
	ex := NewExecutor(src, 0, 0, nil)
	res, err := ex.Execute(tCtx(t), twig.MustParse(`//a/b`), QueryOptions{})
	if err != nil {
		t.Fatalf("single transient fault not absorbed: %v", err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("retry returned no result")
	}
	if got := ex.Metrics().TransientRetries.Load(); got != 1 {
		t.Errorf("TransientRetries = %d, want 1", got)
	}

	// Two failures: exactly one retry, then the error surfaces.
	src = &faultySource{Index: ix, failures: 2}
	ex = NewExecutor(src, 0, 0, nil)
	if _, err := ex.Execute(tCtx(t), twig.MustParse(`//a/b`), QueryOptions{}); err == nil {
		t.Fatal("second consecutive fault swallowed: retry not bounded")
	}
	if src.failures != 0 {
		t.Errorf("expected both scheduled failures consumed, %d left", src.failures)
	}
}

// The HTTP layer maps post-retry transient failures to 503 + Retry-After
// and corruption to 500, counting each.
func TestErrorClassStatusMapping(t *testing.T) {
	ix := buildIndex(t, 2)
	src := &faultySource{Index: ix, failures: 1 << 30} // never heals
	srv := New(src, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/query", "text/plain", strings.NewReader(`//a/b`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("transient failure status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if got := srv.Metrics().TransientRetries.Load(); got != 1 {
		t.Errorf("TransientRetries = %d, want 1", got)
	}
}

func tCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}
