package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/pager"
	"repro/internal/pager/pagertest"
	"repro/internal/scrub"
)

func TestScrubEndpointWithoutScrubber(t *testing.T) {
	ix := buildIndex(t, 2)
	defer ix.Close()
	srv := New(ix, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/scrub")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || body["enabled"] != false {
		t.Fatalf("GET /scrub = %d %v, want 200 enabled=false", resp.StatusCode, body)
	}

	rr, err := http.Post(ts.URL+"/repair", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /repair without scrubber = %d, want 503", rr.StatusCode)
	}
}

func TestScrubEndpointReportsStats(t *testing.T) {
	ix := buildIndex(t, 2)
	defer ix.Close()
	srv := New(ix, Config{})
	sc := scrub.New(ix, scrub.Config{Throttle: -1})
	srv.SetScrubber(sc)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, err := sc.RunPass(t.Context()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/scrub")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Enabled    bool         `json:"enabled"`
		Stats      scrub.Stats  `json:"stats"`
		LastReport scrub.Report `json:"last_report"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !body.Enabled || body.Stats.Passes != 1 || !body.LastReport.Clean {
		t.Fatalf("GET /scrub = %+v, want enabled, 1 pass, clean report", body)
	}
}

// TestRepairEndpointHealsDegradedService is the HTTP half of the self-healing
// story: a bit flip degrades query responses (X-Prix-Degraded), POST /repair
// heals the index online, and the same query comes back whole with the
// degraded-result cache invalidated.
func TestRepairEndpointHealsDegradedService(t *testing.T) {
	ix := buildIndex(t, 3)
	defer ix.Close()
	srv := New(ix, Config{})
	sc := scrub.New(ix, scrub.Config{Throttle: -1})
	srv.SetScrubber(sc)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, qr, _ := doQuery(t, ts.Client(), ts.URL, `{"query": "//a/b"}`)
	if status != http.StatusOK || qr.Degraded {
		t.Fatalf("baseline query: status %d degraded=%v", status, qr.Degraded)
	}
	full := qr.Count

	// Corrupt the first record page and drop the pools so reads see it.
	f := ix.Store().BufferPool().File()
	page := pager.PageID(0)
	found := false
	for id := uint32(0); id < f.NumPages(); id++ {
		if len(ix.Store().DocsOnPage(pager.PageID(id))) > 0 {
			page, found = pager.PageID(id), true
			break
		}
	}
	if !found {
		t.Fatal("no record pages")
	}
	if err := pagertest.FlipBit(f, page, (pager.PageHeaderSize+7)*8); err != nil {
		t.Fatal(err)
	}
	if err := ix.ResetIOStats(); err != nil {
		t.Fatal(err)
	}
	srv.Executor().InvalidateCache()

	resp, err := ts.Client().Post(ts.URL+"/query", "application/json", strings.NewReader(`{"query": "//a/b"}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded query: status %d body %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("X-Prix-Degraded") != "true" {
		t.Fatalf("degraded query missing X-Prix-Degraded header; body %s", raw)
	}
	var degraded QueryResponse
	if err := json.Unmarshal(raw, &degraded); err != nil {
		t.Fatal(err)
	}
	if degraded.Count >= full {
		t.Fatalf("degraded count %d not below full %d", degraded.Count, full)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK || hz.Header.Get("X-Prix-Degraded") != "true" {
		t.Fatalf("degraded healthz: status %d header %q, want 200 + degraded header",
			hz.StatusCode, hz.Header.Get("X-Prix-Degraded"))
	}

	rr, err := ts.Client().Post(ts.URL+"/repair", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(rr.Body)
		t.Fatalf("POST /repair = %d: %s", rr.StatusCode, raw)
	}
	var rep scrub.Report
	if err := json.NewDecoder(rr.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || len(rep.Repairs) == 0 {
		t.Fatalf("repair report not clean or empty: %+v", rep)
	}

	status, qr, _ = doQuery(t, ts.Client(), ts.URL, `{"query": "//a/b"}`)
	if status != http.StatusOK || qr.Degraded || qr.Count != full {
		t.Fatalf("post-repair query: status %d degraded=%v count=%d want 200/false/%d",
			status, qr.Degraded, qr.Count, full)
	}
}
