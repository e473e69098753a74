package main

import (
	"os"
	"testing"
)

// exactLayers are the per-layer figures that are counts of work done, not
// times: with the same seed they must repeat to the last digit.
var exactLayers = []string{
	"pages_op", "prix.range_queries_op", "prix.candidates_op", "prix.pruned_op", "prix.useful_ratio",
	"docstore.fetches_op", "docstore.record_cache_hits_op", "hot.posting_hits_op", "hot.record_hits_op",
	"hot.resident_mb", "btree.scan_entries_op", "ingest.runs", "ingest.skips",
	"pager.writes_op", "pager.syncs_op", "pager.bytes_written_op",
	"mvcc.patch_bytes_op", "mvcc.relabel_ratio", "mvcc.versions", "mvcc.tombstones", "vtrie.underflows",
}

// TestQuickSmoke runs all four workloads twice at smoke size, traced, and
// holds the runs to each other: answers, space and every count must repeat
// exactly, the layers that should do no work must report none, and the runs
// must produce exactly the metrics BENCHMARK.json declares.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads twice (about 20 s)")
	}
	bench, err := readBench("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	answers := map[string]string{}
	produced := map[string]bool{}
	for _, w := range workloadNames {
		var runs [2]*runOutcome
		for i := range runs {
			r, err := runWorkload(runConfig{workload: w, dataSeed: 1, seed: 3, seconds: 1, trace: true, quick: true, outDir: out})
			if err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			if !r.correct || r.failed != 0 || r.attempted == 0 {
				t.Fatalf("%s: correct=%v failed=%d attempted=%d (%s)", w, r.correct, r.failed, r.attempted, r.header.Error)
			}
			runs[i] = r
		}
		a, b := runs[0], runs[1]
		if a.header.AnswersSHA != b.header.AnswersSHA || a.header.SequenceSHA != b.header.SequenceSHA {
			t.Errorf("%s: answers/sequence differ between runs: %s/%s vs %s/%s", w,
				a.header.AnswersSHA, a.header.SequenceSHA, b.header.AnswersSHA, b.header.SequenceSHA)
		}
		if a.endToEnd["space_amp"] != b.endToEnd["space_amp"] {
			t.Errorf("%s: space_amp %v vs %v", w, a.endToEnd["space_amp"], b.endToEnd["space_amp"])
		}
		for _, k := range exactLayers {
			if a.perLayer[k] != b.perLayer[k] {
				t.Errorf("%s: %s = %v, then %v", w, k, a.perLayer[k], b.perLayer[k])
			}
		}
		for _, d := range bench.EndToEnd {
			if a.endToEnd[d.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be zero", w, d.Name, a.endToEnd[d.Name])
			}
		}
		if len(a.endToEnd) != len(bench.EndToEnd) {
			t.Errorf("%s: run produced end-to-end metrics %v, BENCHMARK.json declares %d", w, a.endToEnd, len(bench.EndToEnd))
		}
		for k := range a.perLayer {
			produced[k] = true
		}
		// Zero expectations: the hot tier works only on hot_single, and the
		// resident workloads never reach the disk after warm-up.
		if w != "hot_single" {
			for _, k := range []string{"hot.posting_hits_op", "hot.record_hits_op", "hot.resident_mb", "hot.scan_us", "hot.summary_decode_us", "hot.evictions"} {
				if a.perLayer[k] != 0 {
					t.Errorf("%s: %s = %v, want 0", w, k, a.perLayer[k])
				}
			}
		}
		if (w == "hot_single" || w == "warm_sharded") && a.perLayer["pager.physical_reads_op"] != 0 {
			t.Errorf("%s: pager.physical_reads_op = %v, want 0", w, a.perLayer["pager.physical_reads_op"])
		}
		if w == "cold_single" && a.perLayer["pages_op"] == 0 {
			t.Errorf("cold_single read no pages")
		}
		if _, err := os.Stat(out + "/trace_" + w + ".json"); err != nil {
			t.Errorf("%s: no span file: %v", w, err)
		}
		answers[w] = a.header.AnswersSHA
	}
	// A per-layer name only BENCHMARK.json knows would print zero for ever; one
	// only the code knows would never be printed.
	for _, d := range bench.PerLayer {
		if !produced[d.Name] {
			t.Errorf("BENCHMARK.json declares per-layer metric %s, no workload produced it", d.Name)
		}
		delete(produced, d.Name)
	}
	for k := range produced {
		t.Errorf("per-layer metric %s is produced but not declared in BENCHMARK.json", k)
	}
	// One corpus, three engine configurations, one set of answers.
	if answers["cold_single"] != answers["hot_single"] || answers["warm_sharded"] != answers["hot_single"] {
		t.Errorf("answers_sha differ across the read-only workloads: %v", answers)
	}
}
