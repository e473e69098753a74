package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// metricDef is one metric as BENCHMARK.json declares it; only end-to-end
// metrics carry a bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchFile is the part of BENCHMARK.json the benchmark itself reads.
type benchFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBench(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// suiteRun is one run as a -suite file keeps it.
type suiteRun struct {
	Header header     `json:"header"`
	Result resultLine `json:"result"`
}

type suiteFile struct {
	Runs []suiteRun `json:"runs"`
}

// spawn runs one workload in a child process — the way the driver does —
// and parses the two JSON lines it prints.
func spawn(cfg runConfig, workload string, seed int64) (suiteRun, error) {
	self, err := os.Executable()
	if err != nil {
		return suiteRun{}, err
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10), "-data-seed", strconv.FormatInt(cfg.dataSeed, 10),
		"--seconds", strconv.Itoa(cfg.seconds), "--trace", "0", "-out", cfg.outDir}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return suiteRun{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return suiteRun{}, fmt.Errorf("%s seed %d: printed %d lines, want header and result", workload, seed, len(lines))
	}
	var run suiteRun
	var hdr struct {
		Header header `json:"header"`
	}
	if err := json.Unmarshal(lines[len(lines)-2], &hdr); err != nil {
		return suiteRun{}, err
	}
	run.Header = hdr.Header
	if err := json.Unmarshal(lines[len(lines)-1], &run.Result); err != nil {
		return suiteRun{}, err
	}
	return run, nil
}

func runSet(cfg runConfig, r int) ([]suiteRun, error) {
	var out []suiteRun
	for _, w := range workloadNames {
		run, err := spawn(cfg, w, cfg.seed+int64(r))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "  %s seed %d: ops_s %.1f p50 %.3f ms setup %.2f s (host ref %.0f ms)\n", w, run.Header.Seed,
			run.Header.Side["ops_s"], run.Header.Side["p50_ms"], run.Result.Metrics["setup_s"].Value, run.Header.HostRefMS)
		out = append(out, run)
	}
	return out, nil
}

func writeSuite(cfg runConfig, path string, runs int) error {
	var f suiteFile
	for r := 0; r < runs; r++ {
		set, err := runSet(cfg, r)
		if err != nil {
			return err
		}
		f.Runs = append(f.Runs, set...)
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// row is one workload × metric line of a comparison.
type row struct {
	workload, metric, unit string
	// gated rows are end-to-end metrics held to their committed bound. The
	// others are the header's ungated figures, labelled against the widest
	// bound the contract allows; they never fail a comparison.
	gated            bool
	bound            float64
	a, b             []float64
	medA, medB       float64
	spreadA, spreadB float64 // interquartile range as a share of the median
	gap              float64 // how much worse B's median is, as a share of A's
	verdict          string
}

func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return ratio(q3-q1, math.Abs(median(v)))
}

// widestBound is the largest bound the benchmark contract allows.
const widestBound = 0.25

// compareSets lines the two sets up by workload and metric. B is judged
// against A: gap > 0 means B is worse, in the metric's own direction.
func compareSets(bench *benchFile, a, b []suiteRun) []row {
	// A metric without a bound is one of the header's ungated figures; a
	// workload that has no such figure (pages_op off cold_single) reports 0.
	collect := func(runs []suiteRun, w string, m metricDef) []float64 {
		var v []float64
		for _, r := range runs {
			switch {
			case r.Header.Workload != w:
			case m.Bound > 0:
				v = append(v, r.Result.Metrics[m.Name].Value)
			case r.Header.Side[m.Name] != 0:
				v = append(v, r.Header.Side[m.Name])
			}
		}
		return v
	}
	metrics := append([]metricDef(nil), bench.EndToEnd...)
	for _, name := range sideMetrics {
		for _, m := range bench.PerLayer {
			if m.Name == name {
				metrics = append(metrics, m)
			}
		}
	}
	var rows []row
	for _, w := range workloadNames {
		for _, m := range metrics {
			r := row{workload: w, metric: m.Name, unit: m.Unit, gated: m.Bound > 0, bound: m.Bound,
				a: collect(a, w, m), b: collect(b, w, m)}
			if !r.gated {
				r.bound = widestBound
			}
			if len(r.a) == 0 || len(r.b) == 0 {
				continue
			}
			r.medA, r.medB = median(r.a), median(r.b)
			r.spreadA, r.spreadB = spread(r.a), spread(r.b)
			r.gap = ratio(r.medB-r.medA, r.medA)
			if m.Better == "higher" {
				r.gap = -r.gap
			}
			noise := math.Max(r.spreadA, r.spreadB)
			switch {
			case noise > r.bound:
				r.verdict = "unresolved" // the runs disagree with themselves by more than the bound
			case r.gap > r.bound:
				r.verdict = "regressed"
			case r.gap < 0 && -r.gap > noise:
				r.verdict = "improved"
			default:
				r.verdict = "unchanged"
			}
			rows = append(rows, r)
		}
	}
	return rows
}

func printRows(rows []row, nameA, nameB string) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\t%s median [q1 q3]\t%s median [q1 q3]\tspread\tgap (of %s median)\tbound\tverdict\n", nameA, nameB, nameA)
	for _, r := range rows {
		q1a, q3a := quartiles(r.a)
		q1b, q3b := quartiles(r.b)
		bound := fmt.Sprintf("%.0f%%", 100*r.bound)
		if !r.gated {
			bound = "not gated"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g %.4g] %s\t%.4g [%.4g %.4g] %s\t%.1f%% / %.1f%%\t%+.1f%% of %.4g %s\t%s\t%s\n",
			r.workload, r.metric, r.medA, q1a, q3a, r.unit, r.medB, q1b, q3b, r.unit,
			100*r.spreadA, 100*r.spreadB, 100*r.gap, r.medA, r.unit, bound, r.verdict)
	}
	tw.Flush()
}

func compareFiles(bench *benchFile, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants two -suite files: old.json new.json")
	}
	var files [2]suiteFile
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	rows := compareSets(bench, files[0].Runs, files[1].Runs)
	printRows(rows, "old", "new")
	for _, r := range rows {
		if r.gated && r.verdict == "regressed" {
			return fmt.Errorf("%s %s regressed by %.1f%% of %.4g %s (bound %.0f%%)", r.workload, r.metric, 100*r.gap, r.medA, r.unit, 100*r.bound)
		}
	}
	return nil
}

// selfCheck runs the same code as two sets, A and B, interleaved run by
// run so that slow drift of the host lands on both, and holds them to the
// committed bounds: a benchmark that cannot tell itself from itself cannot
// tell a regression from noise either. Both sets use the same seeds, so
// every count must also repeat exactly.
func selfCheck(cfg runConfig, bench *benchFile, runs int) error {
	var sets [2][]suiteRun
	for r := 0; r < runs; r++ {
		for i, name := range []string{"A", "B"} {
			fmt.Fprintf(os.Stderr, "run %d/%d set %s\n", r+1, runs, name)
			s, err := runSet(cfg, r)
			if err != nil {
				return err
			}
			sets[i] = append(sets[i], s...)
		}
	}
	a, b := sets[0], sets[1]
	rows := compareSets(bench, a, b)
	printRows(rows, "A", "B")
	var bad []string
	for _, r := range rows {
		if !r.gated {
			continue
		}
		if math.Abs(r.gap) > r.bound {
			bad = append(bad, fmt.Sprintf("%s %s: sets differ by %.1f%%, bound %.0f%%", r.workload, r.metric, 100*r.gap, 100*r.bound))
		}
		if r.metric != "setup_s" && math.Max(r.spreadA, r.spreadB) > r.bound {
			bad = append(bad, fmt.Sprintf("%s %s: spread %.1f%% exceeds bound %.0f%%", r.workload, r.metric, 100*math.Max(r.spreadA, r.spreadB), 100*r.bound))
		}
	}
	// Same seed, same code: the answers and the exact counts must agree.
	for i := range a {
		ha, hb := a[i].Header, b[i].Header
		if ha.AnswersSHA != hb.AnswersSHA || ha.Side["pages_op"] != hb.Side["pages_op"] ||
			a[i].Result.Metrics["space_amp"] != b[i].Result.Metrics["space_amp"] || a[i].Result.Failed != b[i].Result.Failed {
			bad = append(bad, fmt.Sprintf("%s seed %d: counts differ between sets (answers %s/%s, pages_op %v/%v, space_amp %v/%v)",
				ha.Workload, ha.Seed, ha.AnswersSHA, hb.AnswersSHA, ha.Side["pages_op"], hb.Side["pages_op"],
				a[i].Result.Metrics["space_amp"].Value, b[i].Result.Metrics["space_amp"].Value))
		}
	}
	bad = append(bad, crossWorkloadAnswers(a)...)
	for _, m := range bad {
		fmt.Println("FAIL", m)
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: %d checks failed", len(bad))
	}
	fmt.Println("selfcheck: every gap and spread within its bound; counts identical")
	return nil
}

// crossWorkloadAnswers holds the three read-only workloads to one
// answers_sha per seed: they serve the same corpus through different
// engine configurations.
func crossWorkloadAnswers(runs []suiteRun) []string {
	bySeed := map[int64]map[string]string{}
	for _, r := range runs {
		if r.Header.Workload == "mutate_mixed" {
			continue
		}
		if bySeed[r.Header.Seed] == nil {
			bySeed[r.Header.Seed] = map[string]string{}
		}
		bySeed[r.Header.Seed][r.Header.Workload] = r.Header.AnswersSHA
	}
	var bad []string
	for seed, m := range bySeed {
		for w, sha := range m {
			if sha != m["hot_single"] {
				bad = append(bad, fmt.Sprintf("seed %d: %s answers_sha %s, hot_single %s", seed, w, sha, m["hot_single"]))
			}
		}
	}
	return bad
}
