package main

import (
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// trendReportJSON builds one BENCH_*.json document for trend tests. A
// ckptS of 0 omits the figure benchmark carrying GP_ckpt_s entirely.
func trendReportJSON(commit, when string, sendNs, sendAllocs, ckptS float64) string {
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var sb strings.Builder
	sb.WriteString(`{"commit": "` + commit + `", "when": "` + when + `", "benchmarks": [`)
	sb.WriteString(`{"pkg": "repro/internal/mpi", "name": "BenchmarkSendPath", "runs": 100000, "nsPerOp": ` +
		num(sendNs) + `, "metrics": {"allocs/op": ` + num(sendAllocs) + `}}`)
	if ckptS > 0 {
		sb.WriteString(`, {"pkg": "repro", "name": "BenchmarkFig06Ckpt", "runs": 1, "nsPerOp": 5, "metrics": {"GP_ckpt_s": ` + num(ckptS) + `}}`)
	}
	sb.WriteString(`]}`)
	return sb.String()
}

// TestTrendCleanExitsZero: three reports within tolerance render a table
// and exit 0, columns ordered oldest → newest by the "when" stamp.
func TestTrendCleanExitsZero(t *testing.T) {
	dir := t.TempDir()
	// Written out of chronological order on purpose: ordering must come
	// from the recorded timestamps, not directory order.
	write(t, dir+"/BENCH_ccc.json", trendReportJSON("ccc", "2026-08-03T10:00:00Z", 1210, 0, 0.52))
	write(t, dir+"/BENCH_aaa.json", trendReportJSON("aaa", "2026-08-01T10:00:00Z", 1200, 0, 0.50))
	write(t, dir+"/BENCH_bbb.json", trendReportJSON("bbb", "2026-08-02T10:00:00Z", 1180, 0, 0.51))
	out, err := runCLI(t, "-trend", dir, "-match", ".*")
	if err != nil {
		t.Fatalf("clean trend exited non-zero: %v\n%s", err, out)
	}
	if !strings.Contains(out, "## Benchmark trend (3 reports") {
		t.Errorf("no markdown header:\n%s", out)
	}
	header := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "| benchmark |") {
			header = line
			break
		}
	}
	a, b, c := strings.Index(header, "aaa"), strings.Index(header, "bbb"), strings.Index(header, "ccc")
	if a < 0 || b < 0 || c < 0 || !(a < b && b < c) {
		t.Errorf("columns not in when order: %q", header)
	}
	if !strings.Contains(out, "GP_ckpt_s") {
		t.Errorf("tracked custom metric missing:\n%s", out)
	}
	if !strings.Contains(out, "All tracked metrics within") {
		t.Errorf("no clean summary:\n%s", out)
	}
}

// TestTrendBreachExitsOne: the latest report drifting a tracked metric up
// beyond tolerance exits 1 and marks the row.
func TestTrendBreachExitsOne(t *testing.T) {
	dir := t.TempDir()
	write(t, dir+"/BENCH_aaa.json", trendReportJSON("aaa", "2026-08-01T10:00:00Z", 1200, 0, 0.50))
	write(t, dir+"/BENCH_bbb.json", trendReportJSON("bbb", "2026-08-02T10:00:00Z", 1700, 0, 0.50))
	out, err := runCLI(t, "-trend", dir, "-match", ".*")
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("+42%% ns/op drift did not exit 1 (err=%v):\n%s", err, out)
	}
	if !strings.Contains(out, "⚠") || !strings.Contains(out, "BenchmarkSendPath") {
		t.Errorf("breach not marked in table:\n%s", out)
	}
}

// TestTrendAllocRegressionCaught: allocs/op is tracked independently of
// ns/op — a hot path that starts allocating is drift even at equal speed.
func TestTrendAllocRegressionCaught(t *testing.T) {
	dir := t.TempDir()
	write(t, dir+"/BENCH_aaa.json", trendReportJSON("aaa", "2026-08-01T10:00:00Z", 1200, 2, 0))
	write(t, dir+"/BENCH_bbb.json", trendReportJSON("bbb", "2026-08-02T10:00:00Z", 1200, 5, 0))
	out, err := runCLI(t, "-trend", dir, "-match", ".*")
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("allocs/op 2 → 5 did not exit 1 (err=%v):\n%s", err, out)
	}
	if !strings.Contains(out, "allocs/op") {
		t.Errorf("allocs/op row missing:\n%s", out)
	}
}

// TestTrendTolerance: -tolerance moves the bar.
func TestTrendTolerance(t *testing.T) {
	dir := t.TempDir()
	write(t, dir+"/BENCH_aaa.json", trendReportJSON("aaa", "2026-08-01T10:00:00Z", 1000, 0, 0))
	write(t, dir+"/BENCH_bbb.json", trendReportJSON("bbb", "2026-08-02T10:00:00Z", 1300, 0, 0))
	if out, err := runCLI(t, "-trend", dir, "-match", ".*", "-tolerance", "0.5"); err != nil {
		t.Fatalf("+30%% within 50%% tolerance exited non-zero: %v\n%s", err, out)
	}
	if _, err := runCLI(t, "-trend", dir, "-match", ".*", "-tolerance", "0.1"); err == nil {
		t.Fatal("+30% against 10% tolerance exited zero")
	}
}

// TestTrendNeedsTwoReports: a single report is not a trajectory.
func TestTrendNeedsTwoReports(t *testing.T) {
	dir := t.TempDir()
	write(t, dir+"/BENCH_aaa.json", trendReportJSON("aaa", "2026-08-01T10:00:00Z", 1000, 0, 0))
	out, err := runCLI(t, "-trend", dir)
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("single report did not exit 2 (err=%v):\n%s", err, out)
	}
	if !strings.Contains(out, "at least 2") {
		t.Errorf("no usage message:\n%s", out)
	}
}

// TestTrendIgnoresOtherFiles: only BENCH_*.json participates — baselines
// and stray files in the artifact directory are not trajectory points.
func TestTrendIgnoresOtherFiles(t *testing.T) {
	dir := t.TempDir()
	write(t, dir+"/BENCH_aaa.json", trendReportJSON("aaa", "2026-08-01T10:00:00Z", 1000, 0, 0))
	write(t, dir+"/BENCH_bbb.json", trendReportJSON("bbb", "2026-08-02T10:00:00Z", 1010, 0, 0))
	write(t, dir+"/bench-baseline.json", trendReportJSON("zzz", "2026-08-03T10:00:00Z", 9999, 0, 0))
	write(t, dir+"/notes.txt", "not json")
	out, err := runCLI(t, "-trend", dir, "-match", ".*")
	if err != nil {
		t.Fatalf("trend failed: %v\n%s", err, out)
	}
	if strings.Contains(out, "zzz") || strings.Contains(out, "9999") {
		t.Errorf("non-BENCH file leaked into the table:\n%s", out)
	}
}

// TestTrendDefaultMatchFollowsTrackedMetric: with the default -match (which
// excludes figure benchmarks by name), GP_ckpt_s is still followed — naming
// a metric in -track is the opt-in — while the figure's ns/op stays out.
func TestTrendDefaultMatchFollowsTrackedMetric(t *testing.T) {
	dir := t.TempDir()
	write(t, dir+"/BENCH_aaa.json", trendReportJSON("aaa", "2026-08-01T10:00:00Z", 1000, 0, 0.50))
	write(t, dir+"/BENCH_bbb.json", trendReportJSON("bbb", "2026-08-02T10:00:00Z", 1010, 0, 0.90))
	out, err := runCLI(t, "-trend", dir)
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("GP_ckpt_s 0.5 → 0.9 under default flags did not exit 1 (err=%v):\n%s", err, out)
	}
	if !strings.Contains(out, "GP_ckpt_s") {
		t.Errorf("GP_ckpt_s row missing:\n%s", out)
	}
	if strings.Contains(out, "| BenchmarkFig06Ckpt | ns/op |") ||
		strings.Contains(out, "Fig06Ckpt | ns/op") {
		t.Errorf("figure ns/op row leaked past the default filter:\n%s", out)
	}
}

// TestTrendGapsRendered: a benchmark absent from a middle report gets a
// gap cell, and the drift compares against the last present value.
func TestTrendGapsRendered(t *testing.T) {
	dir := t.TempDir()
	write(t, dir+"/BENCH_aaa.json", trendReportJSON("aaa", "2026-08-01T10:00:00Z", 1000, 0, 0.5))
	write(t, dir+"/BENCH_bbb.json", trendReportJSON("bbb", "2026-08-02T10:00:00Z", 1010, 0, 0))
	write(t, dir+"/BENCH_ccc.json", trendReportJSON("ccc", "2026-08-03T10:00:00Z", 1020, 0, 0.9))
	out, err := runCLI(t, "-trend", dir, "-match", ".*")
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("GP_ckpt_s 0.5 → (gap) → 0.9 did not exit 1 (err=%v):\n%s", err, out)
	}
	if !strings.Contains(out, "| – |") {
		t.Errorf("gap cell not rendered:\n%s", out)
	}
}

// guardedJSON is a report carrying two benchmarks the default -match
// guards plus one figure benchmark it excludes.
const guardedJSON = `{"commit": "aaa", "when": "2026-08-01T10:00:00Z", "benchmarks": [
	{"pkg": "repro/internal/scenario", "name": "BenchmarkScenario4096", "runs": 1, "nsPerOp": 1000000},
	{"pkg": "repro/internal/sim", "name": "BenchmarkKernelHold", "runs": 10, "nsPerOp": 200},
	{"pkg": "repro", "name": "BenchmarkFig01CoordinationCost", "runs": 1, "nsPerOp": 5}
]}`

// TestRegressionExitsNonZero: under the default -match, a guarded scenario
// benchmark slowing down 30% is a breach.
func TestRegressionExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	write(t, dir+"/BENCH_aaa.json", guardedJSON)
	write(t, dir+"/BENCH_bbb.json", `{"commit": "bbb", "when": "2026-08-02T10:00:00Z", "benchmarks": [
		{"pkg": "repro/internal/scenario", "name": "BenchmarkScenario4096", "runs": 1, "nsPerOp": 1300000},
		{"pkg": "repro/internal/sim", "name": "BenchmarkKernelHold", "runs": 10, "nsPerOp": 200},
		{"pkg": "repro", "name": "BenchmarkFig01CoordinationCost", "runs": 1, "nsPerOp": 5}
	]}`)
	out, err := runCLI(t, "-trend", dir)
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("+30%% regression did not exit 1 (err=%v):\n%s", err, out)
	}
	if !strings.Contains(out, "BenchmarkScenario4096 | ns/op") || !strings.Contains(out, "⚠ +30.0%") {
		t.Errorf("regression not flagged:\n%s", out)
	}
}

// TestFigureBenchmarksIgnoredByDefault: end-to-end figure regenerations
// are outside the default filter: their wall clock is dominated by
// experiment size, not the kernel hot path, and they run at -benchtime=1x
// in CI.
func TestFigureBenchmarksIgnoredByDefault(t *testing.T) {
	dir := t.TempDir()
	write(t, dir+"/BENCH_aaa.json", guardedJSON)
	write(t, dir+"/BENCH_bbb.json", `{"commit": "bbb", "when": "2026-08-02T10:00:00Z", "benchmarks": [
		{"pkg": "repro/internal/scenario", "name": "BenchmarkScenario4096", "runs": 1, "nsPerOp": 1000000},
		{"pkg": "repro/internal/sim", "name": "BenchmarkKernelHold", "runs": 10, "nsPerOp": 200},
		{"pkg": "repro", "name": "BenchmarkFig01CoordinationCost", "runs": 1, "nsPerOp": 500}
	]}`)
	out, err := runCLI(t, "-trend", dir)
	if err != nil {
		t.Fatalf("figure 100x slowdown must not fail the default filter: %v\n%s", err, out)
	}
	if strings.Contains(out, "Fig01") {
		t.Errorf("figure benchmark tracked despite filter:\n%s", out)
	}
}

// TestMissingGuardedBenchmarkFlagged: a guarded benchmark present in the
// previous report and missing from the latest is lost coverage, not a
// pass — it is shown and counted as a breach.
func TestMissingGuardedBenchmarkFlagged(t *testing.T) {
	dir := t.TempDir()
	write(t, dir+"/BENCH_aaa.json", guardedJSON)
	// BenchmarkScenario4096 vanished from the fresh report entirely.
	write(t, dir+"/BENCH_bbb.json", `{"commit": "bbb", "when": "2026-08-02T10:00:00Z", "benchmarks": [
		{"pkg": "repro/internal/sim", "name": "BenchmarkKernelHold", "runs": 10, "nsPerOp": 200}
	]}`)
	out, err := runCLI(t, "-trend", dir)
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("missing guarded benchmark did not exit 1 (err=%v):\n%s", err, out)
	}
	if !strings.Contains(out, "| scenario:BenchmarkScenario4096 | ns/op | 1000000 | – | **⚠ gone** |") {
		t.Errorf("missing benchmark not flagged:\n%s", out)
	}
	if strings.Contains(out, "Fig01") {
		t.Errorf("unguarded figure benchmark flagged as missing:\n%s", out)
	}
}

// TestMissingTrendExitsUsage: with no report directory there is nothing
// to compare.
func TestMissingTrendExitsUsage(t *testing.T) {
	out, err := runCLI(t)
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("missing -trend did not exit 2 (err=%v):\n%s", err, out)
	}
}

// onMachine stamps a report document with the machine fields benchjson
// records.
func onMachine(doc, cpu string, numCPU, procs int) string {
	return strings.Replace(doc, "{", `{"cpu": "`+cpu+`", "numCPU": `+strconv.Itoa(numCPU)+
		`, "gomaxprocs": `+strconv.Itoa(procs)+`, `, 1)
}

// TestTrendComparesSameMachineOnly: the newest report's drift is measured
// against the latest earlier report from its own machine, skipping a
// report from another machine in between, in both directions — a slow
// host's report neither hides a regression nor flags a fast one.
func TestTrendComparesSameMachineOnly(t *testing.T) {
	cases := []struct {
		name        string
		other, head float64 // ns/op of the other machine's report and the newest
		wantExit    int
		wantDelta   string
	}{
		{"faster host in between", 500, 1050, 0, "+5.0%"},
		{"slower host in between", 1500, 1300, 1, "⚠ +30.0%"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			write(t, dir+"/BENCH_aaa.json", onMachine(trendReportJSON("aaa", "2026-08-01T10:00:00Z", 1000, 0, 0), "Xeon", 2, 2))
			write(t, dir+"/BENCH_bbb.json", onMachine(trendReportJSON("bbb", "2026-08-02T10:00:00Z", tc.other, 0, 0), "EPYC", 8, 8))
			write(t, dir+"/BENCH_ccc.json", onMachine(trendReportJSON("ccc", "2026-08-03T10:00:00Z", tc.head, 0, 0), "Xeon", 2, 2))
			out, err := runCLI(t, "-trend", dir, "-match", ".*")
			code := 0
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != tc.wantExit {
				t.Fatalf("exit %d, want %d:\n%s", code, tc.wantExit, out)
			}
			row := "| mpi:BenchmarkSendPath | ns/op | 1000 | " + strconv.FormatFloat(tc.other, 'f', -1, 64) +
				" | " + strconv.FormatFloat(tc.head, 'f', -1, 64) + " | "
			if !strings.Contains(out, row) || !strings.Contains(out, tc.wantDelta) {
				t.Errorf("Δ %q against the same-machine report missing:\n%s", tc.wantDelta, out)
			}
			if !strings.Contains(out, "ccc against aaa") {
				t.Errorf("baseline not named:\n%s", out)
			}
		})
	}
}

// TestTrendNoSameMachineBaseline: when no earlier report comes from the
// newest one's machine, a slowdown and a vanished guarded benchmark are
// machine drift, not breaches: the table says so and the exit is 0. A
// report without a machine record does not match one with it.
func TestTrendNoSameMachineBaseline(t *testing.T) {
	dir := t.TempDir()
	write(t, dir+"/BENCH_aaa.json", guardedJSON)
	write(t, dir+"/BENCH_bbb.json", onMachine(`{"commit": "bbb", "when": "2026-08-02T10:00:00Z", "benchmarks": [
		{"pkg": "repro/internal/sim", "name": "BenchmarkKernelHold", "runs": 10, "nsPerOp": 400}
	]}`, "Xeon", 2, 1))
	out, err := runCLI(t, "-trend", dir)
	if err != nil {
		t.Fatalf("no same-machine baseline exited non-zero: %v\n%s", err, out)
	}
	if !strings.Contains(out, "no same-machine baseline") {
		t.Errorf("missing baseline not reported:\n%s", out)
	}
	if strings.Contains(out, "⚠") {
		t.Errorf("cross-machine drift flagged:\n%s", out)
	}
}
