// benchdiff renders the benchmark trajectory: it ingests a whole
// directory of BENCH_*.json reports (cmd/benchjson output, one per
// commit), orders them by recorded timestamp (then file mtime, then name),
// and renders a markdown trend table: one row per (benchmark, metric), one
// column per commit. It tracks ns/op, allocs/op, and any custom benchmark
// metrics named with -track (e.g. GP_ckpt_s from BenchmarkFig06), and
// flags the latest report when a tracked metric drifted up by more than
// -tolerance versus its baseline, or when a -match benchmark present in
// the baseline is missing from the latest. The baseline is the latest
// earlier report from the same machine (CPU model, CPU count, GOMAXPROCS,
// as cmd/benchjson records them): a faster or slower host is not a
// regression. With no such report the drift check is skipped and the
// table says "no same-machine baseline". The -match filter
// applies to the ns/op and allocs/op rows only; custom -track metrics are
// followed on every benchmark reporting them, since naming one is already
// an opt-in. CI posts the table to the job summary (`make bench-trend`);
// see EXPERIMENTS.md.
//
// Usage:
//
//	benchdiff -trend .
//	benchdiff -trend artifacts/ -tolerance 0.25 -track GP_ckpt_s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
)

// Benchmark mirrors cmd/benchjson's per-benchmark record.
type Benchmark struct {
	Pkg     string             `json:"pkg,omitempty"`
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	NsPerOp float64            `json:"nsPerOp,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report mirrors cmd/benchjson's document.
type Report struct {
	Commit     string      `json:"commit,omitempty"`
	When       string      `json:"when,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	NumCPU     int         `json:"numCPU,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// machine identifies the host a report was measured on. Reports written
// before benchjson recorded the machine all share the empty identity.
func (r *Report) machine() string {
	if r.CPU == "" && r.NumCPU == 0 && r.GOMAXPROCS == 0 {
		return ""
	}
	return fmt.Sprintf("%s, %d CPUs, GOMAXPROCS %d", r.CPU, r.NumCPU, r.GOMAXPROCS)
}

// defaultMatch selects the benchmarks whose wall clock the refactors of the
// simulation hot path, the random streams and the cell scheduler are
// accountable for.
const defaultMatch = `^Benchmark(Scenario|Kernel|EventHeap|SendPath|MapCtx|CacheHit|NodeRand)`

func main() {
	var (
		match     = flag.String("match", defaultMatch, "regexp selecting the benchmarks whose ns/op and allocs/op are tracked")
		trend     = flag.String("trend", "", "directory of BENCH_*.json reports to render as a markdown trend table (required)")
		tolerance = flag.Float64("tolerance", 0.20, "flag a tracked metric drifting up by more than this fraction vs the same-machine baseline")
		track     = flag.String("track", "GP_ckpt_s", "comma-separated custom benchmark metrics to track besides ns/op and allocs/op")
	)
	flag.Parse()
	if *trend == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -trend DIR is required")
		os.Exit(2)
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		fatal(err)
	}
	os.Exit(runTrend(*trend, re, *tolerance, *track))
}

func load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchdiff: %w", err)
	}
	r := &Report{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %w", path, err)
	}
	return r, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
