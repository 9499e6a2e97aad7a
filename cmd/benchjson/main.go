// benchjson converts `go test -bench` text output on stdin into a JSON
// document on stdout, so CI can archive benchmark timings as one
// BENCH_<short-sha>.json artifact per push and the performance trajectory
// of the simulator is recorded run over run (see `make bench-json`).
//
// Input is the standard benchmark format:
//
//	pkg: repro/internal/sim
//	BenchmarkEventHeap/concrete-8   9023472   147.1 ns/op   0 B/op   0 allocs/op
//
// Every `unit: value` pair after the iteration count is kept, so custom
// metrics (events/op, exec_s, ...) survive into the JSON. The report also
// records the machine the benchmarks ran on — the `cpu:` line go test
// prints, runtime.NumCPU and GOMAXPROCS — so `benchdiff -trend` compares
// reports from one machine only.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one benchmark result line.
type Benchmark struct {
	Pkg     string             `json:"pkg,omitempty"`
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	NsPerOp float64            `json:"nsPerOp,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the archived document.
type Report struct {
	Commit     string      `json:"commit,omitempty"`
	When       string      `json:"when,omitempty"` // RFC3339; orders trend reports
	GoVersion  string      `json:"goVersion"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	CPU        string      `json:"cpu,omitempty"` // go test's "cpu:" line
	NumCPU     int         `json:"numCPU,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	commit := flag.String("commit", "", "commit short sha recorded in the report")
	when := flag.String("when", "", "RFC3339 timestamp recorded in the report (default: the commit time CI passes; empty = now)")
	flag.Parse()

	report, err := parse(os.Stdin, *commit)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	report.When = *when
	if report.When == "" {
		report.When = time.Now().UTC().Format(time.RFC3339)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

func parse(r io.Reader, commit string) (*Report, error) {
	report := &Report{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: []Benchmark{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if rest, ok := strings.CutPrefix(line, "cpu: "); ok {
			report.CPU = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", line, err)
		}
		b.Pkg = pkg
		report.Benchmarks = append(report.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return report, nil
}

// parseLine decodes one `BenchmarkName-P  runs  value unit  value unit ...`
// result line.
func parseLine(line string) (Benchmark, error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return Benchmark{}, fmt.Errorf("too few fields")
	}
	runs, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("iteration count: %w", err)
	}
	b := Benchmark{Name: f[0], Runs: runs}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("metric value %q: %w", f[i], err)
		}
		unit := f[i+1]
		if unit == "ns/op" {
			b.NsPerOp = v
			continue
		}
		if b.Metrics == nil {
			b.Metrics = map[string]float64{}
		}
		b.Metrics[unit] = v
	}
	return b, nil
}
