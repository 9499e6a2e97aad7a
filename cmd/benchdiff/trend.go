package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// trendReport is one loaded artifact with its ordering keys.
type trendReport struct {
	path  string
	mtime int64
	rep   *Report
}

// label returns the column header: the short commit, or the file name when
// the report carries none.
func (t *trendReport) label() string {
	if t.rep.Commit != "" {
		return t.rep.Commit
	}
	name := filepath.Base(t.path)
	name = strings.TrimPrefix(name, "BENCH_")
	return strings.TrimSuffix(name, ".json")
}

// runTrend is trajectory mode: load every BENCH_*.json under dir, order
// them oldest → newest, render the markdown trend table, and return the
// exit code (0 clean or no same-machine baseline, 1 tolerance breached,
// 2 usage/data problems).
func runTrend(dir string, match *regexp.Regexp, tolerance float64, track string) int {
	reports, err := loadTrendDir(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	if len(reports) < 2 {
		fmt.Fprintf(os.Stderr, "benchdiff: trend mode needs at least 2 BENCH_*.json reports in %s, found %d\n",
			dir, len(reports))
		return 2
	}

	tracked := []string{"ns/op", "allocs/op"}
	for _, m := range strings.Split(track, ",") {
		if m = strings.TrimSpace(m); m != "" {
			tracked = append(tracked, m)
		}
	}

	base := baseline(reports)
	rows, breaches := trendRows(reports, base, match, tracked, tolerance)
	if len(rows) == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: no benchmark matched %q in at least 2 reports\n", match)
		return 2
	}
	writeTrendTable(os.Stdout, reports, base, rows, tolerance, breaches)
	if base < 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: no same-machine baseline for %s; drift not checked\n",
			reports[len(reports)-1].label())
	}
	if breaches > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d metric(s) drifted up more than %.0f%% or went missing in the latest report\n",
			breaches, tolerance*100)
		return 1
	}
	return 0
}

// loadTrendDir reads every BENCH_*.json in dir and orders the reports
// oldest → newest by recorded timestamp, then file mtime, then name —
// commits don't sort, timestamps do.
func loadTrendDir(dir string) ([]*trendReport, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var reports []*trendReport
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "BENCH_") || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		rep, err := load(path)
		if err != nil {
			return nil, err
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		reports = append(reports, &trendReport{path: path, mtime: info.ModTime().UnixNano(), rep: rep})
	}
	sort.Slice(reports, func(i, j int) bool {
		a, b := reports[i], reports[j]
		if a.rep.When != b.rep.When {
			// RFC3339 with a fixed offset sorts lexically; an empty When
			// (old artifact) sorts first, i.e. oldest.
			return a.rep.When < b.rep.When
		}
		if a.mtime != b.mtime {
			return a.mtime < b.mtime
		}
		return a.path < b.path
	})
	return reports, nil
}

// baseline returns the index of the latest report before the newest one
// that was measured on the newest one's machine, or -1 when there is none.
func baseline(reports []*trendReport) int {
	last := len(reports) - 1
	m := reports[last].rep.machine()
	for i := last - 1; i >= 0; i-- {
		if reports[i].rep.machine() == m {
			return i
		}
	}
	return -1
}

// metricValue extracts one tracked metric from a benchmark (ok=false when
// the report doesn't carry it).
func metricValue(b Benchmark, metric string) (float64, bool) {
	if metric == "ns/op" {
		return b.NsPerOp, b.NsPerOp > 0
	}
	v, ok := b.Metrics[metric]
	return v, ok
}

// trendRow is one (benchmark, metric) series across the ordered reports.
type trendRow struct {
	bench, metric string
	matched       bool      // the benchmark passes -match
	vals          []float64 // parallel to reports; NaN = absent
	present       []bool
	delta         float64 // latest vs the last same-machine value
	hasDelta      bool
	gone          bool // matched, in the baseline report, missing from the latest
	breach        bool
}

// trendRows assembles the table rows: every (benchmark, metric) series
// present in at least two reports, in sorted order, with the latest
// value's drift from its last value on the same machine (in the baseline
// report base, or in an earlier same-machine report where the baseline
// lacks it) checked against tolerance. A -match series present in the
// baseline and missing from the latest is lost coverage, not a pass: it
// is shown and counted as a breach. With base < 0 nothing is compared.
// The -match filter governs the ns/op and allocs/op rows only; a custom
// -track metric is an explicit opt-in and is followed wherever it
// appears — GP_ckpt_s lives on the figure benchmarks, which the default
// filter excludes by name.
func trendRows(reports []*trendReport, base int, match *regexp.Regexp, tracked []string, tolerance float64) (rows []*trendRow, breaches int) {
	type key struct{ bench, metric string }
	series := map[key]*trendRow{}
	for i, tr := range reports {
		for _, b := range tr.rep.Benchmarks {
			matched := match.MatchString(b.Name)
			name := b.Name
			if b.Pkg != "" {
				// Disambiguate same-named benchmarks across packages by
				// the package's last path element.
				name = filepath.Base(b.Pkg) + ":" + b.Name
			}
			for _, metric := range tracked {
				custom := metric != "ns/op" && metric != "allocs/op"
				if !matched && !custom {
					continue
				}
				v, ok := metricValue(b, metric)
				if !ok {
					continue
				}
				k := key{name, metric}
				row := series[k]
				if row == nil {
					row = &trendRow{
						bench: name, metric: metric, matched: matched,
						vals:    make([]float64, len(reports)),
						present: make([]bool, len(reports)),
					}
					series[k] = row
				}
				row.vals[i] = v
				row.present[i] = true
			}
		}
	}
	last := len(reports) - 1
	machine := reports[last].rep.machine()
	for _, row := range series {
		n := 0
		for _, p := range row.present {
			if p {
				n++
			}
		}
		if !row.present[last] {
			switch {
			case row.matched && base >= 0 && row.present[base]:
				row.gone, row.breach = true, true
				breaches++
				rows = append(rows, row)
			case n >= 2:
				rows = append(rows, row) // history but absent now: still shown
			}
			continue
		}
		if n < 2 {
			continue
		}
		prev := -1
		for i := base; i >= 0; i-- {
			if row.present[i] && reports[i].rep.machine() == machine {
				prev = i
				break
			}
		}
		if prev >= 0 && row.vals[prev] > 0 {
			row.delta = row.vals[last]/row.vals[prev] - 1
			row.hasDelta = true
			if row.delta > tolerance {
				row.breach = true
				breaches++
			}
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].bench != rows[j].bench {
			return rows[i].bench < rows[j].bench
		}
		return rows[i].metric < rows[j].metric
	})
	return rows, breaches
}

// writeTrendTable renders the markdown table CI uploads as an artifact and
// posts to the job summary.
func writeTrendTable(w *os.File, reports []*trendReport, base int, rows []*trendRow, tolerance float64, breaches int) {
	fmt.Fprintf(w, "## Benchmark trend (%d reports, tolerance %.0f%%)\n\n", len(reports), tolerance*100)
	newest := reports[len(reports)-1]
	machine := newest.rep.machine()
	if machine == "" {
		machine = "machine not recorded"
	}
	if base < 0 {
		fmt.Fprintf(w, "Δ last: no same-machine baseline for %s (%s).\n\n", newest.label(), machine)
	} else {
		fmt.Fprintf(w, "Δ last: %s against %s, the latest earlier report from the same machine (%s).\n\n",
			newest.label(), reports[base].label(), machine)
	}
	fmt.Fprint(w, "| benchmark | metric |")
	for _, tr := range reports {
		fmt.Fprintf(w, " %s |", tr.label())
	}
	fmt.Fprint(w, " Δ last |\n")
	fmt.Fprint(w, "|---|---|")
	for range reports {
		fmt.Fprint(w, "---:|")
	}
	fmt.Fprint(w, "---:|\n")
	for _, row := range rows {
		fmt.Fprintf(w, "| %s | %s |", row.bench, row.metric)
		for i := range reports {
			if row.present[i] {
				fmt.Fprintf(w, " %s |", formatTrendValue(row.vals[i]))
			} else {
				fmt.Fprint(w, " – |")
			}
		}
		switch {
		case row.gone:
			fmt.Fprint(w, " **⚠ gone** |\n")
		case row.breach:
			fmt.Fprintf(w, " **⚠ %+.1f%%** |\n", row.delta*100)
		case row.hasDelta:
			fmt.Fprintf(w, " %+.1f%% |\n", row.delta*100)
		default:
			fmt.Fprint(w, " – |\n")
		}
	}
	fmt.Fprintln(w)
	switch {
	case base < 0:
		fmt.Fprintln(w, "Drift not checked: no same-machine baseline.")
	case breaches > 0:
		fmt.Fprintf(w, "**%d metric(s) breached the %.0f%% tolerance or went missing in the latest report.**\n", breaches, tolerance*100)
	default:
		fmt.Fprintf(w, "All tracked metrics within %.0f%% of the same-machine baseline.\n", tolerance*100)
	}
}

// formatTrendValue keeps table cells compact: integers stay integral,
// small fractions keep enough digits to read.
func formatTrendValue(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e15:
		return fmt.Sprintf("%d", int64(v))
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	}
	return fmt.Sprintf("%.4f", v)
}
