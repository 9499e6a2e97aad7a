package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// tinyWorkloads are small variants of the three workloads, fast enough
// for a unit test and exercising the same code.
func tinyWorkloads() map[string]func() workload {
	return map[string]func() workload{
		"cell-4096":   func() workload { return newCellWorkload("cell-tiny", 64, 5) },
		"suite-quick": func() workload { return newSuiteWorkload("suite-tiny", []string{"fig1", "table1"}, 2) },
		"gbd-mix": func() workload {
			return newGBDWorkload("gbd-tiny", 2, 2, 2, 10, 4, "../"+tunePath)
		},
	}
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMetricListsMatchBenchmarkFile pins the program's metric and
// workload lists to BENCHMARK.json, names and units alike.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	f := loadBenchmarkFile(t)
	check := func(kind string, file []benchMetric, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", names, workloadNames)
	}
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestTinyRunEmitsEveryMetric runs each tiny workload untraced and traced
// and checks the result line: exactly the four keys, a correct run, and
// every metric of the run's kind with a valid name and its unit.
func TestTinyRunEmitsEveryMetric(t *testing.T) {
	for name, mk := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			if code := mainRun(&out, name, mk(), defaultSeed+1, 0.05, traced, ""); code != 0 {
				t.Fatalf("%s traced=%v: exit %d", name, traced, code)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var keys map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
				t.Fatalf("%s traced=%v: last line: %v", name, traced, err)
			}
			if len(keys) != 4 {
				t.Errorf("%s traced=%v: result has keys %v", name, traced, keys)
			}
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok || m.Value == nil:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", name, traced, d.name, m.Unit, d.unit)
				case !metricName.MatchString(d.name) || !metricUnit.MatchString(d.unit):
					t.Errorf("invalid metric name or unit: %s (%s)", d.name, d.unit)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if v := res.Metrics[d.name].Value; v != nil && *v <= 0 {
						t.Errorf("%s: end-to-end metric %s is %g, want > 0", name, d.name, *v)
					}
				}
			}
		}
	}
}

// TestTracingDoesNotPerturbOutput runs one untraced and one traced op of
// each tiny workload. Each op checks its output digest against the one
// reference prepare fixed, so both passing means traced and untraced
// runs produced identical digests.
func TestTracingDoesNotPerturbOutput(t *testing.T) {
	ctx := context.Background()
	for name, mk := range tinyWorkloads() {
		w := mk()
		if err := w.prepare(ctx, defaultSeed+1); err != nil {
			t.Fatal(err)
		}
		if err := w.setup(ctx); err != nil {
			t.Fatal(err)
		}
		for _, tr := range []*tracer{nil, newTracer()} {
			st, err := w.op(ctx, tr, 0)
			if err != nil || st.failed != 0 || st.attempted == 0 {
				t.Errorf("%s traced=%v: err=%v attempted=%d failed=%d issues=%v",
					name, tr != nil, err, st.attempted, st.failed, st.issues)
			}
		}
		st, err := w.finish(ctx)
		if err != nil || st.failed != 0 {
			t.Errorf("%s finish: err=%v failed=%d issues=%v", name, err, st.failed, st.issues)
		}
		w.close()
	}
}

// TestOutputCheckCatchesMismatch corrupts the reference and expects the
// op to report the mismatch as a failure.
func TestOutputCheckCatchesMismatch(t *testing.T) {
	ctx := context.Background()
	w := newCellWorkload("cell-tiny", 64, 5)
	if err := w.prepare(ctx, defaultSeed+1); err != nil {
		t.Fatal(err)
	}
	w.ref = digest([]byte("not the table"))
	st, err := w.op(ctx, nil, 0)
	if err != nil || st.failed != 1 {
		t.Fatalf("err=%v failed=%d, want one failure", err, st.failed)
	}
}

func TestAttributionRule(t *testing.T) {
	p := &cpuProfile{samples: []profSample{
		{stack: []string{"runtime.futex", "runtime.chansend1", "repro/internal/sim.(*Proc).block", "repro/internal/mpi.(*World).Send"}, nanos: 10e6},
		{stack: []string{"repro/internal/mlog.(*Set).Log", "repro/internal/core.flush"}, nanos: 20e6},
		{stack: []string{"runtime.mallocgc", "repro/internal/runner.MapCtx[go.shape.struct { repro/internal/x.y int }]"}, nanos: 5e6},
		{stack: []string{"syscall.Syscall", "net/http.(*conn).serve"}, nanos: 3e6},
		{stack: []string{"runtime.gcBgMarkWorker"}, nanos: 2e6},
		{stack: []string{"main.(*gbdWorkload).send"}, nanos: 1e6},
	}}
	a := attribute(p)
	want := map[string]float64{"sim": 0.010, "mlog": 0.020, "runner": 0.005, "http": 0.003, "runtime": 0.002, "perfbench": 0.001}
	for layer, s := range want {
		if got := a.layerS[layer]; got < s-1e-9 || got > s+1e-9 {
			t.Errorf("%s: %g s, want %g", layer, got, s)
		}
	}
	if a.handoffS < 0.010-1e-9 || a.handoffS > 0.010+1e-9 {
		t.Errorf("handoff %g s, want 0.010", a.handoffS)
	}
	if a.noRepoS < 0.005-1e-9 || a.noRepoS > 0.005+1e-9 {
		t.Errorf("no-repo-frame %g s, want 0.005", a.noRepoS)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if p, _ := tail(xs); p != "p99" {
		t.Errorf("1000 samples: tail %s, want p99", p)
	}
	if p, v := tail(xs[:5]); p != "max" || v != 4 {
		t.Errorf("5 samples: tail %s=%g, want max=4", p, v)
	}
}
