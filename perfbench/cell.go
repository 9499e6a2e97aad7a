package main

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/harness"
	"repro/internal/scenario"
)

// cellWorkload runs one GP1 lifetime with Poisson failures through
// scenario.Spec.Run at the default serial RunWorkers. At 4096 ranks it is
// the spec of BenchmarkScenario4096 with the spec seed taken from the
// workload seed.
type cellWorkload struct {
	name  string
	ranks int
	iters int

	src  string
	spec *scenario.Spec
	ref  string // digest every op's table must match

	mu       sync.Mutex
	counters map[string]float64 // totals over traced ops
}

func newCellWorkload(name string, ranks, iters int) *cellWorkload {
	return &cellWorkload{name: name, ranks: ranks, iters: iters}
}

const cellSpecTemplate = `{
	"name": "scale-%d",
	"cluster": {"profile": "modern"},
	"workload": {"kind": "synthetic", "iters": %d, "mflopsPerIter": 3000},
	"scales": [%d],
	"modes": ["GP1"],
	"checkpoint": {"intervalS": 5},
	"failures": {"process": "poisson", "mtbfS": 4},
	"reps": 1,
	"seed": %d
}`

func (w *cellWorkload) shape() shape {
	return shape{unit: "cell", workers: 1, setupReps: 5, setupBatch: 50, setupEachOp: true, heapOps: 5}
}

func (w *cellWorkload) prepare(ctx context.Context, seed int64) error {
	w.src = fmt.Sprintf(cellSpecTemplate, w.ranks, w.iters, w.ranks, seed)
	if err := w.setup(ctx); err != nil {
		return err
	}
	if d, ok := committedDigest(w.name, seed); ok {
		w.ref = d
		return nil
	}
	// Byte identity at every RunWorkers is the repository's contract, so
	// a run at another worker count is a reference for this seed.
	t, err := w.spec.RunObserved(ctx, 0, scenario.Instrument{RunWorkers: otherWorkers(1)}, nil)
	if err != nil {
		return fmt.Errorf("%s: reference run: %w", w.name, err)
	}
	w.ref = digest([]byte(t.String() + "\n"))
	return nil
}

// setup parses and validates the spec.
func (w *cellWorkload) setup(context.Context) error {
	s, err := scenario.Parse(strings.NewReader(w.src))
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	w.spec = s
	return nil
}

func (w *cellWorkload) op(ctx context.Context, tr *tracer, parent int64) (opStats, error) {
	if tr == nil {
		t, err := w.spec.Run(ctx, 0)
		if err != nil {
			return opStats{}, err
		}
		return w.check(t.String()), nil
	}
	t, err := w.spec.RunObserved(ctx, 0, scenario.Instrument{Metrics: true},
		func(_ scenario.Cell, res *harness.Result) error {
			w.observe(res)
			return nil
		})
	if err != nil {
		return opStats{}, err
	}
	return w.check(t.String()), nil
}

func (w *cellWorkload) check(table string) opStats {
	st := opStats{attempted: 1}
	if got := digest([]byte(table + "\n")); got != w.ref {
		st.failed = 1
		st.issues = append(st.issues, fmt.Sprintf("table digest %s, reference %s", got, w.ref))
	}
	return st
}

// observe folds one traced cell's layer counters into the totals.
func (w *cellWorkload) observe(res *harness.Result) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.counters == nil {
		w.counters = map[string]float64{}
	}
	c := w.counters
	c["sim.events"] += float64(res.Events)
	var logged int64
	for _, set := range res.Logs {
		if set != nil {
			b, _ := set.TotalLogged()
			logged += b
		}
	}
	c["mlog.logged_bytes"] += float64(logged)
	if m := res.Metrics; m != nil {
		for metric, counter := range map[string]string{
			"sim.lookahead_stalls": "sim_lookahead_stalls_total",
			"mpi.sends":            "mpi_sends_total",
			"mpi.send_bytes":       "mpi_send_bytes_total",
			"core.checkpoints":     "ckpt_completed_total",
			"core.log_flush_bytes": "ckpt_log_flush_bytes_total",
			"failure.injected":     "failures_injected_total",
		} {
			v, _ := m.Counter(counter)
			c[metric] += float64(v)
		}
		p, _ := m.Gauge("sim_partitions")
		c["sim.partitions"] += p
	}
}

func (w *cellWorkload) layers(ops int) map[string]float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := map[string]float64{}
	for k, v := range w.counters {
		out[k] = v / float64(ops)
	}
	return out
}

func (w *cellWorkload) finish(context.Context) (opStats, error) { return opStats{}, nil }

func (w *cellWorkload) close() {}

func (w *cellWorkload) refDigest() string { return w.ref }
