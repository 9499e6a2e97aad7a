package main

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/harness"
)

// suiteWorkload runs the paper's quick experiment suite — every id that
// `gbexp -exp all -quick` runs — through the harness registry, rendering
// the tables exactly as gbexp prints them. Its inputs are the paper's
// fixed matrix: the seed does not enter.
type suiteWorkload struct {
	name     string
	ids      []string // nil = every registered id
	nworkers int

	exps []harness.Experiment
	ref  string
}

func newSuiteWorkload(name string, ids []string, workers int) *suiteWorkload {
	return &suiteWorkload{name: name, ids: ids, nworkers: workers}
}

func (w *suiteWorkload) shape() shape {
	return shape{unit: "pass", workers: w.nworkers, setupReps: 5, setupBatch: 10000, setupEachOp: true, heapOps: 10}
}

func (w *suiteWorkload) prepare(ctx context.Context, seed int64) error {
	if w.ids == nil {
		w.ids = harness.IDs()
	}
	if err := w.setup(ctx); err != nil {
		return err
	}
	if d, ok := committedDigest(w.name, seed); ok {
		w.ref = d
		return nil
	}
	// Tables are byte-identical at every worker count (the repository's
	// contract), so a pass at another count is a reference.
	out, err := w.pass(ctx, nil, 0, otherWorkers(w.nworkers))
	if err != nil {
		return fmt.Errorf("%s: reference pass: %w", w.name, err)
	}
	w.ref = digest(out)
	return nil
}

// setup resolves every experiment id in the registry. It reuses the
// previous set-up's slice, so that batched set-ups time the lookups and
// not the collection of their garbage.
func (w *suiteWorkload) setup(context.Context) error {
	exps := w.exps[:0]
	for _, id := range w.ids {
		e, ok := harness.Lookup(id)
		if !ok {
			return fmt.Errorf("%s: unknown experiment id %q", w.name, id)
		}
		exps = append(exps, e)
	}
	w.exps = exps
	return nil
}

// pass runs the suite once from cold caches and returns its text.
func (w *suiteWorkload) pass(ctx context.Context, tr *tracer, parent int64, workers int) ([]byte, error) {
	harness.ResetCaches()
	o := harness.Options{Quick: true, Workers: workers}
	var buf bytes.Buffer
	for _, e := range w.exps {
		id := tr.begin(e.ID, "", parent)
		tables, err := e.Run(ctx, o)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, t := range tables {
			buf.WriteString(t.String())
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes(), nil
}

func (w *suiteWorkload) op(ctx context.Context, tr *tracer, parent int64) (opStats, error) {
	out, err := w.pass(ctx, tr, parent, w.nworkers)
	if err != nil {
		return opStats{}, err
	}
	st := opStats{attempted: 1}
	if got := digest(out); got != w.ref {
		st.failed = 1
		st.issues = append(st.issues, fmt.Sprintf("suite digest %s, reference %s", got, w.ref))
	}
	return st, nil
}

func (w *suiteWorkload) layers(int) map[string]float64 { return nil }

func (w *suiteWorkload) finish(context.Context) (opStats, error) { return opStats{}, nil }

func (w *suiteWorkload) close() {}

func (w *suiteWorkload) refDigest() string { return w.ref }
