package harness

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/group"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestRunNormSingleCheckpoint(t *testing.T) {
	res, err := Run(context.Background(), Spec{
		WL: workload.NewSynthetic(4, 60), Mode: NORM, Seed: 1,
		Sched: Schedule{At: sim.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 1 || len(res.Records) != 4 {
		t.Fatalf("epochs=%d records=%d", res.Epochs, len(res.Records))
	}
	if res.ExecTime <= 0 {
		t.Error("no execution time")
	}
	if res.Name != "NORM" {
		t.Errorf("Name = %q", res.Name)
	}
}

func TestRunGPUsesTracedFormation(t *testing.T) {
	res, err := Run(context.Background(), Spec{
		WL: workload.NewSynthetic(8, 40), Mode: GP, Seed: 1,
		Sched: Schedule{At: sim.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Formation.Groups) <= 1 {
		t.Errorf("GP formation = %v, want multiple groups", res.Formation.Groups)
	}
	if res.Formation.MaxGroupSize() > 3 { // ⌈√8⌉ = 3
		t.Errorf("formation exceeds default max: %v", res.Formation.Groups)
	}
}

func TestFormationCacheHit(t *testing.T) {
	spec := Spec{WL: workload.NewSynthetic(8, 40), Mode: GP, Seed: 1}
	f1, err := formationFor(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	before := formationCache.Len()
	f2, err := formationFor(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if formationCache.Len() != before {
		t.Error("cache grew on identical spec")
	}
	if f1.String() != f2.String() {
		t.Error("cache returned a different formation")
	}
}

// gatedWorkload is a synthetic workload whose first tracing pass announces
// itself on started, holds rank 0 until a concurrent caller is waiting on
// the same formation, then cancels that pass from inside it.
type gatedWorkload struct {
	*workload.Synthetic
	gate    sync.Once
	started chan struct{}
	waiting <-chan struct{}
	cancel  context.CancelFunc
}

func (w *gatedWorkload) Name() string { return "gated-" + w.Synthetic.Name() }

func (w *gatedWorkload) Body(r *mpi.Rank) {
	if r.ID == 0 {
		w.gate.Do(func() {
			close(w.started)
			// The timeout only bounds a memo that never reports the
			// waiter as waiting; the cancel still lands mid-pass.
			select {
			case <-w.waiting:
			case <-time.After(2 * time.Second):
			}
			w.cancel()
			for !r.W.K.Interrupted() { // the pass must see the cancel
				time.Sleep(time.Millisecond)
			}
		})
	}
	w.Synthetic.Body(r)
}

// waitCtx is a live context that reports when a formation lookup starts
// waiting on another caller's tracing pass (the first Done call).
type waitCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestTracedFormationWaiterSurvivesBuilderCancel: when the caller running a
// shared tracing pass is canceled, a concurrent caller waiting on the same
// formation with a live context still gets the formation, not ErrCanceled.
func TestTracedFormationWaiterSurvivesBuilderCancel(t *testing.T) {
	formationCache.Reset() // the builder must trace, not find a stored pass
	bctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wctx := &waitCtx{Context: context.Background(), waiting: make(chan struct{})}
	wl := &gatedWorkload{Synthetic: workload.NewSynthetic(8, 40),
		started: make(chan struct{}), waiting: wctx.waiting, cancel: cancel}
	spec := Spec{WL: wl, Mode: GP, Seed: 1}

	builderErr := make(chan error, 1)
	go func() {
		_, err := tracedFormation(bctx, spec)
		builderErr <- err
	}()
	select {
	case <-wl.started: // the builder's pass is in flight: the waiter joins it
	case err := <-builderErr:
		t.Fatalf("builder finished without tracing: %v", err)
	}
	f, err := tracedFormation(wctx, spec)
	if err != nil {
		t.Fatalf("waiter with a live context: %v", err)
	}
	if err := f.Validate(); err != nil || len(f.Groups) <= 1 {
		t.Fatalf("waiter formation %v (validate: %v), want multiple valid groups", f.Groups, err)
	}
	if err := <-builderErr; !errors.Is(err, ErrCanceled) {
		t.Fatalf("builder: %v, want ErrCanceled", err)
	}
}

func TestRunVCLWithRemoteServers(t *testing.T) {
	res, err := Run(context.Background(), Spec{
		WL: workload.NewSynthetic(4, 60), Mode: VCL, Seed: 1,
		Sched:         Schedule{At: sim.Second},
		RemoteServers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 1 {
		t.Fatalf("epochs = %d", res.Epochs)
	}
	if res.Name != "VCL" {
		t.Errorf("Name = %q", res.Name)
	}
	// VCL restarts globally with no logs.
	out, err := Restart(res, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.ResendBytes != 0 {
		t.Errorf("VCL resend = %d", out.ResendBytes)
	}
}

func TestRunUnknownModeFails(t *testing.T) {
	_, err := Run(context.Background(), Spec{WL: workload.NewSynthetic(2, 5), Mode: "bogus", Seed: 1})
	if err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestRestartAfterGPRun(t *testing.T) {
	res, err := Run(context.Background(), Spec{
		WL: workload.NewSynthetic(8, 60), Mode: GP1, Seed: 3,
		Sched: Schedule{At: sim.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Restart(res, 5)
	if err != nil {
		t.Fatal(err)
	}
	if out.AggregateRestartTime() <= 0 {
		t.Error("no restart time")
	}
}

func TestTraceAttached(t *testing.T) {
	obs := NewTraceObserver()
	res, err := Run(context.Background(), Spec{WL: workload.NewSynthetic(2, 10), Mode: NORM, Seed: 1,
		Observers: []Observer{obs}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Error("trace requested but empty")
	}
	if len(obs.Records()) != len(res.Trace) {
		t.Errorf("observer records %d != result trace %d", len(obs.Records()), len(res.Trace))
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.reps() != 5 {
		t.Errorf("default reps = %d", o.reps())
	}
	if (Options{Quick: true}).reps() != 2 {
		t.Error("quick reps != 2")
	}
	if got := (Options{Scales: []int{9}}).scales([]int{1}, []int{2}); got[0] != 9 {
		t.Error("explicit scales ignored")
	}
}

func TestFig1Quick(t *testing.T) {
	tb, err := Fig1(context.Background(), Options{Quick: true, Reps: 1, Scales: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if !strings.Contains(tb.String(), "procs") {
		t.Error("missing header")
	}
}

func TestTable1QuickRecoversColumns(t *testing.T) {
	tb, err := Table1(context.Background(), Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("groups = %d, want 4:\n%s", len(tb.Rows), tb)
	}
	// Table 1's first group is the round-robin column {0 4 8 ... 28}.
	if !strings.Contains(tb.Rows[0][1], "[0 4 8") {
		t.Errorf("group 1 = %s, want round-robin ranks", tb.Rows[0][1])
	}
}

func TestFig5QuickShapes(t *testing.T) {
	a, b, err := Fig5(context.Background(), Options{Quick: true, Reps: 1, Scales: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 1 || len(b.Rows) != 1 {
		t.Fatalf("rows: %d/%d", len(a.Rows), len(b.Rows))
	}
	// NORM's diff from itself must be ~0.
	if b.Rows[0][4] != "0.00" && b.Rows[0][4] != "-0.00" {
		t.Errorf("NORM diff = %s", b.Rows[0][4])
	}
}

func TestFig6QuickShapes(t *testing.T) {
	a, b, err := Fig6(context.Background(), Options{Quick: true, Reps: 1, Scales: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) == 0 || len(b.Rows) == 0 {
		t.Fatal("empty tables")
	}
}

func TestAggregateCoordinationExcludesWrite(t *testing.T) {
	res, err := Run(context.Background(), Spec{
		WL: workload.NewSynthetic(4, 60), Mode: NORM, Seed: 1,
		Sched: Schedule{At: sim.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	coord := AggregateCoordination(res.Records)
	total := sim.Time(0)
	for _, r := range res.Records {
		total += r.Duration()
	}
	if coord >= total {
		t.Errorf("coordination %v should be below total %v", coord, total)
	}
	if coord <= 0 {
		t.Error("no coordination time measured")
	}
}

func TestFig7Fig8QuickShapes(t *testing.T) {
	o := Options{Quick: true, Reps: 1, Scales: []int{16}}
	t7, err := Fig7(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	t8, err := Fig8(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(t7.Rows) != 1 || len(t8.Rows) != 1 {
		t.Fatalf("rows: %d/%d", len(t7.Rows), len(t8.Rows))
	}
}

func TestFig9QuickHasAllModes(t *testing.T) {
	tb, err := Fig9(context.Background(), Options{Quick: true, Reps: 1, Scales: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	// One row per mode per boundary scale; single scale → boundary twice.
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d, want 8:\n%s", len(tb.Rows), tb)
	}
}

func TestFig10Quick(t *testing.T) {
	tb, err := Fig10(context.Background(), Options{Quick: true, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d:\n%s", len(tb.Rows), tb)
	}
	// Interval 0 row must report zero checkpoints for both modes.
	if tb.Rows[0][2] != "0.00" || tb.Rows[0][4] != "0.00" {
		t.Errorf("interval-0 row has checkpoints: %v", tb.Rows[0])
	}
}

func TestFig11Fig12Quick(t *testing.T) {
	a, b, err := Fig11(context.Background(), Options{Quick: true, Reps: 1, Scales: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 1 || len(b.Rows) != 1 {
		t.Fatal("CG tables wrong size")
	}
	a, b, err = Fig12(context.Background(), Options{Quick: true, Reps: 1, Scales: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 1 || len(b.Rows) != 1 {
		t.Fatal("SP tables wrong size")
	}
}

func TestFig13Fig14Quick(t *testing.T) {
	o := Options{Quick: true, Reps: 1, Scales: []int{16}}
	t13, err := Fig13(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	t14, err := Fig14(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(t13.Rows) != 1 || len(t14.Rows) != 1 {
		t.Fatal("remote-suite tables wrong size")
	}
	// The paper's fairness rule caps GP at VCL's checkpoint count; GP may
	// complete fewer if its (shorter) execution ends first.
	gp, _ := strconv.ParseFloat(t13.Rows[0][2], 64)
	vcl, _ := strconv.ParseFloat(t13.Rows[0][4], 64)
	if gp > vcl {
		t.Errorf("GP ckpts %v exceed VCL ckpts %v", gp, vcl)
	}
}

func TestFig2Quick(t *testing.T) {
	r, err := Fig2(context.Background(), Options{Quick: true, Reps: 1, Scales: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Table.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Table.Rows))
	}
	if len(r.Timelines) == 0 {
		t.Error("no timelines rendered")
	}
}

// TestCommMatrixThroughRun exercises the stacked observers: a run with the
// streaming matrix attached exposes Result.Comm, composes with a
// TraceObserver via a Tee (both observers see the same traffic), and
// derives the same formation as the full record trace.
func TestCommMatrixThroughRun(t *testing.T) {
	spec := Spec{
		WL: workload.NewSynthetic(8, 30), Mode: GP1, Seed: 3,
		Sched:     Schedule{At: 2 * sim.Second},
		Observers: []Observer{NewTraceObserver(), NewCommObserver()},
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm == nil {
		t.Fatal("Spec.Comm set but Result.Comm nil")
	}
	if len(res.Trace) == 0 {
		t.Fatal("Spec.Trace set but Result.Trace empty")
	}
	var sends int
	var bytes int64
	for _, r := range res.Trace {
		if !r.Deliver && r.Src != r.Dst {
			sends++
			bytes += r.Bytes
		}
	}
	if res.Comm.Sends() != sends || res.Comm.TotalBytes() != bytes {
		t.Errorf("matrix saw %d sends/%d bytes, recorder saw %d/%d",
			res.Comm.Sends(), res.Comm.TotalBytes(), sends, bytes)
	}
	fm, ft := group.FromMatrix(res.Comm, res.N, 0), group.FromTrace(res.Trace, res.N, 0)
	if fm.String() != ft.String() {
		t.Errorf("matrix formation %q != trace formation %q", fm.String(), ft.String())
	}

	// Comm alone: no record buffering, matrix identical.
	spec.Observers = []Observer{NewCommObserver()}
	only, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(only.Trace) != 0 {
		t.Error("Trace records buffered without a TraceObserver")
	}
	if only.Comm == nil || only.Comm.Sends() != sends {
		t.Errorf("comm-only run folded %v sends, want %d", only.Comm, sends)
	}
}
