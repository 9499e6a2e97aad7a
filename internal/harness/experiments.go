package harness

import (
	"context"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options scales the experiments. The zero value gives the paper-faithful
// configuration; Quick shrinks problem sizes and repetition counts so the
// whole suite runs in seconds (used by tests and the default benchmarks).
type Options struct {
	Reps   int  // repetitions per point (default 5, the paper's count)
	Quick  bool // reduced problem sizes / scales
	Scales []int

	// Workers bounds how many simulation runs execute concurrently
	// (0 = GOMAXPROCS, 1 = serial). Every run is seeded from its matrix
	// key, so the worker count never changes any result: parallel and
	// serial execution produce byte-identical tables.
	Workers int
}

func (o Options) reps() int {
	if o.Reps > 0 {
		return o.Reps
	}
	if o.Quick {
		return 2
	}
	return 5
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runner.DefaultWorkers()
}

func (o Options) scales(full, quick []int) []int {
	if len(o.Scales) > 0 {
		return o.Scales
	}
	if o.Quick {
		return quick
	}
	return full
}

// key identifies the result set an option combination produces. Workers is
// deliberately excluded: the parallel and serial engines compute identical
// results, so they share cached suites.
func (o Options) key() string { return fmt.Sprintf("q%v/r%d/s%v", o.Quick, o.reps(), o.Scales) }

// hplConfig returns the HPL problem size and single-checkpoint time for the
// option set. The paper uses N=20000 with a checkpoint at t=60 s.
func (o Options) hplConfig() (n int, ckptAt sim.Time) {
	if o.Quick {
		return 5760, 4 * sim.Second
	}
	return 20000, 60 * sim.Second
}

func seconds(t sim.Time) float64 { return t.Seconds() }

// mapRuns is runner.MapCtx with the harness error contract: a cancellation
// observed by the pool between cells (raw context.Canceled/DeadlineExceeded)
// is normalized to wrap ErrCanceled, the same sentinel a cancel landing
// inside a cell produces — callers and the suite caches dispatch on one
// sentinel either way.
func mapRuns[K, T any](ctx context.Context, workers int, keys []K, fn func(K) (T, error)) ([]T, error) {
	res, err := runner.MapCtx(ctx, workers, keys, fn)
	return res, NormalizeCancel(err)
}

// ---------------------------------------------------------------------------
// Run matrices.
//
// Each experiment describes its sweep as a flat slice of runKey values — the
// cross product of scales × modes × repetitions in row-major order — and
// hands it to runner.MapCtx, which fans the runs across workers and returns
// results in matrix order. Rows are then assembled by walking the scales
// slice, so tables come out in the same order the old nested loops produced.

// runKey is one cell of an experiment's run matrix.
type runKey struct {
	Scale int
	Mode  Mode
	Rep   int
}

// matrix builds scales × modes × reps in row-major order.
func matrix(scales []int, modes []Mode, reps int) []runKey {
	keys := make([]runKey, 0, len(scales)*len(modes)*reps)
	for _, n := range scales {
		for _, m := range modes {
			for r := 0; r < reps; r++ {
				keys = append(keys, runKey{Scale: n, Mode: m, Rep: r})
			}
		}
	}
	return keys
}

// groupByScale reassembles flat matrix results into per-scale, per-mode
// repetition slices.
func groupByScale[T any](keys []runKey, vals []T) map[int]map[Mode][]T {
	out := map[int]map[Mode][]T{}
	for i, k := range keys {
		if out[k.Scale] == nil {
			out[k.Scale] = map[Mode][]T{}
		}
		out[k.Scale][k.Mode] = append(out[k.Scale][k.Mode], vals[i])
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 1 — checkpoint coordination time in HPL with LAM/MPI (NORM).

// Fig1 measures the summed time all processes spend coordinating one global
// checkpoint (excluding image writing) as the system scales. The paper's
// Figure 1 rises from near zero to hundreds of aggregate seconds with
// irregular spikes. The paper sweeps 12–68 processes; our HPL skeleton pins
// P=8, so the sweep runs over multiples of 8.
func Fig1(ctx context.Context, o Options) (*stats.Table, error) {
	nProb, ckptAt := o.hplConfig()
	scales := o.scales([]int{16, 24, 32, 40, 48, 56, 64}, []int{16, 24})
	keys := matrix(scales, []Mode{NORM}, o.reps())
	coord, err := mapRuns(ctx, o.workers(), keys, func(k runKey) (float64, error) {
		res, err := Run(ctx, Spec{
			WL: workload.NewHPL(nProb, k.Scale), Mode: k.Mode,
			Seed:  int64(1000*k.Scale + k.Rep),
			Sched: Schedule{At: ckptAt},
		})
		if err != nil {
			return 0, err
		}
		return seconds(AggregateCoordination(res.Records)), nil
	})
	if err != nil {
		return nil, err
	}
	byScale := groupByScale(keys, coord)
	t := &stats.Table{
		Title:   "Figure 1: aggregate coordination time of one global checkpoint (HPL, NORM)",
		Columns: []string{"procs", "coord_total_s", "min_s", "max_s"},
	}
	for _, n := range scales {
		xs := byScale[n][NORM]
		min, max := stats.MinMax(xs)
		t.AddRow(n, stats.Summarize(xs), min, max)
	}
	t.AddNote("paper: grows with scale, with multi-second spikes at some scales")
	return t, nil
}

// ---------------------------------------------------------------------------
// Figure 2 — CG under MPICH-VCL: blocking behaviour at scale.

// Fig2Result carries the gap analysis plus renderable timelines.
type Fig2Result struct {
	Table     *stats.Table
	Timelines map[int]string // procs → ASCII trace diagram (ranks P0–P3)
}

// fig2Point is one scale's measurement.
type fig2Point struct {
	epochs   int
	window   float64 // mean checkpoint window, seconds
	gap      float64
	share    float64
	timeline string
}

// Fig2 runs CG class C under VCL with checkpoints every 30 s and remote
// checkpoint servers, then measures the fraction of each checkpoint window
// in which no application message was delivered ("gaps"). The paper's
// Figure 2 shows progress inside checkpoints at 32 processes but gaps
// spanning nearly the whole checkpoint at 128.
func Fig2(ctx context.Context, o Options) (*Fig2Result, error) {
	scales := o.scales([]int{32, 128}, []int{16, 64})
	points, err := mapRuns(ctx, o.workers(), scales, func(n int) (fig2Point, error) {
		wl := workload.CGClassC(n)
		// Fine message granularity for the trace diagram; batching two
		// inner iterations per superstep keeps the event count tractable
		// at 128 ranks while staying far below the 1 s gap buckets.
		wl.InnerBatch = 2
		if o.Quick {
			wl.NA, wl.NIter = 30000, 10
		}
		interval := 30 * sim.Second
		if o.Quick {
			interval = 5 * sim.Second
		}
		// Six checkpoint windows are ample for the gap analysis; at 128
		// ranks VCL epochs overrun the 30 s interval (the pathology the
		// figure demonstrates), so an uncapped schedule would checkpoint
		// continuously until the application ends.
		res, err := Run(ctx, Spec{
			WL: wl, Mode: VCL, Seed: int64(n),
			Sched:         Schedule{Interval: interval, MaxCount: 6},
			RemoteServers: 4,
			Observers:     []Observer{NewTraceObserver()},
		})
		if err != nil {
			return fig2Point{}, err
		}
		var windows []trace.Window
		var winTotal sim.Time
		for _, s := range res.Spans {
			windows = append(windows, trace.Window{From: s.From, To: s.To})
			winTotal += s.To - s.From
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		bucket := sim.Second
		if o.Quick {
			bucket = 250 * sim.Millisecond
		}
		p := fig2Point{
			epochs: res.Epochs,
			window: seconds(winTotal) / float64(max(res.Epochs, 1)),
			gap:    trace.GapFraction(res.Trace, all, windows, bucket),
			share:  float64(winTotal) / float64(res.ExecTime),
		}
		// Render ranks P0–P3 around the first checkpoint window, as in
		// the paper's trace diagrams.
		if len(windows) > 0 {
			w0 := windows[0]
			span := (w0.To - w0.From) * 2
			from := w0.From - span/4
			if from < 0 {
				from = 0
			}
			p.timeline = trace.Timeline(res.Trace, []int{0, 1, 2, 3},
				from, from+span, 100, windows)
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	out := &Fig2Result{
		Table: &stats.Table{
			Title:   "Figure 2: CG under VCL, checkpoints every 30s — gap fraction of checkpoint windows",
			Columns: []string{"procs", "ckpts", "ckpt_window_s", "gap_fraction", "ckpt_share_of_exec"},
		},
		Timelines: map[int]string{},
	}
	for i, n := range scales {
		p := points[i]
		out.Table.AddRow(n, p.epochs, p.window, p.gap, p.share)
		if p.timeline != "" {
			out.Timelines[n] = p.timeline
		}
	}
	out.Table.AddNote("paper: small gaps at 32 procs; gaps span nearly the whole checkpoint at 128, >50%% of execution checkpointing")
	return out, nil
}

// ---------------------------------------------------------------------------
// Table 1 — trace-derived group formation for HPL.

// Table1 traces HPL on 32 processes (8×4 grid) and runs Algorithm 2 with
// G=P=8. The paper's Table 1 result: 4 groups whose ranks are congruent
// mod 4 ({0,4,…,28}, {1,5,…,29}, …).
func Table1(ctx context.Context, o Options) (*stats.Table, error) {
	nProb, _ := o.hplConfig()
	wl := workload.NewHPL(nProb, 32)
	f, err := tracedFormation(ctx, Spec{WL: wl, Mode: GP, GroupMax: wl.P})
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Table 1: group formation for HPL, 32 processes (PxQ=8x4)",
		Columns: []string{"group", "process_ranks"},
	}
	for i, g := range f.Groups {
		t.AddRow(i+1, fmt.Sprint(g))
	}
	t.AddNote("paper: Q=4 groups of P=8 ranks in round-robin order")
	return t, nil
}

// ---------------------------------------------------------------------------
// The HPL suite behind Figures 5–9: one checkpoint at t=60 s, modes
// GP/GP1/GP4/NORM over the scale sweep, each followed by a restart.

type hplRun struct {
	res     *Result
	restart restartOutcome
}

type restartOutcome struct {
	aggRestart  sim.Time
	resendBytes int64
	resendOps   int
}

type hplSuiteResult struct {
	scales []int
	modes  []Mode
	// runs[scale][mode] = repetitions
	runs map[int]map[Mode][]hplRun
}

var hplSuiteCache runner.Memo[*hplSuiteResult]

func hplSuite(ctx context.Context, o Options) (*hplSuiteResult, error) {
	s, _, err := hplSuiteCache.Get(ctx, o.key(), func() (*hplSuiteResult, error) {
		nProb, ckptAt := o.hplConfig()
		suite := &hplSuiteResult{
			scales: o.scales([]int{16, 32, 48, 64, 80, 96, 112, 128}, []int{16, 32}),
			modes:  []Mode{GP, GP1, GP4, NORM},
		}
		keys := matrix(suite.scales, suite.modes, o.reps())
		runs, err := mapRuns(ctx, o.workers(), keys, func(k runKey) (hplRun, error) {
			wl := workload.NewHPL(nProb, k.Scale)
			res, err := Run(ctx, Spec{
				WL: wl, Mode: k.Mode,
				Seed:     int64(100000 + 100*k.Scale + k.Rep),
				Sched:    Schedule{At: ckptAt},
				GroupMax: wl.P, // the paper's HPL grouping uses G=P
			})
			if err != nil {
				return hplRun{}, err
			}
			rst, err := Restart(res, int64(7000+k.Rep))
			if err != nil {
				return hplRun{}, err
			}
			return hplRun{
				res: res,
				restart: restartOutcome{
					aggRestart:  rst.AggregateRestartTime(),
					resendBytes: rst.ResendBytes,
					resendOps:   rst.ResendOps,
				},
			}, nil
		})
		if err != nil {
			return nil, err
		}
		suite.runs = groupByScale(keys, runs)
		return suite, nil
	})
	return s, NormalizeCancel(err)
}

func (s *hplSuiteResult) metricTable(title, unit string, f func(hplRun) float64) *stats.Table {
	t := &stats.Table{
		Title:   title,
		Columns: append([]string{"procs"}, modeCols(s.modes, unit)...),
	}
	for _, n := range s.scales {
		row := []any{n}
		for _, m := range s.modes {
			var xs []float64
			for _, run := range s.runs[n][m] {
				xs = append(xs, f(run))
			}
			row = append(row, stats.Summarize(xs))
		}
		t.AddRow(row...)
	}
	return t
}

func modeCols(modes []Mode, unit string) []string {
	var out []string
	for _, m := range modes {
		out = append(out, fmt.Sprintf("%s_%s", m, unit))
	}
	return out
}

// Fig5 reports HPL execution time with one checkpoint at t=60 s (Figure 5a)
// and the per-mode difference from NORM (Figure 5b).
func Fig5(ctx context.Context, o Options) (*stats.Table, *stats.Table, error) {
	s, err := hplSuite(ctx, o)
	if err != nil {
		return nil, nil, err
	}
	a := s.metricTable("Figure 5a: HPL execution time with one checkpoint at t=60s",
		"exec_s", func(r hplRun) float64 { return seconds(r.res.ExecTime) })
	b := &stats.Table{
		Title:   "Figure 5b: execution-time difference from NORM (negative = faster than NORM)",
		Columns: append([]string{"procs"}, modeCols(s.modes, "diff_s")...),
	}
	for _, n := range s.scales {
		norm := stats.Mean(collect(s.runs[n][NORM], func(r hplRun) float64 { return seconds(r.res.ExecTime) }))
		row := []any{n}
		for _, m := range s.modes {
			mean := stats.Mean(collect(s.runs[n][m], func(r hplRun) float64 { return seconds(r.res.ExecTime) }))
			row = append(row, mean-norm)
		}
		b.AddRow(row...)
	}
	a.AddNote("paper: all modes within a few seconds; GP's edge over NORM grows with scale")
	return a, b, nil
}

func collect(runs []hplRun, f func(hplRun) float64) []float64 {
	var xs []float64
	for _, r := range runs {
		xs = append(xs, f(r))
	}
	return xs
}

// Fig6 reports the summed per-process checkpoint time (6a) and restart time
// (6b) for the HPL suite.
func Fig6(ctx context.Context, o Options) (*stats.Table, *stats.Table, error) {
	s, err := hplSuite(ctx, o)
	if err != nil {
		return nil, nil, err
	}
	a := s.metricTable("Figure 6a: summed checkpoint time (HPL)", "ckpt_s",
		func(r hplRun) float64 { return seconds(ckpt.AggregateCheckpointTime(r.res.Records)) })
	a.AddNote("paper: GP≈GP1 flat and lowest; GP4 between; NORM grows with scale and spikes")
	b := s.metricTable("Figure 6b: summed restart time (HPL)", "restart_s",
		func(r hplRun) float64 { return seconds(r.restart.aggRestart) })
	b.AddNote("paper: NORM lowest (no replay); GP slightly above; GP1 highest and most variable")
	return a, b, nil
}

// Fig7 reports the total data resent to complete a restart.
func Fig7(ctx context.Context, o Options) (*stats.Table, error) {
	s, err := hplSuite(ctx, o)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Figure 7: amount of data to resend during restart (KB)",
		Columns: append([]string{"procs"}, modeCols([]Mode{GP, GP1, GP4}, "resend_KB")...),
	}
	for _, n := range s.scales {
		row := []any{n}
		for _, m := range []Mode{GP, GP1, GP4} {
			row = append(row, stats.Summarize(collect(s.runs[n][m],
				func(r hplRun) float64 { return float64(r.restart.resendBytes) / 1024 })))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: GP1 largest and most variable; GP and GP4 lower and steady (NORM is zero by construction)")
	return t, nil
}

// Fig8 reports the number of resend operations to complete a restart.
func Fig8(ctx context.Context, o Options) (*stats.Table, error) {
	s, err := hplSuite(ctx, o)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Figure 8: number of resend operations during restart",
		Columns: append([]string{"procs"}, modeCols([]Mode{GP, GP1, GP4}, "ops")...),
	}
	for _, n := range s.scales {
		row := []any{n}
		for _, m := range []Mode{GP, GP1, GP4} {
			row = append(row, stats.Summarize(collect(s.runs[n][m],
				func(r hplRun) float64 { return float64(r.restart.resendOps) })))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: GP1 up to ~60 and varying; GP/GP4 lower and steady")
	return t, nil
}

// Fig9 reports the mean per-process checkpoint stage breakdown at the
// smallest and largest scale in the suite.
func Fig9(ctx context.Context, o Options) (*stats.Table, error) {
	s, err := hplSuite(ctx, o)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Figure 9: checkpoint time breakdown (mean per process, seconds)",
		Columns: []string{"procs", "mode", "lock_mpi", "coordination", "checkpoint", "finalize"},
	}
	for _, n := range []int{s.scales[0], s.scales[len(s.scales)-1]} {
		for _, m := range s.modes {
			var sum ckpt.Breakdown
			var cnt int
			for _, run := range s.runs[n][m] {
				for _, rec := range run.res.Records {
					sum = sum.Add(rec.Stages)
					cnt++
				}
			}
			mean := sum.Scale(max(cnt, 1))
			t.AddRow(n, string(m),
				seconds(mean[ckpt.StageLock]), seconds(mean[ckpt.StageCoord]),
				seconds(mean[ckpt.StageWrite]), seconds(mean[ckpt.StageFinalize]))
		}
	}
	t.AddNote("paper: Checkpoint stage shrinks with scale (smaller per-rank data); NORM's Coordination explodes at 128 and dominates; GP keeps it minimal")
	return t, nil
}

// ---------------------------------------------------------------------------
// Figure 10 — periodic checkpoints on HPL N=56000, 128 processes.

// fig10Key is one cell of Figure 10's interval × mode × rep matrix.
type fig10Key struct {
	Interval sim.Time
	Mode     Mode
	Rep      int
}

// fig10Point is one run's measurement.
type fig10Point struct {
	exec  float64
	ckpts float64
}

// Fig10 sweeps the checkpoint interval (0 = no checkpoints) for GP vs NORM
// and reports execution time and completed checkpoint count.
func Fig10(ctx context.Context, o Options) (*stats.Table, error) {
	nProb, n := 56000, 128
	intervals := []sim.Time{0, 60 * sim.Second, 120 * sim.Second, 180 * sim.Second, 300 * sim.Second}
	if o.Quick {
		nProb, n = 5760, 16
		intervals = []sim.Time{0, 5 * sim.Second, 10 * sim.Second}
	}
	modes := []Mode{GP, NORM}
	var keys []fig10Key
	for _, iv := range intervals {
		for _, mode := range modes {
			for rep := 0; rep < o.reps(); rep++ {
				keys = append(keys, fig10Key{Interval: iv, Mode: mode, Rep: rep})
			}
		}
	}
	points, err := mapRuns(ctx, o.workers(), keys, func(k fig10Key) (fig10Point, error) {
		wl := workload.NewHPL(nProb, n)
		res, err := Run(ctx, Spec{
			WL: wl, Mode: k.Mode,
			Seed:     int64(500000 + int(k.Interval/sim.Second)*10 + k.Rep),
			Sched:    Schedule{Interval: k.Interval},
			GroupMax: wl.P,
		})
		if err != nil {
			return fig10Point{}, err
		}
		return fig10Point{exec: seconds(res.ExecTime), ckpts: float64(res.Epochs)}, nil
	})
	if err != nil {
		return nil, err
	}
	byCell := map[fig10Key][]fig10Point{}
	for i, k := range keys {
		cell := fig10Key{Interval: k.Interval, Mode: k.Mode}
		byCell[cell] = append(byCell[cell], points[i])
	}
	t := &stats.Table{
		Title:   "Figure 10: effect of periodic checkpoints (HPL N=" + fmt.Sprint(nProb) + ", " + fmt.Sprint(n) + " procs)",
		Columns: []string{"interval_s", "GP_exec_s", "GP_ckpts", "NORM_exec_s", "NORM_ckpts"},
	}
	for _, iv := range intervals {
		row := []any{seconds(iv)}
		for _, mode := range modes {
			var execs, cks []float64
			for _, p := range byCell[fig10Key{Interval: iv, Mode: mode}] {
				execs = append(execs, p.exec)
				cks = append(cks, p.ckpts)
			}
			row = append(row, stats.Summarize(execs), stats.Mean(cks))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: with no checkpoints GP is slightly slower (logging); GP catches NORM at 4 checkpoints (180s interval) and wins at 60/120s")
	return t, nil
}

// ---------------------------------------------------------------------------
// Figures 11 and 12 — NPB CG and SP summed checkpoint/restart times.

// npbPoint is one run's pair of headline metrics.
type npbPoint struct {
	ck, rst float64
}

func npbSuiteTable(ctx context.Context, o Options, name string, scales []int, modes []Mode,
	mk func(n int) workload.Workload, ckptAt sim.Time) (*stats.Table, *stats.Table, error) {
	keys := matrix(scales, modes, o.reps())
	points, err := mapRuns(ctx, o.workers(), keys, func(k runKey) (npbPoint, error) {
		res, err := Run(ctx, Spec{
			WL: mk(k.Scale), Mode: k.Mode,
			Seed:  int64(900000 + 100*k.Scale + k.Rep),
			Sched: Schedule{At: ckptAt},
		})
		if err != nil {
			return npbPoint{}, err
		}
		rst, err := Restart(res, int64(800+k.Rep))
		if err != nil {
			return npbPoint{}, err
		}
		return npbPoint{
			ck:  seconds(ckpt.AggregateCheckpointTime(res.Records)),
			rst: seconds(rst.AggregateRestartTime()),
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	byScale := groupByScale(keys, points)
	a := &stats.Table{
		Title:   name + ": summed checkpoint time",
		Columns: append([]string{"procs"}, modeCols(modes, "ckpt_s")...),
	}
	b := &stats.Table{
		Title:   name + ": summed restart time",
		Columns: append([]string{"procs"}, modeCols(modes, "restart_s")...),
	}
	for _, n := range scales {
		rowA := []any{n}
		rowB := []any{n}
		for _, mode := range modes {
			var cks, rsts []float64
			for _, p := range byScale[n][mode] {
				cks = append(cks, p.ck)
				rsts = append(rsts, p.rst)
			}
			rowA = append(rowA, stats.Summarize(cks))
			rowB = append(rowB, stats.Summarize(rsts))
		}
		a.AddRow(rowA...)
		b.AddRow(rowB...)
	}
	return a, b, nil
}

// Fig11 is the CG class C checkpoint/restart sweep (paper Figure 11).
func Fig11(ctx context.Context, o Options) (*stats.Table, *stats.Table, error) {
	scales := o.scales([]int{16, 32, 64, 128}, []int{16, 32})
	ckptAt := 60 * sim.Second
	mk := func(n int) workload.Workload {
		wl := workload.CGClassC(n)
		if o.Quick {
			wl.NA, wl.NIter = 30000, 20
		}
		return wl
	}
	if o.Quick {
		ckptAt = 4 * sim.Second
	}
	a, b, err := npbSuiteTable(ctx, o, "Figure 11 (CG class C)", scales,
		[]Mode{GP, GP1, GP4, NORM}, mk, ckptAt)
	if err != nil {
		return nil, nil, err
	}
	a.AddNote("paper: GP much better than NORM, comparable to GP1")
	b.AddNote("paper: GP as efficient as NORM, less varying than GP1")
	return a, b, nil
}

// Fig12 is the SP class C checkpoint/restart sweep (paper Figure 12; GP4 is
// omitted as in the paper — it does not fit SP's square process counts).
func Fig12(ctx context.Context, o Options) (*stats.Table, *stats.Table, error) {
	scales := o.scales([]int{64, 81, 100, 121}, []int{16, 25})
	ckptAt := 60 * sim.Second
	mk := func(n int) workload.Workload {
		wl := workload.SPClassC(n)
		if o.Quick {
			wl.Problem, wl.NIter = 64, 60
		}
		return wl
	}
	if o.Quick {
		ckptAt = 4 * sim.Second
	}
	a, b, err := npbSuiteTable(ctx, o, "Figure 12 (SP class C)", scales,
		[]Mode{GP, GP1, NORM}, mk, ckptAt)
	if err != nil {
		return nil, nil, err
	}
	a.AddNote("paper: checkpoint time GP ≪ NORM, comparable to GP1")
	b.AddNote("paper: restart GP ≈ NORM, less varying than GP1")
	return a, b, nil
}

// ---------------------------------------------------------------------------
// Figures 13 and 14 — remote checkpoint storage, GP vs MPICH-VCL.

type vclSuiteResult struct {
	scales []int
	// per scale: VCL and GP results (reps each)
	vcl map[int][]*Result
	gp  map[int][]*Result
}

var vclSuiteCache runner.Memo[*vclSuiteResult]

// vclPair is one (scale, rep) cell: the VCL run and the GP run forced to
// match its checkpoint count.
type vclPair struct {
	vcl *Result
	gp  *Result
}

// cgRemoteSuite runs CG class C with images on 4 remote checkpoint servers:
// VCL checkpoints every 120 s; GP is then forced to take the same number of
// checkpoints using a matched interval (the paper's fairness rule). The two
// runs of a cell are dependent (GP's schedule derives from VCL's outcome),
// so each cell runs them back to back; cells fan out across workers.
func cgRemoteSuite(ctx context.Context, o Options) (*vclSuiteResult, error) {
	s, _, err := vclSuiteCache.Get(ctx, o.key(), func() (*vclSuiteResult, error) {
		suite := &vclSuiteResult{
			scales: o.scales([]int{16, 32, 64, 128}, []int{16, 32}),
			vcl:    map[int][]*Result{},
			gp:     map[int][]*Result{},
		}
		interval := 120 * sim.Second
		mk := func(n int) workload.Workload {
			wl := workload.CGClassC(n)
			if o.Quick {
				wl.NA, wl.NIter = 30000, 30
			}
			return wl
		}
		if o.Quick {
			// Long enough that quick-sized VCL epochs do not overrun.
			interval = 25 * sim.Second
		}
		keys := matrix(suite.scales, []Mode{VCL}, o.reps())
		pairs, err := mapRuns(ctx, o.workers(), keys, func(k runKey) (vclPair, error) {
			n := k.Scale
			seed := int64(700000 + 100*n + k.Rep)
			vres, err := Run(ctx, Spec{
				WL: mk(n), Mode: VCL, Seed: seed,
				Sched:         Schedule{Interval: interval},
				RemoteServers: 4,
			})
			if err != nil {
				return vclPair{}, err
			}
			// Force GP to take the same number of checkpoints with a
			// matched interval.
			count := vres.Epochs
			gpInterval := interval
			if count > 0 {
				gpInterval = vres.ExecTime / sim.Time(count+1)
			}
			// The paper's GP/LAM path reaches the servers via
			// async-mounted NFS (write-behind); VCL streams
			// synchronously to its checkpoint server daemons.
			gres, err := Run(ctx, Spec{
				WL: mk(n), Mode: GP, Seed: seed,
				Sched:         Schedule{Interval: gpInterval, MaxCount: count},
				RemoteServers: 4,
				RemoteAsync:   true,
			})
			if err != nil {
				return vclPair{}, err
			}
			return vclPair{vcl: vres, gp: gres}, nil
		})
		if err != nil {
			return nil, err
		}
		for i, k := range keys {
			suite.vcl[k.Scale] = append(suite.vcl[k.Scale], pairs[i].vcl)
			suite.gp[k.Scale] = append(suite.gp[k.Scale], pairs[i].gp)
		}
		return suite, nil
	})
	return s, NormalizeCancel(err)
}

// Fig13 reports execution time and checkpoint counts for GP vs VCL with
// remote checkpoint storage.
func Fig13(ctx context.Context, o Options) (*stats.Table, error) {
	s, err := cgRemoteSuite(ctx, o)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Figure 13: effect of scale with remote checkpoint storage (CG class C)",
		Columns: []string{"procs", "GP_exec_s", "GP_ckpts", "VCL_exec_s", "VCL_ckpts"},
	}
	for _, n := range s.scales {
		gpExec := stats.Summarize(resultSeconds(s.gp[n]))
		vclExec := stats.Summarize(resultSeconds(s.vcl[n]))
		t.AddRow(n, gpExec, meanEpochs(s.gp[n]), vclExec, meanEpochs(s.vcl[n]))
	}
	t.AddNote("paper: GP shows a clear edge over VCL as the system scales up")
	return t, nil
}

// Fig14 reports the average time per checkpoint for GP vs VCL.
func Fig14(ctx context.Context, o Options) (*stats.Table, error) {
	s, err := cgRemoteSuite(ctx, o)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Figure 14: average time per checkpoint (CG class C, remote storage)",
		Columns: []string{"procs", "GP_s", "VCL_s"},
	}
	for _, n := range s.scales {
		t.AddRow(n,
			stats.Summarize(meanCkptSeconds(s.gp[n])),
			stats.Summarize(meanCkptSeconds(s.vcl[n])))
	}
	t.AddNote("paper: GP stays low and flat; VCL climbs steeply with scale")
	return t, nil
}

func resultSeconds(rs []*Result) []float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, seconds(r.ExecTime))
	}
	return xs
}

func meanEpochs(rs []*Result) float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, float64(r.Epochs))
	}
	return stats.Mean(xs)
}

func meanCkptSeconds(rs []*Result) []float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, seconds(MeanCheckpointTime(r.Records)))
	}
	return xs
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ResetCaches clears the memoized tracing formations and experiment suites.
// The benchmarks call it so every iteration measures real work.
func ResetCaches() {
	formationCache.Reset()
	hplSuiteCache.Reset()
	vclSuiteCache.Reset()
}
