// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks that the simulator's outputs are correct, and
// prints every metric by name and unit; the last line of its output is
// one JSON object with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload cell-4096 --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// runs the work untraced and then traced, with a CPU profile, spans and
// layer counters, and reports the per-layer metrics. README.md in this
// directory explains the workloads and the metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	// prepare generates the inputs from the seed and fixes the reference
	// the outputs are checked against. It is not timed.
	prepare(ctx context.Context, seed int64) error
	// setup is the work done before timing starts; each call replaces the
	// previous state.
	setup(ctx context.Context) error
	// op runs one unit of the workload's fixed work and checks its
	// output. A non-nil tracer records spans under parent and makes the
	// workload collect its layer counters.
	op(ctx context.Context, tr *tracer, parent int64) (opStats, error)
	// finish runs the checks that follow the timed work.
	finish(ctx context.Context) (opStats, error)
	// layers returns the workload's own per-layer metrics over the traced
	// ops, per op.
	layers(ops int) map[string]float64
	// refDigest is the output digest the run was checked against.
	refDigest() string
	shape() shape
	// close releases what setup acquired; a closed workload may be set
	// up again.
	close()
}

// shape is how the benchmark drives a workload.
type shape struct {
	unit    string // names one op: the fixed work wall_s measures
	workers int    // threads the work may use
	// setup_s is the median over setupReps samples, each the mean of
	// setupBatch consecutive set-ups (a batch makes a set-up of
	// microseconds measurable).
	setupReps, setupBatch int
	// setupEachOp also takes setupReps samples before every untraced op,
	// outside the op's timing, so that a set-up of microseconds is
	// sampled over the whole run, as the ops are, and not only in the
	// moment before timing starts.
	setupEachOp bool
	// peak_heap_mb covers the first heapOps ops of the run, a fixed
	// amount of work.
	heapOps int
}

// opStats counts the operations one op attempted and the ones that
// failed, with the latencies of its requests (nil: the op is itself the
// one request).
type opStats struct {
	attempted, failed int
	latencies         []float64 // ms
	issues            []string
}

// tunePath is the gbd-mix tune spec, relative to the repository root the
// benchmark runs from.
const tunePath = "examples/tune/smoke-tune.json"

// defaultSeed is the seed whose output digests are committed in
// digests.json.
const defaultSeed = 1

func newWorkload(name string) (workload, bool) {
	n := runtime.NumCPU()
	switch name {
	case "cell-4096":
		return newCellWorkload(name, 4096, 60), true
	case "suite-quick":
		return newSuiteWorkload(name, nil, n), true
	case "gbd-mix":
		return newGBDWorkload(name, n, n, 8, 48, 8, tunePath), true
	}
	return nil, false
}

var workloadNames = []string{"cell-4096", "suite-quick", "gbd-mix"}

// metricDef is one reported metric. The lists mirror BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
	{"req_per_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"req_tail_ms", "ms"},
}

// cpuLayers are the layers that get a CPU bucket; samples charged to any
// other repository package go to "other".
var cpuLayers = []string{"sim", "mpi", "core", "mlog", "ckpt", "failure", "group", "trace",
	"harness", "runner", "scenario", "stats", "metrics", "workload", "cluster", "image",
	"gb", "gbd", "tune", "perfbench", "other", "runtime", "http"}

var perLayer = func() []metricDef {
	defs := []metricDef{{"sim.handoff_cpu_s", "s"}}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_s", "s"})
	}
	return append(defs, []metricDef{
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.partitions", "count"},
		{"sim.lookahead_stalls", "count"},
		{"mpi.sends", "count"},
		{"mpi.send_bytes", "bytes"},
		{"core.checkpoints", "count"},
		{"core.log_flush_bytes", "bytes"},
		{"mlog.logged_bytes", "bytes"},
		{"failure.injected", "count"},
		{"runner.busy_frac", "ratio"},
		{"runtime.gc_cpu_s", "s"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.allocs", "count"},
		{"runtime.gc_cycles", "count"},
		{"runtime.sched_wait_p99_us", "us"},
		{"runtime.mutex_wait_s", "s"},
		{"gbd.hit_p50_ms", "ms"},
		{"gbd.hit_ratio", "ratio"},
		{"gbd.miss_p50_ms", "ms"},
		{"gbd.cells_scheduled", "count"},
		{"gbd.handler_p50_ms", "ms"},
		{"tune.rung_ms", "ms"},
		{"tune.cells", "count"},
		{"tune.memo_hits", "count"},
		{"profile.total_cpu_s", "s"},
		{"profile.layers_cpu_s", "s"},
		{"profile.unattributed_frac", "ratio"},
		{"tracing.overhead_s", "s"},
	}...)
}()

//go:embed digests.json
var digestsJSON []byte

// committedDigest returns the committed output digest of a workload at a
// seed, if there is one.
func committedDigest(workload string, seed int64) (string, bool) {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return "", false
	}
	d, ok := m[workload+"/"+strconv.FormatInt(seed, 10)]
	return d, ok
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// otherWorkers is a worker count other than n, for reference runs that
// rely on byte identity across worker counts.
func otherWorkers(n int) int {
	if n == 1 {
		return 2
	}
	return 1
}

// phase is what one timed stretch of ops measured.
type phase struct {
	wallS, cpuS []float64 // per op
	reqMs       []float64
	ops         int
	attempted   int
	failed      int
	issues      []string
	peakHeap    uint64 // over the first peakOps ops
	peakOps     int
	totalWall   float64
	setupS      []float64 // set-up samples taken between ops (setupEachOp)
}

func (p *phase) add(st opStats) {
	p.attempted += st.attempted
	p.failed += st.failed
	p.issues = append(p.issues, st.issues...)
}

// runPhase runs ops until d has passed (at least one op).
func runPhase(ctx context.Context, w workload, d time.Duration, tr *tracer, root int64) phase {
	var p phase
	sh := w.shape()
	runtime.GC()
	heap := startHeapSampler(5 * time.Millisecond)
	start := time.Now()
	for p.ops == 0 || time.Since(start) < d {
		if sh.setupEachOp && tr == nil {
			if err := p.timeSetups(ctx, w); err != nil {
				p.ops++
				p.add(opStats{attempted: 1, failed: 1, issues: []string{err.Error()}})
				continue
			}
		}
		t0, c0 := time.Now(), processCPU()
		id := tr.begin(sh.unit, "", root)
		st, err := w.op(ctx, tr, id)
		tr.end(id)
		wall, cpu := time.Since(t0), processCPU()-c0
		p.ops++
		if p.ops == sh.heapOps {
			p.peakHeap, p.peakOps = heap.peakNow(), p.ops
		}
		if err != nil {
			p.add(opStats{attempted: 1, failed: 1, issues: []string{err.Error()}})
			continue
		}
		p.add(st)
		p.wallS = append(p.wallS, wall.Seconds())
		p.cpuS = append(p.cpuS, cpu.Seconds())
		if st.latencies == nil && st.failed == 0 {
			st.latencies = []float64{ms(wall)}
		}
		p.reqMs = append(p.reqMs, st.latencies...)
	}
	p.totalWall = time.Since(start).Seconds()
	if last := heap.finish(); p.ops < sh.heapOps {
		p.peakHeap, p.peakOps = last, p.ops
	}
	return p
}

// timeSetups takes setupReps set-up samples between two ops.
func (p *phase) timeSetups(ctx context.Context, w workload) error {
	sh := w.shape()
	for i := 0; i < sh.setupReps; i++ {
		s, err := timeSetup(ctx, w, sh.setupBatch)
		if err != nil {
			return err
		}
		p.setupS = append(p.setupS, s)
	}
	return nil
}

// timeSetup replaces the workload's state with a batch of set-ups and
// returns the mean seconds of one.
func timeSetup(ctx context.Context, w workload, batch int) (float64, error) {
	w.close()
	t0 := time.Now()
	for j := 0; j < batch; j++ {
		if err := w.setup(ctx); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds() / float64(batch), nil
}

// result is what one invocation reports.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	report            map[string]any
	spans             []span
	profile           []byte
}

// run prepares, sets up and measures one workload. With traced set it
// measures the work untraced for half the time and traced for the other
// half.
func run(ctx context.Context, name string, w workload, seed int64, seconds float64, traced bool) (*result, error) {
	if err := w.prepare(ctx, seed); err != nil {
		return nil, err
	}
	defer w.close()
	var setupS []float64
	sh := w.shape()
	// Start set-up from a collected heap: a reference run in prepare
	// leaves garbage whose collection would otherwise land in set-up at
	// some seeds and not others.
	runtime.GC()
	for i := 0; i < sh.setupReps; i++ {
		s, err := timeSetup(ctx, w, sh.setupBatch)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
	}

	dur := time.Duration(seconds * float64(time.Second))
	if traced {
		dur /= 2
	}
	plain := runPhase(ctx, w, dur, nil, 0)
	setupS = append(setupS, plain.setupS...)
	all := plain
	res := &result{metrics: map[string]float64{}}
	report := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced, "unit": sh.unit,
		"env": environment(),
		"setup": map[string]any{"samples": len(setupS), "batch": sh.setupBatch, "median_s": median(setupS),
			"q1_s": quantile(setupS, 0.25), "q3_s": quantile(setupS, 0.75)},
	}
	report["untraced"] = phaseReport(plain)

	if !traced {
		m := res.metrics
		m["wall_s"] = median(plain.wallS)
		m["cpu_s"] = median(plain.cpuS)
		m["peak_heap_mb"] = float64(plain.peakHeap) / 1e6
		m["setup_s"] = median(setupS)
		m["req_per_s"] = float64(len(plain.reqMs)) / sum(plain.wallS)
		m["req_p50_ms"] = median(plain.reqMs)
		_, m["req_tail_ms"] = tail(plain.reqMs)
	} else {
		tr := newTracer()
		root := tr.begin("workload "+name, "", 0)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		rt0 := readRuntime()
		tp := runPhase(ctx, w, dur, tr, root)
		rt1 := readRuntime()
		pprof.StopCPUProfile()
		tr.end(root)
		all.add(opStats{attempted: tp.attempted, failed: tp.failed, issues: tp.issues})
		report["traced"] = phaseReport(tp)

		p, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		res.profile = prof.Bytes()
		res.spans = tr.snapshot()
		att := attribute(p)
		layerMetrics(res.metrics, w, plain, tp, att, rt0, rt1)
		report["attribution"] = map[string]any{
			"samples":            att.samples,
			"profile_total_s":    att.totalS,
			"buckets_sum_s":      sumMap(att.layerS),
			"repo_layers_s":      att.totalS - att.noRepoS,
			"no_repo_frame_s":    att.noRepoS,
			"unattributed_share": res.metrics["profile.unattributed_frac"],
			"by_layer_s":         att.layerS,
		}
		report["tracing_overhead_s"] = res.metrics["tracing.overhead_s"]
		report["spans"] = summarizeSpans(res.spans)
	}

	fin, err := w.finish(ctx)
	if err != nil {
		return nil, err
	}
	all.add(fin)
	res.attempted, res.failed = all.attempted, all.failed
	res.correct = all.failed == 0 && all.attempted > 0
	report["reference_digest"] = w.refDigest()
	report["attempted"], report["failed"] = all.attempted, all.failed
	report["error_frac"] = float64(all.failed) / float64(max(all.attempted, 1))
	if len(all.issues) > 0 {
		report["issues"] = all.issues[:min(len(all.issues), 20)]
	}
	res.report = report
	return res, nil
}

// layerMetrics fills the per-layer metrics of a traced run, each per op
// of the traced phase.
func layerMetrics(m map[string]float64, w workload, plain, tp phase, att attribution, rt0, rt1 runtimeStats) {
	n := float64(max(tp.ops, 1))
	known := map[string]bool{}
	for _, l := range cpuLayers {
		known[l] = true
	}
	for layer, s := range att.layerS {
		if !known[layer] {
			layer = "other"
		}
		m[layer+".cpu_s"] += s / n
	}
	m["sim.handoff_cpu_s"] = att.handoffS / n
	m["profile.total_cpu_s"] = att.totalS / n
	// The repository's layers only: beside total_cpu_s it shows the
	// share no layer of the repository can claim (runtime and http).
	m["profile.layers_cpu_s"] = (att.totalS - att.noRepoS) / n
	if att.totalS > 0 {
		m["profile.unattributed_frac"] = att.noRepoS / att.totalS
	}
	m["runtime.gc_cpu_s"] = (rt1.gcCPU - rt0.gcCPU) / n
	m["runtime.alloc_mb"] = float64(rt1.allocBytes-rt0.allocBytes) / 1e6 / n
	m["runtime.allocs"] = float64(rt1.allocObjs-rt0.allocObjs) / n
	m["runtime.gc_cycles"] = float64(rt1.gcCycles-rt0.gcCycles) / n
	m["runtime.sched_wait_p99_us"] = histQuantile(rt0.schedLat, rt1.schedLat, 0.99) * 1e6
	m["runtime.mutex_wait_s"] = (rt1.mutexWait - rt0.mutexWait) / n
	m["tracing.overhead_s"] = median(tp.wallS) - median(plain.wallS)
	if wall := median(plain.wallS); wall > 0 {
		m["runner.busy_frac"] = median(plain.cpuS) / (wall * float64(w.shape().workers))
	}
	for k, v := range w.layers(tp.ops) {
		m[k] = v
	}
	if ev := m["sim.events"]; ev > 0 {
		m["sim.ns_per_event"] = median(plain.wallS) * 1e9 / ev
	}
}

func phaseReport(p phase) map[string]any {
	tailPct, tailMs := tail(p.reqMs)
	return map[string]any{
		"ops": p.ops, "attempted": p.attempted, "failed": p.failed,
		"wall_s":        p.wallS,
		"cpu_s":         p.cpuS,
		"wall_total_s":  p.totalWall,
		"requests":      len(p.reqMs),
		"req_p50_ms":    median(p.reqMs),
		"req_tail":      map[string]any{"percentile": tailPct, "ms": tailMs, "samples": len(p.reqMs)},
		"peak_heap_mb":  float64(p.peakHeap) / 1e6,
		"peak_heap_ops": p.peakOps,
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func sumMap(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

// environment records what a comparison between reports must hold
// fixed: toolchain, parallelism, GC setting, CPU model and the CPUs the
// process may run on (a taskset-pinned series differs from an unpinned
// one here).
func environment() map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return map[string]any{
		"go":                runtime.Version(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"nproc":             runtime.NumCPU(),
		"gogc":              gogc,
		"cpu_model":         procField("/proc/cpuinfo", "model name"),
		"cpus_allowed_list": procField("/proc/self/status", "Cpus_allowed_list"),
	}
}

// procField returns the value of the first "key: value" line of a /proc
// file ("" when absent).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// finalLine renders the result line: every metric of the run's kind,
// by name, with its unit.
func finalLine(res *result, traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.name] = value{Value: res.metrics[d.name], Unit: d.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
}

// writeArtifacts saves a traced run's spans and CPU profile under dir.
func writeArtifacts(dir, name string, seed int64, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	spans, err := json.Marshal(res.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", spans, 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", res.profile, 0o644)
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, " | "))
	seed := flag.Int64("seed", defaultSeed, "workload seed; inputs are generated from it")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", "", "directory for a traced run's spans and CPU profile (empty: not saved)")
	flag.Parse()

	w, ok := newWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	if code := mainRun(os.Stdout, *name, w, *seed, *seconds, *trace == 1, *out); code != 0 {
		os.Exit(code)
	}
}

func mainRun(stdout io.Writer, name string, w workload, seed int64, seconds float64, traced bool, out string) int {
	res, err := run(context.Background(), name, w, seed, seconds, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	if traced && out != "" {
		if err := writeArtifacts(out, name, seed, res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: saving trace: %v\n", err)
			return 1
		}
	}
	rep, err := json.MarshalIndent(res.report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := finalLine(res, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", rep, line)
	return 0
}
