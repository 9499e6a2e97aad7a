// Package simcheck is the simulator's randomized self-verification
// subsystem: a seeded scenario generator that composes cluster profiles ×
// workloads × rank counts × failure processes × checkpoint policies into
// valid scenario.Specs far beyond the hand-written examples, and an
// invariant oracle that runs each generated spec and machine-checks the
// conservation and consistency properties every layer of the stack promises
// (see Check). The paper's claims only hold if the simulator is
// trustworthy; after three hot-path rewrites protected mainly by golden
// diffs, simcheck turns every future refactor into a push-button
// verification: `gbcheck -n 50 -seed 1`, or a long overnight sweep, or the
// FuzzScenario native-fuzzing entry.
//
// Everything is deterministic: a generator seed fully determines the spec,
// and the spec's own seed fully determines every simulation cell, so a
// failing seed printed by gbcheck reproduces the violation exactly.
package simcheck

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/pattern"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// GenConfig bounds the generator. The zero value selects the quick-sweep
// defaults used by `make check-smoke`.
type GenConfig struct {
	// MaxRanks caps generated rank counts (minimum 16, default 64).
	// Overnight sweeps raise it — the generator composes scales up to
	// 16384 when allowed, the regime the PR 3 fast path exists for.
	MaxRanks int
}

func (c GenConfig) maxRanks() int {
	if c.MaxRanks <= 0 {
		return 64
	}
	if c.MaxRanks < 16 {
		return 16
	}
	return c.MaxRanks
}

// Generate derives one valid scenario spec from seed. Identical seeds
// produce identical specs; the spec's every field (including its own
// simulation seed) is a pure function of seed and cfg. Generate panics if
// it ever produces a spec the scenario validator rejects — that is a
// generator bug, and the panic message carries the reproducing seed.
func Generate(seed int64, cfg GenConfig) *scenario.Spec {
	rng := sim.NewRand(seed)
	max := cfg.maxRanks()

	s := &scenario.Spec{
		Name:    fmt.Sprintf("gen-%d", seed),
		Notes:   fmt.Sprintf("simcheck-generated (seed %d, maxRanks %d)", seed, max),
		Cluster: genCluster(rng),
		Reps:    1 + rng.Intn(2),
		Seed:    1 + rng.Int63n(1_000_000),
	}

	// ~20% of scenarios are cluster cells: a small job stream instead of a
	// single application, with scales meaning node counts. innerMax is the
	// widest single simulation a cell actually runs — the largest job
	// template for streams, the largest scale otherwise — and is what the
	// mode menu gates on.
	var innerMax int
	if rng.Intn(5) == 0 {
		s.Scales = genNodeCounts(rng, max)
		s.Jobs, innerMax = genJobs(rng, s.Scales[0])
	} else {
		kind := pick(rng, []string{"synthetic", "synthetic", "cg", "sp", "hpl"})
		s.Scales = genScales(rng, kind, max)
		s.Workload = genWorkload(rng, kind)
		innerMax = s.Scales[len(s.Scales)-1]
	}

	// Failure processes ride on ~60% of scenarios. Deciding before the
	// modes keeps VCL (which cannot be evaluated under injection) out of
	// failing scenarios by construction.
	if rng.Intn(10) < 6 {
		f := &scenario.FailureSpec{
			MTBFS: 0.5 + rng.Float64()*9.5,
		}
		if rng.Intn(2) == 0 {
			f.Process = "poisson"
		} else {
			f.Process = "weibull"
			f.Shape = 0.5 + rng.Float64()
		}
		if rng.Intn(3) == 0 {
			f.Max = 4 + rng.Intn(28)
		}
		// Time-varying intensity rides on ~40% of failure processes.
		// Thinning accelerates the base process by the curve's peak, so
		// stretch the MTBF by it: the effective peak rate stays inside the
		// stationary generator's envelope and cells keep finishing well
		// under the horizon.
		if rng.Intn(5) < 2 {
			f.Pattern = genPattern(rng)
			if c, err := f.Pattern.Curve(); err == nil {
				f.MTBFS *= math.Max(1, c.Max())
			}
		}
		s.Failures = f
	}
	s.Modes = genModes(rng, innerMax, s.Failures == nil)
	s.Checkpoint = genCheckpoint(rng)

	if rng.Intn(4) == 0 {
		s.GroupMax = 2 + rng.Intn(7)
	}
	if rng.Intn(10) == 0 {
		s.RemoteServers = 1 + rng.Intn(4)
		s.RemoteAsync = rng.Intn(2) == 0
	}

	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("simcheck: generator seed %d produced an invalid spec: %v", seed, err))
	}
	return s
}

// genScales draws one or two distinct rank counts valid for the workload
// kind, ascending, each ≤ max.
func genScales(rng *rand.Rand, kind string, max int) []int {
	one := func() int {
		switch kind {
		case "cg":
			// Powers of two in [2, max].
			maxExp := int(math.Log2(float64(max)))
			return 1 << (1 + rng.Intn(maxExp))
		case "hpl":
			// Multiples of 8 in [8, max].
			return 8 * (1 + rng.Intn(max/8))
		case "sp":
			// Squares in [4, max].
			root := int(math.Sqrt(float64(max)))
			k := 2 + rng.Intn(root-1)
			return k * k
		default: // synthetic: anything ≥ 2
			return 2 + rng.Intn(max-1)
		}
	}
	scales := []int{one()}
	if rng.Intn(2) == 0 {
		if n := one(); n != scales[0] {
			scales = append(scales, n)
		}
	}
	if len(scales) == 2 && scales[0] > scales[1] {
		scales[0], scales[1] = scales[1], scales[0]
	}
	return scales
}

// genModes draws a non-empty mode subset sized to the widest single
// simulation a cell runs (the largest scale, or the largest job template for
// streams): global coordination (NORM) and wide ad-hoc groups (GP4)
// checkpoint continuously past a few hundred ranks (the paper's pathology),
// and GP's tracing pass is only cheap up to ~512 ranks, so big scales stick
// to GP1.
func genModes(rng *rand.Rand, maxScale int, allowVCL bool) []string {
	eligible := []string{"GP1"}
	if maxScale <= 512 {
		eligible = append(eligible, "GP", "GP4")
	}
	if maxScale <= 64 {
		eligible = append(eligible, "NORM")
		if allowVCL {
			eligible = append(eligible, "VCL")
		}
	}
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	n := 1 + rng.Intn(min(3, len(eligible)))
	return append([]string{}, eligible[:n]...)
}

// genCheckpoint draws a checkpoint policy: periodic, one-shot, both, or
// (rarely) none at all — the oracle's conservation invariants must hold
// with zero epochs too.
func genCheckpoint(rng *rand.Rand) scenario.CheckpointSpec {
	var ck scenario.CheckpointSpec
	switch rng.Intn(8) {
	case 0: // none
	case 1, 2: // one-shot
		ck.AtS = 0.2 + rng.Float64()*3
	default: // periodic, sometimes with a one-shot too
		ck.IntervalS = 0.2 + rng.Float64()*4
		if rng.Intn(2) == 0 {
			ck.StartS = 0.2 + rng.Float64()*2
		}
		if rng.Intn(2) == 0 {
			ck.MaxCount = 1 + rng.Intn(4)
		}
		if rng.Intn(4) == 0 {
			ck.AtS = 0.2 + rng.Float64()*2
		}
	}
	return ck
}

// genCluster draws a hardware calibration: one of the named profiles,
// sometimes with operator-style overrides (including disabled jitter).
func genCluster(rng *rand.Rand) scenario.ClusterSpec {
	c := scenario.ClusterSpec{Profile: pick(rng, []string{"gideon", "modern"})}
	if rng.Intn(3) == 0 {
		c.GFlops = 0.5 + rng.Float64()*7.5
		c.NICMBps = 10 + rng.Float64()*1000
		c.LatencyUs = 20 + rng.Float64()*400
	}
	if rng.Intn(4) == 0 {
		j := 0.0
		if rng.Intn(2) == 0 {
			j = rng.Float64() * 0.02
		}
		c.JitterFrac = &j
	}
	return c
}

// genWorkload draws the workload parameters, sized so a cell simulates in
// tens of milliseconds of wall clock at quick-sweep scales.
func genWorkload(rng *rand.Rand, kind string) scenario.WorkloadSpec {
	w := scenario.WorkloadSpec{Kind: kind}
	switch kind {
	case "synthetic":
		w.Iters = 4 + rng.Intn(20)
		w.RingKB = 1 + int64(rng.Intn(128))
		w.CrossKB = 1 + int64(rng.Intn(32))
		w.CrossEach = 1 + rng.Intn(6)
		w.MFlopsPerIter = 10 + rng.Float64()*190
		w.ImageMB = 1 + int64(rng.Intn(8))
	case "cg":
		w.NA = 2000 + rng.Intn(30000)
		w.NIter = 3 + rng.Intn(8)
	case "sp":
		w.Problem = 12 + rng.Intn(24)
		w.NIter = 3 + rng.Intn(6)
	case "hpl":
		w.Problem = 1000 + rng.Intn(3000)
	}
	return w
}

// genNodeCounts draws one or two cluster sizes for a job-stream scenario,
// ascending, each in [8, max] — big enough to place several small jobs at
// once, bounded like every other scale.
func genNodeCounts(rng *rand.Rand, max int) []int {
	one := func() int { return 8 + rng.Intn(max-7) }
	scales := []int{one()}
	if rng.Intn(2) == 0 {
		if n := one(); n != scales[0] {
			scales = append(scales, n)
		}
	}
	if len(scales) == 2 && scales[0] > scales[1] {
		scales[0], scales[1] = scales[1], scales[0]
	}
	return scales
}

// genJobs draws a small job stream sized for quick cells: 2–4 jobs from one
// or two synthetic templates, random placement policy, sometimes with
// pattern-modulated arrivals. Returns the spec and the widest template — the
// largest inner simulation a cell runs, which the mode menu gates on.
func genJobs(rng *rand.Rand, minScale int) (*scenario.JobsSpec, int) {
	j := &scenario.JobsSpec{
		Count:             2 + rng.Intn(3),
		MeanInterarrivalS: 0.3 + rng.Float64()*2.7,
		Placement:         pick(rng, []string{"firstfit", "grouped"}),
	}
	if rng.Intn(2) == 0 {
		j.Arrivals = genPattern(rng)
	}
	// Inner runs stay tiny: the cluster, not the job, is the scale under
	// test, and every template must fit the smallest cluster.
	rankCap := minScale
	if rankCap > 8 {
		rankCap = 8
	}
	innerMax := 0
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		tp := scenario.JobTemplateSpec{
			WorkloadSpec: genWorkload(rng, "synthetic"),
			Ranks:        2 + rng.Intn(rankCap-1),
			Weight:       1 + rng.Intn(3),
		}
		j.Templates = append(j.Templates, tp)
		if tp.Ranks > innerMax {
			innerMax = tp.Ranks
		}
	}
	return j, innerMax
}

// genPattern draws a valid time-varying intensity curve: a named preset, or
// a random parameterization of each curve family with peak levels bounded at
// ~8× so modulated processes stay in the same regime the presets model.
func genPattern(rng *rand.Rand) *pattern.Spec {
	switch rng.Intn(6) {
	case 0:
		return &pattern.Spec{Kind: "preset", Preset: pick(rng, pattern.Presets())}
	case 1:
		return &pattern.Spec{Kind: "constant", Level: 0.25 + rng.Float64()*2}
	case 2:
		return &pattern.Spec{Kind: "ramp",
			From: rng.Float64() * 2, To: 0.2 + rng.Float64()*2, OverS: 1 + rng.Float64()*20}
	case 3:
		p := &pattern.Spec{Kind: "burst",
			Base: 0.1 + rng.Float64(), Peak: 2 + rng.Float64()*6,
			StartS: rng.Float64() * 5, DurationS: 0.5 + rng.Float64()*3}
		if rng.Intn(2) == 0 {
			p.EveryS = p.DurationS + 1 + rng.Float64()*15
		}
		return p
	case 4:
		return &pattern.Spec{Kind: "sine",
			Base: 0.5 + rng.Float64()*1.5, Amplitude: rng.Float64() * 2,
			PeriodS: 2 + rng.Float64()*30, PhaseS: rng.Float64() * 10}
	default:
		n := 2 + rng.Intn(4)
		pts := make([]pattern.PointSpec, n)
		t := rng.Float64() * 2
		for i := range pts {
			pts[i] = pattern.PointSpec{TS: t, Level: rng.Float64() * 3}
			t += 0.5 + rng.Float64()*5
		}
		pts[n-1].Level = 0.5 + rng.Float64()*2.5 // the majorant must be positive
		return &pattern.Spec{Kind: "piecewise", Points: pts}
	}
}

func pick(rng *rand.Rand, opts []string) string { return opts[rng.Intn(len(opts))] }
