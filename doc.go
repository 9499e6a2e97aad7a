// Package repro is a from-scratch Go reproduction of "Scalable Group-based
// Checkpoint/Restart for Large-Scale Message-passing Systems" (Ho, Wang,
// Lau — IPDPS 2008).
//
// The paper's system ran on a 128-node cluster under LAM/MPI with BLCR;
// this repository rebuilds every layer as a deterministic discrete-event
// simulation so the protocol behaviours the paper measures — coordination
// cost growth, non-blocking checkpoints turning blocking, log replay on
// restart — reproduce on a laptop.
//
// Package gb is the public facade and the single supported way to drive
// the simulator: gb.Run(ctx, workload, ...Option) for one simulation,
// gb.Sweep(ctx, spec, ...Option) for a streamed scenario sweep, stacked
// observers for instrumentation, and typed sentinel errors (ErrBadSpec,
// ErrHorizon, ErrCanceled). Every cmd/ binary and example is built on it;
// the layers below are implementation:
//
//	internal/sim       discrete-event kernel (processes are iter.Pull
//	                   coroutines: the blocking process runs the event loop
//	                   and yields only to switch to another process)
//	internal/cluster   nodes, NICs, disks, network, checkpoint servers, OS noise
//	internal/mpi       MPI-like ranks: p2p, collectives, freeze gates, hooks;
//	                   pooled message envelopes and sparse per-peer channels
//	internal/trace     Recorder (full records: timelines, gap analysis) and
//	                   CommMatrix (streaming pairwise aggregation)
//	internal/group     paper Algorithm 2 (trace- or matrix-driven formation)
//	internal/mlog      sender-based message logs, piggybacked GC, replay plans
//	internal/ckpt      checkpoint records, stage breakdowns, snapshots
//	internal/core      paper Algorithm 1: the group-based C/R engine, the
//	                   mpirun controller, restart, and the MPICH-VCL baseline
//	internal/workload  HPL and NPB CG/SP communication-accurate skeletons
//	internal/failure   failure injection and group-vs-global recovery
//	internal/harness   run assembly (Spec → Result, observer stacking) and
//	                   the paper's experiments (Figures 1–14, Table 1)
//	internal/runner    parallel experiment engine: worker pool + memoization
//	internal/scenario  declarative JSON experiment specs (gbexp -scenario);
//	                   built-in profiles up to 16384 ranks (scale16k)
//	internal/simcheck  randomized scenario generation + the invariant
//	                   oracle behind cmd/gbcheck and FuzzScenario
//
// Experiments hand their run matrix (scales × modes × repetitions) to
// internal/runner, which fans the independent, deterministically seeded
// simulations across GOMAXPROCS workers and collects results in stable
// order — `gbexp -parallel N` output is byte-identical to serial runs.
//
// The benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation (reduced problem sizes by default; `go run ./cmd/gbexp
// -exp all` runs them at paper scale). See DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-vs-measured results.
package repro
