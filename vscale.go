// Package vscale is the public facade of the vScale reproduction: a
// discrete-event simulation of the full system described in "vScale:
// Automatic and Efficient Processor Scaling for SMP Virtual Machines"
// (Cheng, Rao, Lau — EuroSys 2016), together with the pure library form
// of the paper's algorithms.
//
// Three levels of API are exposed:
//
//   - The pure algorithms: ComputeExtendability (Algorithm 1), the
//     freeze protocol plan (Algorithm 2) and the scaling Governor, all
//     usable outside the simulator.
//   - Scenario building: assemble a host with an SMP-VM under test and
//     bursty background desktops under one of the paper's four
//     configurations, then run workloads on it.
//   - Experiments: regenerate every table and figure of the paper's
//     evaluation (see vscale/internal/experiments via cmd/vscale-experiments).
//
// Everything runs in virtual time, deterministically, with no external
// dependencies.
package vscale

import (
	"vscale/internal/core"
	"vscale/internal/guest"
	"vscale/internal/runner"
	"vscale/internal/scenario"
	"vscale/internal/sim"
	"vscale/internal/trace"
	"vscale/internal/workload"
)

// Time is virtual time in nanoseconds (see internal/sim).
type Time = sim.Time

// Re-exported virtual-time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// VMStat describes one VM's period consumption for the extendability
// calculation (Algorithm 1).
type VMStat = core.VMStat

// Extendability is the per-VM output of Algorithm 1.
type Extendability = core.Extendability

// ComputeExtendability runs Algorithm 1 of the paper: given per-VM
// weights and consumptions over one period t on a pool of P pCPUs, it
// returns each VM's fair share, maximum achievable allocation and
// optimal vCPU count.
func ComputeExtendability(vms []VMStat, pCPUs int, t Time) []Extendability {
	return core.ComputeExtendability(nil, vms, pCPUs, t)
}

// FreezePlan quantifies one vCPU freeze/unfreeze (Algorithm 2): the
// fixed 2.1 µs master-side protocol plus per-thread and per-IRQ
// migration work on the target.
type FreezePlan = core.FreezePlan

// Governor converts optimal-vCPU readings into scaling decisions with
// down-scaling hysteresis.
type Governor = core.Governor

// NewGovernor creates a governor bounded to [min, max] vCPUs, currently
// at cur, scaling down only after downHysteresis+1 consecutive
// below-current readings.
func NewGovernor(min, max, cur, downHysteresis int) *Governor {
	return core.NewGovernor(min, max, cur, downHysteresis)
}

// Mode selects one of the paper's four configurations.
type Mode = scenario.Mode

// The four configurations compared throughout the paper's §5.2.
const (
	Baseline     = scenario.Baseline
	PVLock       = scenario.PVLock
	VScale       = scenario.VScale
	VScalePVLock = scenario.VScalePVLock
)

// Setup describes a simulated host: pool size, the VM under test,
// background desktops and the configuration under test.
type Setup = scenario.Setup

// Scenario is an assembled host ready to run workloads.
type Scenario = scenario.Built

// AppResult carries the per-run metrics the paper reports: execution
// time, VM scheduling delay, IPI rate and the average active-vCPU count.
type AppResult = scenario.AppResult

// DefaultSetup returns the paper-like host: an 8-pCPU pool, a 4-vCPU VM
// and 2:1 vCPU:pCPU consolidation via slideshow desktops.
func DefaultSetup() Setup { return scenario.DefaultSetup() }

// NewScenario assembles the host described by s (guests booted,
// scheduler running).
func NewScenario(s Setup) *Scenario { return scenario.Build(s) }

// Kernel is the simulated guest Linux kernel of a VM.
type Kernel = guest.Kernel

// App groups the threads of one multithreaded application and records
// its execution time.
type App = workload.App

// SpinBudgetFromCount converts a GOMP_SPINCOUNT value into the CPU-time
// spin budget used by the simulated OpenMP barriers.
func SpinBudgetFromCount(count uint64) Time {
	return guest.SpinBudgetFromCount(count)
}

// Tracer records simulator scheduling events for Chrome-trace export and
// schedstats (see internal/trace). Scenarios record only when a Tracer
// is set explicitly on the Setup.
//
// Migration note: the package-level scenario.DefaultTracer fallback is
// gone. Code that relied on every scenario sharing one implicit tracer
// should set Setup.Tracer per run — SweepOptions{Trace: true} does this
// for sweep runs — and stitch the per-run timelines with MergeTraces.
type Tracer = trace.Tracer

// SweepOptions configures a RunSweep fan-out: worker count, base seed,
// per-run tracers and the optional accounting report.
type SweepOptions = runner.Options

// SweepContext is handed to each sweep job: its submission index, its
// derived seed and (when enabled) its private tracer.
type SweepContext = runner.Context

// SweepReport accumulates per-run wall clocks, seeds and tracers of a
// sweep in submission order, plus aggregate wall/CPU/speedup numbers.
type SweepReport = runner.Report

// RunSweep fans n independent scenario runs across a bounded worker
// pool. Results arrive in submission order and are identical for every
// worker count; each job must build its own engine/scenario from
// ctx.Seed (or its own fixed seed) and ctx.Tracer. The first error, by
// submission index, aborts the sweep.
//
// Migration note: loops of the form
//
//	for i := 0; i < n; i++ { results[i] = runOne(i) }
//
// become
//
//	results, err := vscale.RunSweep(vscale.SweepOptions{}, n,
//	    func(ctx vscale.SweepContext) (R, error) { return runOne(ctx) })
func RunSweep[T any](opts SweepOptions, n int, job func(ctx SweepContext) (T, error)) ([]T, error) {
	return runner.Run(opts, n, job)
}

// DeriveSeed derives the seed of run index from a base seed (splitmix64)
// — stable across worker counts and Go versions.
func DeriveSeed(base uint64, index int) uint64 {
	return runner.DeriveSeed(base, index)
}

// MergeTraces stitches per-run tracers into one export-only timeline:
// domain and pCPU ids are remapped, track names gain run0/, run1/, ...
// prefixes, and in-progress dwells are closed at each run's end.
func MergeTraces(parts ...*Tracer) *Tracer {
	return trace.Merge(parts...)
}
