package cluster

import (
	"fmt"

	"vscale/internal/dom0"
	"vscale/internal/loadgen"
	"vscale/internal/metrics"
	"vscale/internal/runner"
	"vscale/internal/sim"
	"vscale/internal/telemetry"
	"vscale/internal/trace"
)

// DefaultLagEpochs is the placement-staleness and run-ahead bound used
// when FleetConfig.LagEpochs is 0.
const DefaultLagEpochs = 4

// DefaultEpoch is the control-plane period used when FleetConfig.Epoch
// is 0: placement decisions, telemetry snapshots and policy passes
// happen every DefaultEpoch of virtual time.
const DefaultEpoch = 500 * sim.Millisecond

// FleetConfig parameterises one fleet run (one policy over one churn
// trace).
type FleetConfig struct {
	// Hosts is the number of independent hosts.
	Hosts int
	// PCPUsPerHost sizes each host's domU pool.
	PCPUsPerHost int
	// Policy names the fleet-wide VM scaling policy; RunFleet
	// instantiates one fresh instance per host from the registry (see
	// RegisterPolicy), so stateful controllers never leak state across
	// runs — and never share state across hosts, which is what lets each
	// host run its policy pass on its own timeline. Controllers key
	// their memory per VM name, and a VM lives on one host at a time: a
	// live-migrated VM (see Migration) starts with fresh controller
	// state on its destination host, so per-host instances are the
	// model, not an approximation of a shared one.
	Policy string
	// Seed derives every host's engine seed (runner.DeriveSeed per host
	// index), so fleets with the same seed are reproducible regardless
	// of worker count.
	Seed uint64
	// Horizon is the churn window; the fleet then drains for Drain.
	Horizon sim.Time
	// Epoch is the control-plane period: placement decisions and
	// telemetry snapshots happen at epoch boundaries (default 500 ms).
	Epoch sim.Time
	// Drain is how long after the horizon in-flight requests may finish
	// (default 2 s).
	Drain sim.Time
	// SLO is the per-request latency objective.
	SLO sim.Time
	// Workers sizes the bounded-lag executor's persistent runner.Pool
	// (0 = GOMAXPROCS). Results are byte-identical at every worker
	// count; only wall-clock behaviour differs.
	Workers int
	// LagEpochs bounds both placement staleness and host run-ahead
	// (0 = DefaultLagEpochs):
	//
	//   - An arrival in epoch k is placed with the fleet snapshot
	//     published at boundary max(0, k-LagEpochs), corrected with
	//     deterministic probes for VMs placed since, so placement is a
	//     pure function of the trace and the bound, never of
	//     scheduling.
	//   - No host may run more than LagEpochs epochs ahead of the
	//     slowest host.
	LagEpochs int
	// RecordPlacements controls FleetResult.Placements accumulation.
	// nil defaults to recording (existing callers read placements);
	// point it at false for scale runs where the unbounded per-VM slice
	// is dead weight.
	RecordPlacements *bool
	// Tracers, when non-nil, holds one tracer per host (index-aligned);
	// host i's scheduling events are recorded into Tracers[i].
	Tracers []*trace.Tracer
	// Report, when non-nil, accumulates the host fan-out accounting:
	// every host is one runner job whose wall clock sums the executor
	// chunks that advanced it.
	Report *runner.Report
	// Telemetry, when non-nil, receives one collection epoch per
	// control-plane epoch (and one final epoch after the drain): the
	// collector samples every host, VM and load generator while the
	// engines are parked at the boundary, then publishes the scrape
	// snapshot and the JSONL record. The collection epoch is a genuine
	// cross-host sync point, so bounded-lag degrades to epoch pacing
	// while a collector is attached. Purely observational: the run's
	// results are byte-identical with or without it.
	Telemetry *telemetry.Collector
	// WarmEpochs, when > 0, marks epochs [0, WarmEpochs) as a policy-
	// neutral warm-up prefix: hosts are built with their mechanisms
	// disarmed, no telemetry is collected and no policy pass runs until
	// the fleet arms at boundary WarmEpochs. Over the last warm epoch
	// every load generator pauses (the quiesce barrier) so the fleet is
	// drained — and checkpointable — at the warm boundary; the generators
	// resume as the mechanisms arm and the measured window begins. The
	// prefix is identical for every policy, which is what
	// CaptureWarmPrefix / RunFleetFork exploit: simulate it once per
	// (trace, seed), fork every policy variant from the snapshot
	// (docs/checkpoint.md).
	WarmEpochs int
	// CheckpointEpoch, when > 0, quiesces the fleet over epoch
	// CheckpointEpoch-1, captures it at that boundary, resumes the load
	// and continues. Must lie strictly between WarmEpochs and the number
	// of churn epochs; incompatible with Tracers (not checkpointable).
	CheckpointEpoch int
	// CheckpointPath is where the CheckpointEpoch capture is written. An
	// empty path runs the identical quiesce barrier without writing a
	// file — the reference arm of the restore-identity tests.
	CheckpointPath string
	// Migration, when non-nil, enables the live-migration rebalance
	// pass: a control-plane sweep at post-warm epoch boundaries that
	// starts pre-copy migrations from the most committed host and
	// commits each stop-and-copy cutover at the first boundary past its
	// modeled copy duration (docs/cluster.md, "Live migration model").
	// Elasticity passes are global boundary work, so the executor
	// degrades to epoch pacing while either field is set — results stay
	// byte-identical across worker counts.
	Migration *MigrationConfig
	// ReplicaSet, when non-nil, enables ReplicaSet-style horizontal
	// autoscaling: trace VMs carrying service= anchor a service; a
	// controller scales VM replicas per service against windowed SLO
	// attainment, with readiness gating and ReplicaFailure conditions
	// (docs/cluster.md, "Horizontal autoscaling").
	ReplicaSet *ReplicaSetConfig
}

// lag resolves the effective staleness/run-ahead bound.
func (cfg *FleetConfig) lag() int {
	if cfg.LagEpochs == 0 {
		return DefaultLagEpochs
	}
	return cfg.LagEpochs
}

// recordPlacements resolves the RecordPlacements default (on).
func (cfg *FleetConfig) recordPlacements() bool {
	return cfg.RecordPlacements == nil || *cfg.RecordPlacements
}

// Placement records where one VM was admitted.
type Placement struct {
	VM   string
	Host int
}

// FleetResult aggregates one fleet run.
type FleetResult struct {
	Policy string
	Hosts  int

	// Placed/Departed/PhaseChanges count processed churn events.
	Placed, Departed, PhaseChanges int
	// Placements lists every admission in trace order (nil when
	// FleetConfig.RecordPlacements points at false).
	Placements []Placement

	// Load holds the summed per-VM load-generator accounting.
	Load loadgen.Stats
	// Hist is the merged reply-latency histogram (milliseconds).
	Hist *metrics.Histogram
	// Attainment is the fleet-wide SLO attainment over offered requests.
	Attainment float64

	// Reconfigs counts scaling actions: freeze/unfreeze (or hotplug)
	// operations taken by the per-VM daemons plus those applied by the
	// control plane's policy.
	Reconfigs uint64
	// CostVCPUSeconds is the provisioned cost of the run: the integral
	// of every VM's active (unfrozen) vCPU count over its lifetime
	// within the churn horizon, in vCPU-seconds. Together with
	// Attainment it places the policy on the cost-vs-attainment
	// frontier. In-flight requests at the end of the run count against
	// Attainment (see loadgen.Stats) but never add cost: a retired VM's
	// meter stops at departure even while its stragglers drain.
	CostVCPUSeconds float64
	// AvgHostUtil is the mean pCPU busy fraction across hosts.
	AvgHostUtil float64
	// CentralSweep is what one end-of-run central monitoring pass over
	// the whole fleet would cost through dom0 (Figure 4 cost model,
	// summed over hosts) — the price VCPU-Bal pays per period and
	// vScale's per-VM channels avoid.
	CentralSweep sim.Time

	// Elasticity accounting (zero unless FleetConfig.Migration /
	// ReplicaSet enable the layer). Migrations counts committed
	// stop-and-copy cutovers; MigrationsAborted ones whose VM vanished
	// before cutover; MigrationDowntime and MigrationBytes sum the
	// modeled per-migration downtime and pre-copy traffic.
	Migrations        int
	MigrationsAborted int
	MigrationDowntime sim.Time
	MigrationBytes    int64
	// ReplicasCreated/ReplicasRetired count horizontal scaling actions;
	// ReplicaFailures counts scale-outs refused by the commit cap
	// (ReplicaFailure conditions).
	ReplicasCreated int
	ReplicasRetired int
	ReplicaFailures int
}

// RunFleet drives one fleet through a churn trace. Churn events are
// routed to hosts in trace order; arrivals are placed with Algorithm 1
// over bounded-staleness fleet snapshots (see FleetConfig.LagEpochs);
// each host runs its own per-epoch policy pass at its boundaries. The
// hosts advance on the bounded-lag asynchronous pool (runBoundedLag).
// Aggregation walks hosts and VMs in deterministic admission order, so
// the result is identical for any worker count.
func RunFleet(cfg FleetConfig, events []Event) (FleetResult, error) {
	plan, err := prepareFleet(&cfg, events)
	if err != nil {
		return FleetResult{}, err
	}
	pols, hosts, err := buildFleetHosts(&cfg)
	if err != nil {
		return FleetResult{}, err
	}

	res := FleetResult{Policy: cfg.Policy, Hosts: cfg.Hosts}
	rt := newFleetRouter(&cfg, plan, &res)
	if rt.el != nil {
		rt.el.attachHosts(hosts)
	}

	if _, err := runBoundedLag(&cfg, plan, hosts, pols, rt, &res, 0, 0, nil); err != nil {
		return res, err
	}
	if err := aggregate(&cfg, hosts, &res); err != nil {
		return res, err
	}
	return res, nil
}

// prepareFleet validates a fleet configuration in place (applying the
// Epoch/Drain defaults) and builds the epoch plan — the shared front
// half of RunFleet, CaptureWarmPrefix and RunFleetFork.
func prepareFleet(cfg *FleetConfig, events []Event) (*epochPlan, error) {
	if cfg.Hosts <= 0 || cfg.PCPUsPerHost <= 0 {
		return nil, fmt.Errorf("cluster: need positive Hosts and PCPUsPerHost")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("cluster: need a positive Horizon")
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = DefaultEpoch
	}
	if cfg.Drain <= 0 {
		cfg.Drain = 2 * sim.Second
	}
	if cfg.LagEpochs < 0 {
		return nil, fmt.Errorf("cluster: negative LagEpochs %d", cfg.LagEpochs)
	}
	if cfg.Tracers != nil && len(cfg.Tracers) != cfg.Hosts {
		return nil, fmt.Errorf("cluster: %d tracers for %d hosts", len(cfg.Tracers), cfg.Hosts)
	}
	plan, err := planEpochs(cfg, events)
	if err != nil {
		return nil, err
	}
	if cfg.WarmEpochs < 0 || cfg.WarmEpochs >= plan.epochs() {
		return nil, fmt.Errorf("cluster: WarmEpochs %d outside [0, %d)", cfg.WarmEpochs, plan.epochs())
	}
	if cfg.Migration != nil {
		if err := cfg.Migration.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.ReplicaSet != nil {
		if err := cfg.ReplicaSet.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.CheckpointEpoch != 0 {
		if cfg.CheckpointEpoch <= cfg.WarmEpochs || cfg.CheckpointEpoch >= plan.epochs() {
			return nil, fmt.Errorf("cluster: CheckpointEpoch %d outside (%d, %d)",
				cfg.CheckpointEpoch, cfg.WarmEpochs, plan.epochs())
		}
		if cfg.Tracers != nil {
			return nil, fmt.Errorf("cluster: tracers are not checkpointable")
		}
	}
	return plan, nil
}

// buildFleetHosts constructs the fleet's hosts and policy instances:
// one fresh policy instance per host (see FleetConfig.Policy), which
// lets every host run its policy pass on its own timeline. Hosts start
// disarmed when a warm prefix is configured; Arm fires at its boundary.
func buildFleetHosts(cfg *FleetConfig) ([]ScalingPolicy, []*Host, error) {
	pols := make([]ScalingPolicy, cfg.Hosts)
	hosts := make([]*Host, cfg.Hosts)
	for i := range hosts {
		pol, err := NewPolicy(cfg.Policy)
		if err != nil {
			return nil, nil, err
		}
		pols[i] = pol
		var tr *trace.Tracer
		if cfg.Tracers != nil {
			tr = cfg.Tracers[i]
		}
		h, err := NewHost(i, HostConfig{
			PCPUs:    cfg.PCPUsPerHost,
			Seed:     runner.DeriveSeed(cfg.Seed, i),
			Policy:   pol,
			SLO:      cfg.SLO,
			Tracer:   tr,
			Disarmed: cfg.WarmEpochs > 0,
		})
		if err != nil {
			return nil, nil, err
		}
		hosts[i] = h
	}
	return pols, hosts, nil
}

// telemetryFrom returns the first boundary with a collection epoch:
// boundary 1 normally, the warm boundary when a warm prefix defers
// collection past the policy-neutral epochs.
func telemetryFrom(cfg *FleetConfig) int {
	if cfg.WarmEpochs > 1 {
		return cfg.WarmEpochs
	}
	return 1
}

// quiesceBefore reports whether epoch k must run with the quiesce
// barrier armed at its start, so the fleet is drained at boundary k+1 —
// true for the epoch preceding the warm boundary and the one preceding
// the checkpoint boundary.
func quiesceBefore(cfg *FleetConfig, k int) bool {
	return (cfg.WarmEpochs > 0 && k == cfg.WarmEpochs-1) ||
		(cfg.CheckpointEpoch > 0 && k == cfg.CheckpointEpoch-1)
}

// aggregate folds the finished hosts into the result: a fixed walk in
// host order, then VM admission order, independent of scheduling
// interleavings. The merge target histogram is allocated once and each
// VM's stats pass through one scratch value.
func aggregate(cfg *FleetConfig, hosts []*Host, res *FleetResult) error {
	res.Hist = metrics.NewHistogram(metrics.DefaultLatencyBuckets())
	var util float64
	var scratch loadgen.Stats
	vmsPerHost := make([]int, len(hosts))
	for i, h := range hosts {
		util += h.Util()
		vmsPerHost[i] = len(h.order)
		res.CostVCPUSeconds += h.ProvisionedVCPUSeconds()
		for _, name := range h.order {
			vm := h.vms[name]
			scratch = vm.gen.Stats()
			res.Load.Add(scratch)
			if err := res.Hist.Merge(vm.gen.Hist()); err != nil {
				return err
			}
			_, decisions := vm.k.DaemonStats()
			res.Reconfigs += decisions + vm.policyOps
		}
	}
	res.Attainment = res.Load.Attainment()
	res.AvgHostUtil = util / float64(len(hosts))

	// Price a central VCPU-Bal-style monitoring pass over this fleet,
	// using a seed-stable dom0 sampler so the figure does not depend on
	// per-host RNG positions.
	d0 := dom0.New(dom0.DefaultConfig(), sim.NewRand(cfg.Seed^0x2545f491))
	for _, lat := range d0.FleetSweep(vmsPerHost, dom0.Idle) {
		res.CentralSweep += lat
	}
	return nil
}
