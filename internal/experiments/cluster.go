package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"vscale/internal/cluster"
	"vscale/internal/report"
	"vscale/internal/runner"
	"vscale/internal/sim"
	"vscale/internal/telemetry"
	"vscale/internal/trace"
)

// ClusterResult is the cluster experiment's output: one fleet run per
// (host count, policy), every policy of a host count driven by the
// same churn trace.
type ClusterResult struct {
	HostCounts   []int
	PCPUsPerHost int
	Horizon      sim.Time
	SLO          sim.Time
	// Policies is the reporting order (the registry selection the runs
	// were made with).
	Policies []string
	// Fleets maps host count → one FleetResult per Policies entry.
	Fleets map[int][]cluster.FleetResult
}

// ClusterWarm configures the cluster experiment's warm-up and
// checkpoint behaviour (the CLI's -warm-epochs/-warmfork/-checkpoint/
// -restore flags). The zero value means no warm prefix and no files.
type ClusterWarm struct {
	// Epochs gives every fleet run a policy-neutral warm prefix of this
	// many epochs (see cluster.FleetConfig.WarmEpochs).
	Epochs int
	// Fork simulates the warm prefix once per host count and forks
	// every policy from the snapshot instead of re-simulating it per
	// policy. Results are bit-identical either way; only wall clock
	// changes. Requires Epochs > 0.
	Fork bool
	// CheckpointPath persists the warm-prefix snapshot
	// (vscale-checkpoint/v1) to this file. Requires Epochs > 0 and a
	// single host count.
	CheckpointPath string
	// RestorePath loads a previously written snapshot instead of
	// simulating the warm prefix, and forks every policy from it. The
	// snapshot must match the run's config and trace (the digest and
	// config are validated). Implies Fork; requires a single host count.
	RestorePath string
}

// validate rejects flag combinations the run cannot honour.
func (w ClusterWarm) validate(hostCounts []int, tracing bool) error {
	if w.Fork && w.Epochs <= 0 {
		return fmt.Errorf("cluster: -warmfork requires -warm-epochs > 0")
	}
	if w.CheckpointPath != "" && w.Epochs <= 0 {
		return fmt.Errorf("cluster: -checkpoint requires -warm-epochs > 0")
	}
	if (w.CheckpointPath != "" || w.RestorePath != "") && len(hostCounts) != 1 {
		return fmt.Errorf("cluster: -checkpoint/-restore need a single host count (got %d)", len(hostCounts))
	}
	if (w.Fork || w.RestorePath != "" || w.CheckpointPath != "") && tracing {
		return fmt.Errorf("cluster: tracing is not checkpointable; drop -trace/-schedstats")
	}
	return nil
}

// Cluster runs the multi-host churn experiment: for each host count, a
// churn trace is generated once (seeded from opts.BaseSeed and the
// host count) and replayed under every selected scaling policy, so the
// policies compete on identical VM lifecycles and the tail-latency and
// cost differences are attributable to scaling alone. policies names
// registry entries (cluster.PolicyNames order when empty). Fleets run
// one after another; each fleet fans its hosts across opts.Workers.
//
// sink (which may be nil) receives live per-epoch telemetry: each
// fleet gets its own collector labelled policy=<p>,hosts=<n>, appending
// JSONL records in fleet order from the control plane's goroutine, so
// the stream is byte-identical for any worker count.
//
// warm configures the policy-neutral warm prefix and the
// checkpoint/restore handoff; see ClusterWarm.
//
// elastic selects the fleet elasticity mode (cluster.ElasticityFor):
// with migrations or replica scaling on, the churn traces gain service
// groupings and dirty-page hints; the default "" keeps the historical
// traces and stdout byte-identical.
func Cluster(opts runner.Options, sink *telemetry.Sink, hostCounts []int, pcpus int, horizon, slo sim.Time, policies []string, lag int, elastic string, warm ClusterWarm) (ClusterResult, error) {
	if len(hostCounts) == 0 {
		return ClusterResult{}, fmt.Errorf("cluster: no host counts")
	}
	migCfg, rsCfg, err := cluster.ElasticityFor(elastic)
	if err != nil {
		return ClusterResult{}, err
	}
	if err := warm.validate(hostCounts, opts.Trace); err != nil {
		return ClusterResult{}, err
	}
	if len(policies) == 0 {
		policies = cluster.PolicyNames()
	}
	out := ClusterResult{
		HostCounts:   hostCounts,
		PCPUsPerHost: pcpus,
		Horizon:      horizon,
		SLO:          slo,
		Policies:     policies,
		Fleets:       map[int][]cluster.FleetResult{},
	}
	for _, hc := range hostCounts {
		// Churn scaled to the fleet: more hosts host more VMs. Rates are
		// chosen so the fleet runs hot enough that scaling decisions move
		// the latency tail.
		tcfg := cluster.DefaultTraceConfig(horizon)
		tcfg.InitialVMs = 2 * hc
		tcfg.ArrivalEvery = horizon / sim.Time(4*hc)
		tcfg.RateChoices = []float64{1000, 3000, 6000}
		if migCfg != nil || rsCfg != nil {
			tcfg.Services = []string{"web", "api", "db", "cache"}
			tcfg.DirtyBpsChoices = []float64{50e6, 200e6, 800e6}
		}
		traceSeed := runner.DeriveSeed(opts.BaseSeed, hc)
		events := cluster.GenTrace(tcfg, traceSeed)

		base := cluster.FleetConfig{
			Hosts:        hc,
			PCPUsPerHost: pcpus,
			Seed:         traceSeed,
			Horizon:      horizon,
			SLO:          slo,
			Workers:      opts.Workers,
			LagEpochs:    lag,
			WarmEpochs:   warm.Epochs,
			Report:       opts.Report,
			Migration:    migCfg,
			ReplicaSet:   rsCfg,
		}

		// The warm-fork handoff: one snapshot per host count — loaded
		// from disk, or simulated once — optionally persisted, then
		// forked into every policy's measured window.
		fork := warm.Fork || warm.RestorePath != ""
		var cp *cluster.FleetCheckpoint
		var err error
		switch {
		case warm.RestorePath != "":
			if cp, err = cluster.LoadCheckpoint(warm.RestorePath); err != nil {
				return out, fmt.Errorf("cluster: %d hosts: %w", hc, err)
			}
		case fork || warm.CheckpointPath != "":
			if cp, err = cluster.CaptureWarmPrefix(base, events); err != nil {
				return out, fmt.Errorf("cluster: %d hosts: %w", hc, err)
			}
		}
		if warm.CheckpointPath != "" && warm.RestorePath == "" {
			if err := cluster.SaveCheckpoint(warm.CheckpointPath, cp); err != nil {
				return out, fmt.Errorf("cluster: %d hosts: %w", hc, err)
			}
		}

		for _, policy := range policies {
			col := telemetry.NewCollector(sink, false,
				"policy", policy, "hosts", strconv.Itoa(hc))
			fcfg := base
			fcfg.Policy = policy
			fcfg.Telemetry = col
			if opts.Trace {
				fcfg.Tracers = make([]*trace.Tracer, hc)
				for i := range fcfg.Tracers {
					fcfg.Tracers[i] = trace.New(trace.Config{RingCapacity: opts.TraceCapacity})
				}
			}
			var res cluster.FleetResult
			if fork {
				res, err = cluster.RunFleetFork(fcfg, events, cp)
			} else {
				res, err = cluster.RunFleet(fcfg, events)
			}
			if err != nil {
				return out, fmt.Errorf("cluster: %d hosts, %s: %w", hc, policy, err)
			}
			if err := col.Err(); err != nil {
				return out, fmt.Errorf("cluster: %d hosts, %s: %w", hc, policy, err)
			}
			out.Fleets[hc] = append(out.Fleets[hc], res)
			if opts.Trace && opts.Report != nil {
				// Pre-merge each fleet's host timelines under
				// policy-and-host labels, and hand the combined tracer to
				// the report like any other run's.
				labels := make([]string, hc)
				for i := range labels {
					labels[i] = fmt.Sprintf("%dh-%s-host%d", hc, policy, i)
				}
				opts.Report.Tracers = append(opts.Report.Tracers,
					trace.MergeLabeled(labels, fcfg.Tracers...))
			}
		}
	}
	return out, nil
}

// paretoEfficient marks, per fleet, whether no other fleet of the same
// set both costs no more and attains no less (with one strict): the
// cost-vs-attainment frontier.
func paretoEfficient(fleets []cluster.FleetResult) []bool {
	eff := make([]bool, len(fleets))
	for i, f := range fleets {
		eff[i] = true
		for j, g := range fleets {
			if j == i {
				continue
			}
			if g.CostVCPUSeconds <= f.CostVCPUSeconds && g.Attainment >= f.Attainment &&
				(g.CostVCPUSeconds < f.CostVCPUSeconds || g.Attainment > f.Attainment) {
				eff[i] = false
				break
			}
		}
	}
	return eff
}

// Metrics flattens the per-fleet cost and attainment into benchmark
// keys ("<hosts>h/<policy>/cost_vcpu_seconds", ".../attainment") for
// BENCH_cluster.json.
func (r ClusterResult) Metrics() map[string]float64 {
	m := map[string]float64{}
	for _, hc := range r.HostCounts {
		for _, f := range r.Fleets[hc] {
			prefix := fmt.Sprintf("%dh/%s/", hc, f.Policy)
			m[prefix+"cost_vcpu_seconds"] = f.CostVCPUSeconds
			m[prefix+"attainment"] = f.Attainment
		}
	}
	return m
}

// Render produces one table per host count, the cost-vs-attainment
// frontier per host count, and the central-monitoring footnote.
func (r ClusterResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d pCPUs/host, %v churn horizon, SLO: reply within %v\n",
		r.PCPUsPerHost, r.Horizon, r.SLO)
	sb.WriteString("p50/p95/p99 are reply latencies in ms; SLO% counts requests answered\n")
	sb.WriteString("within the SLO over all offered requests — requests still in flight at\n")
	sb.WriteString("the end of the run count as misses, not exclusions (they are reported\n")
	sb.WriteString("in the frontier's in-flight column); reconfigs are per-VM scaling\n")
	sb.WriteString("actions; cost is provisioned vCPU-seconds (active vCPUs integrated\n")
	sb.WriteString("over each VM's lifetime within the horizon).\n")
	for _, hc := range r.HostCounts {
		fleets := r.Fleets[hc]
		tbl := report.NewTable(fmt.Sprintf("Cluster: %d host(s)", hc),
			"policy", "VMs", "offered", "replies", "p50", "p95", "p99", "SLO%", "errors", "reconfigs", "util%", "cost")
		for _, f := range fleets {
			tbl.AddRow(
				f.Policy,
				fmt.Sprintf("%d", f.Placed),
				fmt.Sprintf("%d", f.Load.Offered),
				fmt.Sprintf("%d", f.Load.Replies),
				fmt.Sprintf("%.2f", f.Hist.Quantile(0.5)),
				fmt.Sprintf("%.2f", f.Hist.Quantile(0.95)),
				fmt.Sprintf("%.2f", f.Hist.Quantile(0.99)),
				fmt.Sprintf("%.1f", 100*f.Attainment),
				fmt.Sprintf("%d", f.Load.Errors),
				fmt.Sprintf("%d", f.Reconfigs),
				fmt.Sprintf("%.1f", 100*f.AvgHostUtil),
				fmt.Sprintf("%.1f", f.CostVCPUSeconds),
			)
		}
		sb.WriteString("\n")
		sb.WriteString(tbl.String())

		// The frontier: which policies buy their attainment efficiently.
		eff := paretoEfficient(fleets)
		ftbl := report.NewTable(fmt.Sprintf("Cost-vs-attainment frontier: %d host(s)", hc),
			"policy", "cost vCPU·s", "SLO%", "in-flight", "frontier")
		for i, f := range fleets {
			mark := ""
			if eff[i] {
				mark = "*"
			}
			ftbl.AddRow(
				f.Policy,
				fmt.Sprintf("%.1f", f.CostVCPUSeconds),
				fmt.Sprintf("%.1f", 100*f.Attainment),
				fmt.Sprintf("%d", f.Load.InFlight),
				mark,
			)
		}
		sb.WriteString("\n")
		sb.WriteString(ftbl.String())
		sb.WriteString("* = Pareto-efficient: no policy costs less and attains at least as much.\n")
		if len(fleets) > 0 {
			// The same fleet shape under every policy: quote the central
			// sweep once per host count.
			fmt.Fprintf(&sb, "central dom0 monitoring pass over this fleet: %v per period (Figure 4 model)\n",
				fleets[len(fleets)-1].CentralSweep)
		}
	}
	return sb.String()
}
