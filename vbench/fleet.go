package main

import (
	"fmt"
	"runtime"
	"time"

	"vscale/internal/cluster"
	"vscale/internal/loadgen"
	"vscale/internal/metrics"
	"vscale/internal/runner"
	"vscale/internal/sim"
)

// fleetSLO is the per-request objective of both fleet workloads (the
// cluster experiments' value).
const fleetSLO = 50 * sim.Millisecond

// fleetPCPUs sizes every fleet host's pool.
const fleetPCPUs = 4

// minSetupBatch is the least wall time one set-up sample covers: a
// set-up shorter than this (fleet-vscale's trace generation) is
// repeated and timed as a batch, so the sample is not dominated by
// timer and cache noise.
const minSetupBatch = 50 * time.Millisecond

// timeSetup runs fn until it has covered minSetupBatch and returns the
// last call's result, the wall time per call, and the time spent in the
// repeat calls, which a user's run would not make.
func timeSetup[T any](fn func() T) (v T, per, extra time.Duration) {
	t0 := time.Now()
	n := 0
	for n == 0 || time.Since(t0) < minSetupBatch {
		v = fn()
		n++
	}
	total := time.Since(t0)
	per = total / time.Duration(n)
	return v, per, total - per
}

// traceSeed generates the fleet workloads' churn traces. The trace is
// part of a workload's definition, like paper-sync's app list: every
// run sees the same VM population, and --seed drives the simulation's
// own random streams (request arrivals, guest and hypervisor timing).
const traceSeed = 1

// churnTrace is the cluster experiment's trace shape scaled to hosts:
// two VMs per host at start plus steady arrivals, hot enough that
// scaling decisions move the latency tail.
func churnTrace(hosts int, horizon sim.Time, services bool) []cluster.Event {
	tcfg := cluster.DefaultTraceConfig(horizon)
	tcfg.InitialVMs = 2 * hosts
	tcfg.ArrivalEvery = horizon / sim.Time(4*hosts)
	tcfg.RateChoices = []float64{1000, 3000, 6000}
	if services {
		// The bake-off's service-annotated mix: eight services and a
		// hot tier that outgrows one host's fair share.
		tcfg.RateChoices = []float64{500, 1500, 6000}
		tcfg.Services = []string{"web", "api", "db", "cache", "auth", "queue", "blob", "edge"}
		tcfg.DirtyBpsChoices = []float64{50e6, 200e6, 800e6}
	}
	return cluster.GenTrace(tcfg, traceSeed)
}

// staticCost is the vCPU-seconds a static policy provisions for the
// trace: every VM's full vCPU count from arrival to departure or the
// horizon.
func staticCost(events []cluster.Event, horizon sim.Time) float64 {
	end := map[string]sim.Time{}
	for _, ev := range events {
		if ev.Kind == cluster.EventDepart {
			end[ev.VM] = ev.At
		}
	}
	var total float64
	for _, ev := range events {
		if ev.Kind != cluster.EventArrive {
			continue
		}
		until, ok := end[ev.VM]
		if !ok {
			until = horizon
		}
		total += float64(ev.VCPUs) * (until - ev.At).Seconds()
	}
	return total
}

// checkLoad verifies a fleet's request accounting.
func (o *outcome) checkLoad(what string, st loadgen.Stats) {
	if st.Offered != st.Replies+st.Errors+st.InFlight || st.SLOOk > st.Replies {
		o.fail("%s: loadgen accounting broken: %+v", what, st)
	}
	if st.Offered == 0 {
		o.fail("%s: no requests offered", what)
	}
}

// fleetDigest appends a fleet result's simulated outputs.
func (o *outcome) fleetDigest(name string, r cluster.FleetResult) {
	fmt.Fprintf(&o.digest, "%s placed=%d departed=%d phases=%d load=%+v p50=%s p99=%s att=%s reconfigs=%d cost=%s util=%s sweep=%d migs=%d/%d down=%d mbytes=%d replicas=%d/%d/%d\n",
		name, r.Placed, r.Departed, r.PhaseChanges, r.Load,
		fmtFloat(r.Hist.Quantile(0.5)), fmtFloat(r.Hist.Quantile(0.99)), fmtFloat(r.Attainment),
		r.Reconfigs, fmtFloat(r.CostVCPUSeconds), fmtFloat(r.AvgHostUtil), r.CentralSweep,
		r.Migrations, r.MigrationsAborted, r.MigrationDowntime, r.MigrationBytes,
		r.ReplicasCreated, r.ReplicasRetired, r.ReplicaFailures)
}

// runnerMetrics adds the executor's fan-out accounting for requests
// served by the measured fleet runs.
func (o *outcome) runnerMetrics(rep *runner.Report, workers int, requests float64) {
	busy := rep.CPU()
	o.layer["runner.host_busy_s"] = busy.Seconds()
	o.layer["runner.busy_max_over_mean"] = ratio(float64(rep.JobWallMax()), float64(rep.JobWallMean()))
	o.layer["runner.utilisation"] = ratio(float64(busy), float64(rep.Wall)*float64(workers))
	o.layer["cluster.host_ns_per_request"] = ratio(float64(busy), requests)
}

// fleetCounters adds a fleet result's model counters.
func (o *outcome) fleetCounters(r cluster.FleetResult) {
	o.layer["cluster.reconfigs"] += float64(r.Reconfigs)
	o.layer["migration.count"] += float64(r.Migrations)
	o.layer["migration.bytes"] += float64(r.MigrationBytes)
	o.layer["replicaset.created"] += float64(r.ReplicasCreated)
	o.layer["replicaset.failures"] += float64(r.ReplicaFailures)
	o.requests += float64(r.Load.Offered)
}

// fleetVScale runs one fleet under the vscale policy over a churn
// trace on the bounded-lag executor, one worker per CPU: no warm
// prefix, no elasticity, no checkpoints.
func fleetVScale(seed uint64, sz size, _ *layerClock, _ *calib) outcome {
	o := newOutcome()
	o.ops++
	events, gen, extra := timeSetup(func() []cluster.Event {
		return churnTrace(sz.fleetHosts, sz.fleetHorizon, false)
	})
	o.setup, o.harness = gen, extra
	o.layer["cluster.trace_gen_s"] = gen.Seconds()

	workers := runtime.GOMAXPROCS(0)
	rep := &runner.Report{}
	off := false
	t0 := time.Now()
	r, err := cluster.RunFleet(cluster.FleetConfig{
		Hosts:            sz.fleetHosts,
		PCPUsPerHost:     fleetPCPUs,
		Policy:           "vscale",
		Seed:             seed,
		Horizon:          sz.fleetHorizon,
		SLO:              fleetSLO,
		Workers:          workers,
		RecordPlacements: &off,
		Report:           rep,
	}, events)
	o.layer["cluster.run_s"] = time.Since(t0).Seconds()
	if err != nil {
		o.fail("RunFleet: %v", err)
		return o
	}
	o.checkLoad("fleet", r.Load)
	o.fleetDigest("fleet", r)
	o.fleetCounters(r)
	o.runnerMetrics(rep, workers, float64(r.Load.Offered))
	o.layer["cluster.error_ratio"] = ratio(float64(r.Load.Errors), float64(r.Load.Offered))
	o.layer["cluster.host_util"] = r.AvgHostUtil

	o.sim["sim_normexec"] = ratio(r.CostVCPUSeconds, staticCost(events, sz.fleetHorizon))
	o.sim["sim_peak_reply_krps"] = float64(r.Load.Replies) / sz.fleetHorizon.Seconds() / 1000
	o.sim["sim_reply_p99_ms"] = r.Hist.Quantile(0.99)
	o.sim["sim_slo_attainment"] = r.Attainment
	o.sim["sim_cost_vcpu_s"] = r.CostVCPUSeconds
	return o
}

// forkArm is one bake-off contestant: a scaling policy with an
// elasticity mode.
type forkArm struct {
	name, policy, elastic string
}

var forkArms = []forkArm{
	{"vertical", "vscale", "none"},
	{"horizontal", "static", "hybrid"},
	{"hybrid", "vscale", "hybrid"},
}

// forkElastic is the bake-off shape: capture one warm prefix, encode
// and decode it, then fork the vertical, horizontal and hybrid arms
// from the decoded snapshot.
func forkElastic(seed uint64, sz size, _ *layerClock, cal *calib) outcome {
	o := newOutcome()
	workers := runtime.GOMAXPROCS(0)
	base := cluster.FleetConfig{
		Hosts:        sz.forkHosts,
		PCPUsPerHost: fleetPCPUs,
		Seed:         seed,
		Horizon:      sz.forkHorizon,
		SLO:          fleetSLO,
		Workers:      workers,
		WarmEpochs:   sz.forkWarm,
	}

	// Set-up: trace, warm prefix, encoded snapshot.
	o.ops++
	t0 := time.Now()
	events := churnTrace(sz.forkHosts, sz.forkHorizon, true)
	t1 := time.Now()
	// The capture builds the hybrid layer so one snapshot forks every
	// arm; warm captures carry no elasticity-mode signature.
	capCfg := base
	mig, rs, err := cluster.ElasticityFor("hybrid")
	if err != nil {
		o.fail("ElasticityFor: %v", err)
		return o
	}
	capCfg.Migration, capCfg.ReplicaSet = mig, rs
	cp, err := cluster.CaptureWarmPrefix(capCfg, events)
	if err != nil {
		o.setup = time.Since(t0)
		o.fail("CaptureWarmPrefix: %v", err)
		return o
	}
	t2 := time.Now()
	data, err := cp.Encode()
	t3 := time.Now()
	o.setup = t3.Sub(t0)
	o.layer["cluster.trace_gen_s"] = t1.Sub(t0).Seconds()
	o.layer["cluster.warm_capture_s"] = t2.Sub(t1).Seconds()
	o.layer["checkpoint.encode_s"] = t3.Sub(t2).Seconds()
	if err != nil {
		o.fail("Encode: %v", err)
		return o
	}
	o.layer["checkpoint.bytes"] = float64(len(data))
	fmt.Fprintf(&o.digest, "checkpoint %s %d\n", cp.Digest, len(data))

	o.ops++
	o.harness += cal.probe()
	t0 = time.Now()
	fork, err := cluster.DecodeCheckpoint(data)
	o.layer["checkpoint.decode_s"] = time.Since(t0).Seconds()
	if err != nil {
		o.fail("checkpoint failed verification: %v", err)
		return o
	}

	rep := &runner.Report{}
	var results []cluster.FleetResult
	var run time.Duration
	for _, arm := range forkArms {
		o.ops++
		o.harness += cal.probe()
		cfg := base
		cfg.Policy = arm.policy
		cfg.Report = rep
		cfg.Migration, cfg.ReplicaSet, err = cluster.ElasticityFor(arm.elastic)
		if err != nil {
			o.fail("%s: %v", arm.name, err)
			return o
		}
		t0 := time.Now()
		r, err := cluster.RunFleetFork(cfg, events, fork)
		run += time.Since(t0)
		if err != nil {
			o.fail("%s: RunFleetFork: %v", arm.name, err)
			return o
		}
		o.checkLoad(arm.name, r.Load)
		if arm.elastic != "none" && r.Migrations == 0 {
			o.fail("%s: elastic arm made no migrations", arm.name)
		}
		o.fleetDigest(arm.name, r)
		o.fleetCounters(r)
		results = append(results, r)
	}
	o.layer["cluster.run_s"] = run.Seconds()
	o.layer["cluster.fork_s"] = run.Seconds() / float64(len(forkArms))
	o.runnerMetrics(rep, workers, o.requests)

	hist := metrics.NewHistogram(metrics.DefaultLatencyBuckets())
	var load loadgen.Stats
	var util, peak, cost float64
	for _, r := range results {
		if err := hist.Merge(r.Hist); err != nil {
			o.fail("merging latency histograms: %v", err)
		}
		load.Add(r.Load)
		util += r.AvgHostUtil
		cost += r.CostVCPUSeconds
		peak = max(peak, float64(r.Load.Replies)/sz.forkHorizon.Seconds()/1000)
	}
	o.layer["cluster.error_ratio"] = ratio(float64(load.Errors), float64(load.Offered))
	o.layer["cluster.host_util"] = util / float64(len(results))

	horizontal, hybrid := results[1], results[2]
	o.sim["sim_normexec"] = ratio(hybrid.CostVCPUSeconds, horizontal.CostVCPUSeconds)
	o.sim["sim_peak_reply_krps"] = peak
	o.sim["sim_reply_p99_ms"] = hist.Quantile(0.99)
	o.sim["sim_slo_attainment"] = load.Attainment()
	o.sim["sim_cost_vcpu_s"] = cost
	return o
}
