package main

import (
	"fmt"
	"math"
	"time"

	"vscale/internal/guest"
	"vscale/internal/loadgen"
	"vscale/internal/metrics"
	"vscale/internal/runner"
	"vscale/internal/scenario"
	"vscale/internal/sim"
	"vscale/internal/workload"
	"vscale/internal/workload/httpd"
	"vscale/internal/workload/npb"
	"vscale/internal/workload/parsec"
)

// appDeadline bounds one paper-sync cell; a cell that hits it failed.
const appDeadline = 600 * sim.Second

// ipiObjective is the wake-up delivery objective of paper-sync's
// attainment: a reschedule IPI delivered within 1 ms reached a running
// vCPU without waiting out a hypervisor time slice.
const ipiObjective = 1.0 // ms

// webKneeK is Figure 14's knee in K requests/s. web-host scores SLO
// attainment only at rates up to the knee: past it the backlog grows
// and attainment swings with every arrival pattern.
const webKneeK = 5

// ipiBuckets resolve reschedule-IPI delivery delays (milliseconds)
// from a microsecond up to several seconds.
var ipiBuckets = metrics.ExpBuckets(0.001, 1.15, 110)

// webSLO is web-host's per-request latency objective (the vscalesim
// default).
const webSLO = 50 * sim.Millisecond

// syncGroup is one (suite, app, spin count) row of the paper sweep; its
// four modes share one seed so vScale and Baseline see the same inputs.
type syncGroup struct {
	suite, app string
	spin       uint64
}

func paperSyncGroups(sz size) []syncGroup {
	var gs []syncGroup
	for _, app := range sz.npbApps {
		for _, spin := range sz.spins {
			gs = append(gs, syncGroup{"npb", app, spin})
		}
	}
	for _, app := range sz.parsecApps {
		gs = append(gs, syncGroup{"parsec", app, 300_000})
	}
	return gs
}

func (g syncGroup) launcher() (func(k *guest.Kernel) *workload.App, error) {
	budget := guest.SpinBudgetFromCount(g.spin)
	if g.suite == "npb" {
		p, err := npb.ProfileFor(g.app)
		if err != nil {
			return nil, err
		}
		return func(k *guest.Kernel) *workload.App { return npb.Launch(k, p, k.NCPUs(), budget) }, nil
	}
	p, err := parsec.ProfileFor(g.app)
	if err != nil {
		return nil, err
	}
	return func(k *guest.Kernel) *workload.App { return parsec.Launch(k, p, k.NCPUs(), budget) }, nil
}

// engineCounts adds an engine's drop accounting to the outcome.
func (o *outcome) engineCounts(eng *sim.Engine) {
	o.layer["sim.events"] += float64(eng.Processed)
	o.layer["sim.scheduled"] += float64(eng.Scheduled)
	o.layer["sim.cancelled"] += float64(eng.Cancelled)
}

// paperSync runs the paper's NPB and PARSEC sweeps serially: every app
// under all four modes (and every spin count for NPB) on one 8-pCPU
// host, each cell run to completion.
func paperSync(seed uint64, sz size, lc *layerClock, cal *calib) outcome {
	o := newOutcome()
	waited := metrics.NewHistogram(ipiBuckets) // IPIs whose target vCPU was descheduled
	var ipis, onTime int
	var logRatio, activeSum, ipiRateSum, waitNs, vcpuNs, vsSecs, cost float64
	var vsCells, cells int
	var decisions uint64
	groups := paperSyncGroups(sz)
	for gi, g := range groups {
		o.harness += cal.probe()
		launch, err := g.launcher()
		if err != nil {
			o.fail("%s/%s: %v", g.suite, g.app, err)
			continue
		}
		gseed := runner.DeriveSeed(seed, gi)
		var exec [4]sim.Time
		for _, mode := range scenario.Modes() {
			o.ops++
			s := scenario.DefaultSetup()
			s.Mode = mode
			s.Seed = gseed
			t0 := time.Now()
			b := scenario.Build(s)
			o.setup += time.Since(t0)
			if lc != nil {
				b.Eng.SetObserver(lc.observe)
			}
			res, err := b.RunApp(launch, appDeadline)
			lc.pause()
			if err != nil {
				o.fail("%s/%s %v spin=%d: %v", g.suite, g.app, mode, g.spin, err)
				continue
			}
			if res.TimedOut {
				o.fail("%s/%s %v spin=%d: timed out", g.suite, g.app, mode, g.spin)
			}
			o.engineCounts(b.Eng)
			exec[mode] = res.ExecTime
			cells++
			ipiRateSum += res.IPIsPerVCPUSec
			waitNs += float64(res.WaitTime)
			vcpuNs += float64(res.ExecTime) * float64(s.VMVCPUs)
			_, d := b.K.DaemonStats()
			decisions += d
			fmt.Fprintf(&o.digest, "%s/%s %d %d exec=%d wait=%d ipi=%s active=%s\n",
				g.suite, g.app, g.spin, mode, res.ExecTime, res.WaitTime,
				fmtFloat(res.IPIsPerVCPUSec), fmtFloat(res.AvgActiveVCPUs))
			if mode != scenario.VScale {
				continue
			}
			vsCells++
			activeSum += res.AvgActiveVCPUs
			cost += b.K.ActiveVCPUSeconds()
			delays := b.VM.IPIDelay.Values()
			for _, us := range delays {
				if us > 0 {
					waited.Observe(us / 1000)
				}
				if us/1000 <= ipiObjective {
					onTime++
				}
			}
			ipis += len(delays)
			vsSecs += res.ExecTime.Seconds()
		}
		if exec[scenario.Baseline] > 0 && exec[scenario.VScale] > 0 {
			logRatio += math.Log(float64(exec[scenario.VScale]) / float64(exec[scenario.Baseline]))
		}
	}
	if len(groups) > 0 {
		o.sim["sim_normexec"] = math.Exp(logRatio / float64(len(groups)))
	}
	o.sim["sim_peak_reply_krps"] = ratio(float64(ipis), vsSecs) / 1000
	o.sim["sim_reply_p99_ms"] = waited.Quantile(0.99)
	o.sim["sim_slo_attainment"] = ratio(float64(onTime), float64(ipis))
	o.sim["sim_cost_vcpu_s"] = cost
	o.layer["guest.avg_active_vcpus"] = ratio(activeSum, float64(vsCells))
	o.layer["guest.resched_ipis_per_vcpu_s"] = ratio(ipiRateSum, float64(cells))
	o.layer["guest.daemon_decisions"] = float64(decisions)
	o.layer["xen.vm_wait_frac"] = ratio(waitNs, vcpuNs)
	return o
}

// webCell is one warmed Figure 14 host: an httpd VM with a paused
// open-loop generator, parked at the end of the warm-up.
type webCell struct {
	b    *scenario.Built
	srv  *httpd.Server
	gen  *loadgen.Generator
	rate float64 // offered requests/s once the window opens
}

// buildWebCell is web-host's set-up for one cell: build the scenario,
// start the server, and run the warm-up with the generator paused.
func buildWebCell(mode scenario.Mode, rate float64, seed uint64, lc *layerClock) (*webCell, error) {
	s := scenario.DefaultSetup()
	s.Mode = mode
	s.Seed = seed
	b := scenario.Build(s)
	if lc != nil {
		b.Eng.SetObserver(lc.observe)
	}
	cfg := httpd.DefaultConfig()
	srv, err := httpd.NewServer(b.K, httpd.NewLink(b.Eng, cfg.LinkBps), cfg)
	if err != nil {
		return nil, err
	}
	gen := loadgen.New(b.Eng, srv, sim.NewRand(seed+7), loadgen.Config{SLO: webSLO})
	err = b.Eng.RunUntil(scenario.DefaultWarmup)
	lc.pause()
	return &webCell{b: b, srv: srv, gen: gen, rate: rate}, err
}

// webHost runs Figure 14's single httpd host under Baseline and vScale
// at fixed open-loop Poisson rates below, at and past the knee. Each
// request's latency runs in virtual time from its scheduled arrival,
// so the generator is never late.
func webHost(seed uint64, sz size, lc *layerClock, cal *calib) outcome {
	o := newOutcome()
	hist := metrics.NewHistogram(metrics.DefaultLatencyBuckets())
	var vs loadgen.Stats
	var logRatio, peak, cost, activeSum, ipiRate, waitNs, vcpuNs float64
	var decisions uint64
	cells := 0
	window := sz.webWindow
	for ri, rateK := range sz.webRates {
		rseed := runner.DeriveSeed(seed, ri)
		var replies [4]float64
		for _, mode := range []scenario.Mode{scenario.Baseline, scenario.VScale} {
			o.ops++
			o.harness += cal.probe()
			t0 := time.Now()
			c, err := buildWebCell(mode, rateK*1000, rseed, lc)
			o.setup += time.Since(t0)
			if err != nil {
				o.fail("%v %gK: set-up: %v", mode, rateK, err)
				continue
			}
			st, h, err := c.run(window, lc)
			if err != nil {
				o.fail("%v %gK: %v", mode, rateK, err)
				continue
			}
			if st.Offered != st.Replies+st.Errors+st.InFlight || st.SLOOk > st.Replies {
				o.fail("%v %gK: loadgen accounting broken: %+v", mode, rateK, st)
			}
			o.engineCounts(c.b.Eng)
			o.requests += float64(st.Offered)
			cells++
			replies[mode] = float64(st.Replies)
			k := c.b.K
			_, d := k.DaemonStats()
			decisions += d
			waitNs += float64(c.b.VM.TotalWaitTime)
			vcpuNs += float64(c.b.Eng.Now()) * float64(k.NCPUs())
			var resched uint64
			for i := 0; i < k.NCPUs(); i++ {
				resched += k.CPUStatsOf(i).ReschedIPIs
			}
			ipiRate += float64(resched) / float64(k.NCPUs()) / c.b.Eng.Now().Seconds()
			fmt.Fprintf(&o.digest, "web %g %d offered=%d replies=%d errors=%d slo=%d p50=%s p99=%s mean=%s active=%s\n",
				rateK, mode, st.Offered, st.Replies, st.Errors, st.SLOOk,
				fmtFloat(h.Quantile(0.5)), fmtFloat(h.Quantile(0.99)), fmtFloat(h.Mean()),
				fmtFloat(k.AverageActiveVCPUs()))
			if mode != scenario.VScale {
				continue
			}
			if err := hist.Merge(h); err != nil {
				o.fail("%v %gK: %v", mode, rateK, err)
			}
			if rateK <= webKneeK {
				vs.Add(st)
			}
			peak = math.Max(peak, float64(st.Replies)/window.Seconds()/1000)
			cost += k.ActiveVCPUSeconds()
			activeSum += k.AverageActiveVCPUs()
		}
		// Time per reply, vScale over Baseline: the inverse reply rates.
		if replies[scenario.Baseline] > 0 && replies[scenario.VScale] > 0 {
			logRatio += math.Log(replies[scenario.Baseline] / replies[scenario.VScale])
		}
	}
	if n := len(sz.webRates); n > 0 {
		o.sim["sim_normexec"] = math.Exp(logRatio / float64(n))
		o.layer["guest.avg_active_vcpus"] = activeSum / float64(n)
	}
	o.sim["sim_peak_reply_krps"] = peak
	o.sim["sim_reply_p99_ms"] = hist.Quantile(0.99)
	o.sim["sim_slo_attainment"] = vs.Attainment()
	o.sim["sim_cost_vcpu_s"] = cost
	o.layer["guest.resched_ipis_per_vcpu_s"] = ratio(ipiRate, float64(cells))
	o.layer["guest.daemon_decisions"] = float64(decisions)
	o.layer["xen.vm_wait_frac"] = ratio(waitNs, vcpuNs)
	return o
}

// run opens the measured window: load at the cell's rate for window,
// then a drain so in-flight requests finish. It returns the window's
// accounting and reply-latency histogram (milliseconds).
func (c *webCell) run(window sim.Time, lc *layerClock) (loadgen.Stats, *metrics.Histogram, error) {
	warm := scenario.DefaultWarmup
	c.gen.SetRate(c.rate)
	err := c.b.Eng.RunUntil(warm + window)
	c.gen.Stop()
	if err == nil {
		err = c.b.Eng.RunUntil(warm + window + 2*sim.Second)
	}
	lc.pause()
	if err == nil {
		err = c.srv.Err()
	}
	return c.gen.Stats(), c.gen.Hist(), err
}
