package experiments

import (
	"path/filepath"
	"strings"
	"testing"

	"vscale/internal/cluster"
	"vscale/internal/runner"
	"vscale/internal/scenario"
	"vscale/internal/sim"
)

func TestTable1MatchesPaper(t *testing.T) {
	r, err := Table1(100)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 910*sim.Nanosecond {
		t.Fatalf("channel read total = %v, want 0.91µs", r.Total)
	}
	if r.MeasuredReads < 90 {
		t.Fatalf("daemon performed %d reads, want ~100", r.MeasuredReads)
	}
	out := r.Render()
	if !strings.Contains(out, "0.91") {
		t.Fatalf("render missing the 0.91µs total:\n%s", out)
	}
}

func TestFigure4Shape(t *testing.T) {
	r := Figure4([]int{1, 10, 50}, 200)
	idle50 := r.Stats[0][50] // Idle
	net50 := r.Stats[2][50]  // NetworkIO
	idle1 := r.Stats[0][1]
	// Linear in VM count and inflated by I/O.
	if idle50[1] < 40*idle1[1] {
		t.Fatalf("50-VM idle read %.2fms not ~50x the 1-VM read %.2fms", idle50[1], idle1[1])
	}
	if net50[1] < 6 {
		t.Fatalf("50-VM net-I/O average %.2fms, paper reports >6ms", net50[1])
	}
	if net50[2] < 15 {
		t.Fatalf("50-VM net-I/O max %.2fms, paper reports ~30ms", net50[2])
	}
	if !strings.Contains(r.Render(), "#VMs") {
		t.Fatal("render broken")
	}
}

func TestTable2Quiescence(t *testing.T) {
	r, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if r.Before.TimerPerSec[i] < 900 || r.Before.TimerPerSec[i] > 1100 {
			t.Fatalf("vCPU%d before: %.0f ticks/s, want ~1000", i, r.Before.TimerPerSec[i])
		}
		if r.Before.IPIPerSec[i] < 2 {
			t.Fatalf("vCPU%d before: %.1f IPIs/s, want kernel-build-like rate", i, r.Before.IPIPerSec[i])
		}
	}
	// The frozen vCPU3 is quiescent; survivors keep ticking.
	if r.After.TimerPerSec[3] > 1 {
		t.Fatalf("frozen vCPU3 still ticks: %.1f/s", r.After.TimerPerSec[3])
	}
	if r.After.IPIPerSec[3] > 1 {
		t.Fatalf("frozen vCPU3 still gets IPIs: %.1f/s", r.After.IPIPerSec[3])
	}
	for i := 0; i < 3; i++ {
		if r.After.TimerPerSec[i] < 900 {
			t.Fatalf("active vCPU%d ticks dropped to %.0f/s after freeze", i, r.After.TimerPerSec[i])
		}
	}
}

func TestTable3Breakdown(t *testing.T) {
	r := Table3()
	if len(r.Steps) != 6 {
		t.Fatalf("steps = %d", len(r.Steps))
	}
	if r.Cumulative[len(r.Cumulative)-1] != 2100*sim.Nanosecond {
		t.Fatalf("total = %v, want 2.10µs", r.Cumulative[len(r.Cumulative)-1])
	}
	out := r.Render()
	if !strings.Contains(out, "2.10") || !strings.Contains(out, "Migrate N threads") {
		t.Fatalf("render missing pieces:\n%s", out)
	}
}

func TestFigure5Bands(t *testing.T) {
	r, err := Figure5(100)
	if err != nil {
		t.Fatal(err)
	}
	// vScale's 2.1µs vs the best hotplug op (~0.35ms): >100x.
	add := r.Add["v-3.14.15"]
	if add.Quantile(0.5) < 0.3 {
		t.Fatalf("3.14.15 add median %.2fms too low", add.Quantile(0.5))
	}
	rm := r.Remove["v-2.6.32"]
	if rm.Quantile(0.9) < 20 {
		t.Fatalf("2.6.32 remove p90 = %.1fms, want tens of ms", rm.Quantile(0.9))
	}
	if !strings.Contains(r.Render(), "v-3.14.15") {
		t.Fatal("render broken")
	}
}

func TestNPBSweepHeadline(t *testing.T) {
	// Scaled-down sweep: two apps, two modes, one spin count.
	r, err := NPBSweep(runner.Options{}, 4, []string{"cg", "ep"},
		[]scenario.Mode{scenario.Baseline, scenario.VScale},
		[]uint64{30_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	cg := r.Normalized("cg", scenario.VScale, 30_000_000_000)
	ep := r.Normalized("ep", scenario.VScale, 30_000_000_000)
	if cg > 0.8 {
		t.Fatalf("cg normalized = %.2f, want substantial speedup", cg)
	}
	if ep > 1.25 {
		t.Fatalf("ep normalized = %.2f, want near-neutral", ep)
	}
	out := r.RenderFigure(30_000_000_000)
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "cg") {
		t.Fatalf("render broken:\n%s", out)
	}
	if !strings.Contains(r.RenderFigure10(), "spin=0") {
		t.Fatal("figure 10 render broken")
	}
	if !strings.Contains(r.RenderFigure9(30_000_000_000), "reduction") {
		t.Fatal("figure 9 render broken")
	}
}

// TestNPBSweepParallelDeterminism is the headline determinism check: the
// rendered tables must be byte-identical whatever the worker count.
func TestNPBSweepParallelDeterminism(t *testing.T) {
	render := func(workers int) string {
		r, err := NPBSweep(runner.Options{Workers: workers}, 4, []string{"ep"},
			[]scenario.Mode{scenario.Baseline, scenario.VScale},
			[]uint64{300_000})
		if err != nil {
			t.Fatal(err)
		}
		return r.RenderFigure(300_000) + r.RenderFigure10()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("serial vs 8-worker output differs:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

func TestFigure8TraceOscillates(t *testing.T) {
	r, err := Figure8(runner.Options{}, 10*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	tr4 := r.Traces[4]
	if len(tr4) < 50 {
		t.Fatalf("trace too short: %d points", len(tr4))
	}
	min, max := 99, 0
	for _, p := range tr4 {
		if p.Active < min {
			min = p.Active
		}
		if p.Active > max {
			max = p.Active
		}
	}
	if max != 4 {
		t.Fatalf("4-vCPU VM never at 4 active (max %d)", max)
	}
	if min > 3 {
		t.Fatalf("4-vCPU VM never scaled down (min %d)", min)
	}
	tr8 := r.Traces[8]
	max8 := 0
	for _, p := range tr8 {
		if p.Active > max8 {
			max8 = p.Active
		}
	}
	if max8 < 5 {
		t.Fatalf("8-vCPU VM max active = %d", max8)
	}
	if !strings.Contains(r.Render(), "Figure 8") {
		t.Fatal("render broken")
	}
}

func TestParsecSweepShape(t *testing.T) {
	r, err := ParsecSweep(runner.Options{}, 4, []string{"dedup", "swaptions"},
		[]scenario.Mode{scenario.Baseline, scenario.VScale})
	if err != nil {
		t.Fatal(err)
	}
	dedup := r.Normalized("dedup", scenario.VScale)
	swap := r.Normalized("swaptions", scenario.VScale)
	if dedup > 1.0 {
		t.Fatalf("dedup normalized = %.2f, paper shows >20%% gain", dedup)
	}
	if swap > 1.3 {
		t.Fatalf("swaptions normalized = %.2f, should be near-neutral", swap)
	}
	// Figure 13: dedup is the IPI outlier, swaptions has ~none.
	if r.Runs["dedup"][scenario.Baseline].IPIRate < 5*r.Runs["swaptions"][scenario.Baseline].IPIRate {
		t.Fatalf("dedup IPI rate %.0f not dominating swaptions %.0f",
			r.Runs["dedup"][scenario.Baseline].IPIRate, r.Runs["swaptions"][scenario.Baseline].IPIRate)
	}
	if !strings.Contains(r.RenderFigure(), "Figure 11") {
		t.Fatal("render broken")
	}
	if !strings.Contains(r.RenderFigure13(), "dedup") {
		t.Fatal("figure 13 render broken")
	}
}

func TestApacheShape(t *testing.T) {
	r, err := Apache(runner.Options{}, []float64{4, 7, 10}, 8*sim.Second,
		[]scenario.Mode{scenario.Baseline, scenario.VScale})
	if err != nil {
		t.Fatal(err)
	}
	// Linear region identical.
	b4 := r.Points[scenario.Baseline][0]
	v4 := r.Points[scenario.VScale][0]
	if b4.ReplyK < 3.8 || v4.ReplyK < 3.8 {
		t.Fatalf("linear region broken: base %.2f vscale %.2f", b4.ReplyK, v4.ReplyK)
	}
	// vScale peaks higher than the baseline.
	if r.PeakReply(scenario.VScale) < r.PeakReply(scenario.Baseline)+0.8 {
		t.Fatalf("vScale peak %.2fK vs baseline %.2fK: want clear win",
			r.PeakReply(scenario.VScale), r.PeakReply(scenario.Baseline))
	}
	// Connection time at high load: vScale much lower.
	b10 := r.Points[scenario.Baseline][2]
	v10 := r.Points[scenario.VScale][2]
	if v10.ConnMs > 0.7*b10.ConnMs {
		t.Fatalf("connection time not improved: base %.2fms vscale %.2fms", b10.ConnMs, v10.ConnMs)
	}
	if !strings.Contains(r.Render(), "reply rate") {
		t.Fatal("render broken")
	}
}

func TestAblations(t *testing.T) {
	a1, err := AblationWeightOnly(runner.Options{}, "cg")
	if err != nil {
		t.Fatal(err)
	}
	if len(a1.Exec) != 3 {
		t.Fatal("A1 variants missing")
	}
	// Weight-only sizing (VCPU-Bal) must not beat consumption-aware
	// vScale; it under-sizes when slack exists.
	if float64(a1.Exec[1]) < 0.9*float64(a1.Exec[0]) {
		t.Fatalf("weight-only %.2fs unexpectedly beats vScale %.2fs",
			a1.Exec[1].Seconds(), a1.Exec[0].Seconds())
	}
	a2, err := AblationHotplugPath(runner.Options{}, "cg")
	if err != nil {
		t.Fatal(err)
	}
	// The ms-scale reconfiguration path must be no better than the
	// µs-scale balancer.
	if float64(a2.Exec[1]) < 0.95*float64(a2.Exec[0]) {
		t.Fatalf("hotplug path %.2fs beats balancer %.2fs", a2.Exec[1].Seconds(), a2.Exec[0].Seconds())
	}
	a4, err := AblationPerVMWeight(runner.Options{}, "cg")
	if err != nil {
		t.Fatal(err)
	}
	if float64(a4.Exec[1]) < float64(a4.Exec[0]) {
		t.Fatalf("per-vCPU weight %.2fs beats per-VM weight %.2fs (it forfeits share)",
			a4.Exec[1].Seconds(), a4.Exec[0].Seconds())
	}
	a5, err := AblationCeilMargin(runner.Options{}, "cg")
	if err != nil {
		t.Fatal(err)
	}
	if len(a5.Exec) != 2 {
		t.Fatal("A5 variants missing")
	}
	for _, a := range []AblationResult{a1, a2, a4, a5} {
		if !strings.Contains(a.Render(), "Ablation") {
			t.Fatal("ablation render broken")
		}
	}
}

func TestAblationSchedulerGenerality(t *testing.T) {
	r, err := AblationSchedulerGenerality(runner.Options{}, "cg")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Exec) != 4 {
		t.Fatal("A6 variants missing")
	}
	creditSpeedup := float64(r.Exec[0]) / float64(r.Exec[1])
	vrtSpeedup := float64(r.Exec[2]) / float64(r.Exec[3])
	// The paper's generality claim: vScale must deliver a substantial
	// speedup on BOTH proportional-share schedulers.
	if creditSpeedup < 1.25 {
		t.Fatalf("credit speedup = %.2fx", creditSpeedup)
	}
	if vrtSpeedup < 1.25 {
		t.Fatalf("vrt speedup = %.2fx — extendability not scheduler-agnostic?", vrtSpeedup)
	}
}

func TestAblationDaemonPeriod(t *testing.T) {
	r, err := AblationDaemonPeriod(runner.Options{}, "cg", []sim.Time{10 * sim.Millisecond, sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Exec) != 2 {
		t.Fatal("variants missing")
	}
	// A 1-second daemon period reacts far too slowly; 10ms should be at
	// least as good.
	if float64(r.Exec[0]) > 1.1*float64(r.Exec[1]) {
		t.Fatalf("10ms period %.2fs worse than 1s period %.2fs", r.Exec[0].Seconds(), r.Exec[1].Seconds())
	}
}

func TestExtensionAdaptiveTeam(t *testing.T) {
	r, err := ExtensionAdaptiveTeam(runner.Options{}, "cg")
	if err != nil {
		t.Fatal(err)
	}
	if r.Adapted >= r.FixedExec {
		t.Fatalf("adaptive team %.2fs not faster than fixed %.2fs", r.Adapted.Seconds(), r.FixedExec.Seconds())
	}
	// The whole point: surplus spinners disappear when the team tracks
	// the active vCPU count.
	if r.AdaptSpin > r.FixedSpin/4 {
		t.Fatalf("adaptive spin %.2fs vs fixed %.2fs: spinners not eliminated",
			r.AdaptSpin.Seconds(), r.FixedSpin.Seconds())
	}
	if !strings.Contains(r.Render(), "adaptive") {
		t.Fatal("render broken")
	}
}

func TestClusterShape(t *testing.T) {
	r, err := Cluster(runner.Options{BaseSeed: 3}, nil, []int{2}, 4, 4*sim.Second, 50*sim.Millisecond, nil, 0, "", ClusterWarm{})
	if err != nil {
		t.Fatal(err)
	}
	fleets := r.Fleets[2]
	if len(fleets) != len(cluster.PolicyNames()) {
		t.Fatalf("ran %d fleets, want one per registered policy", len(fleets))
	}
	for i, f := range fleets {
		if f.Policy != cluster.PolicyNames()[i] {
			t.Fatalf("fleet %d ran policy %v, want %v", i, f.Policy, cluster.PolicyNames()[i])
		}
		// Every policy is driven by the same churn trace.
		if f.Placed != fleets[0].Placed || f.Load.Offered != fleets[0].Load.Offered {
			t.Fatalf("policy %v saw different churn/load than %v", f.Policy, fleets[0].Policy)
		}
		if f.Load.Replies == 0 {
			t.Fatalf("policy %v served nothing", f.Policy)
		}
	}
	out := r.Render()
	for _, want := range []string{"Cluster: 2 host(s)", "static", "hotplug", "vscale", "pid", "predictive",
		"SLO", "central dom0 monitoring", "Cost-vs-attainment frontier", "Pareto-efficient"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	m := r.Metrics()
	for _, p := range cluster.PolicyNames() {
		for _, k := range []string{"2h/" + p + "/cost_vcpu_seconds", "2h/" + p + "/attainment"} {
			if _, ok := m[k]; !ok {
				t.Fatalf("Metrics missing %q: %v", k, m)
			}
		}
		if m["2h/"+p+"/cost_vcpu_seconds"] <= 0 {
			t.Fatalf("policy %s reported non-positive cost", p)
		}
	}
	// Scaling policies must provision less than the static ceiling.
	if m["2h/vscale/cost_vcpu_seconds"] >= m["2h/static/cost_vcpu_seconds"] {
		t.Fatalf("vscale cost %.1f not below static %.1f",
			m["2h/vscale/cost_vcpu_seconds"], m["2h/static/cost_vcpu_seconds"])
	}
}

func TestClusterPolicySelection(t *testing.T) {
	r, err := Cluster(runner.Options{BaseSeed: 3}, nil, []int{1}, 4, 2*sim.Second, 50*sim.Millisecond,
		[]string{"static", "pid"}, 0, "", ClusterWarm{})
	if err != nil {
		t.Fatal(err)
	}
	fleets := r.Fleets[1]
	if len(fleets) != 2 || fleets[0].Policy != "static" || fleets[1].Policy != "pid" {
		t.Fatalf("selection not honoured: %+v", fleets)
	}
	out := r.Render()
	if strings.Contains(out, "hotplug") || strings.Contains(out, "predictive") {
		t.Fatalf("unselected policies leaked into the render:\n%s", out)
	}
}

// TestClusterParallelDeterminism: the cluster experiment's rendered
// report must be byte-identical whatever the per-fleet worker count.
func TestClusterParallelDeterminism(t *testing.T) {
	render := func(workers int) string {
		r, err := Cluster(runner.Options{Workers: workers, BaseSeed: 3}, nil,
			[]int{2}, 4, 3*sim.Second, 20*sim.Millisecond, nil, 0, "", ClusterWarm{})
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("serial vs 8-worker cluster output differs:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestWarmForkExperiment: the amortization experiment's two arms agree
// (WarmFork fails internally otherwise), the canonical scoreboard is
// sane, and the bench metrics carry the wall-clock series.
func TestWarmForkExperiment(t *testing.T) {
	pols := []string{"static", "pid"}
	r, err := WarmFork(runner.Options{BaseSeed: 3}, 2, 4, 5*sim.Second, 50*sim.Millisecond,
		6, pols, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Fleets) != 2 || r.Fleets[0].Policy != "static" || r.Fleets[1].Policy != "pid" {
		t.Fatalf("scoreboard shape wrong: %+v", r.Fleets)
	}
	if r.Epochs != 10 || r.WarmEpochs != 6 {
		t.Fatalf("epoch accounting wrong: %d epochs, %d warm", r.Epochs, r.WarmEpochs)
	}
	m := r.Metrics()
	for _, k := range []string{"straight_wall_seconds", "warm_wall_seconds", "fork_wall_seconds",
		"speedup", "static/fork_wall_seconds", "pid/straight_wall_seconds"} {
		if m[k] <= 0 {
			t.Fatalf("Metrics[%q] = %v, want > 0 (%v)", k, m[k], m)
		}
	}
	out := r.Render()
	for _, want := range []string{"Warm-fork", "static", "pid", "bit for bit"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "wall_seconds") {
		t.Fatalf("wall clocks leaked into the deterministic render:\n%s", out)
	}
	// A bad warm length must be rejected, not run.
	if _, err := WarmFork(runner.Options{}, 2, 4, 5*sim.Second, 50*sim.Millisecond,
		10, pols, 0); err == nil {
		t.Fatal("warm epochs == epochs accepted")
	}
}

// TestClusterWarmForkIdentity: the cluster experiment produces the same
// scoreboard straight, warm-forked, and restored from a checkpoint file
// written by a previous invocation.
func TestClusterWarmForkIdentity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.ckpt")
	run := func(warm ClusterWarm) ClusterResult {
		r, err := Cluster(runner.Options{BaseSeed: 3}, nil, []int{2}, 4, 4*sim.Second,
			50*sim.Millisecond, []string{"static", "vscale"}, 0, "", warm)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	straight := run(ClusterWarm{Epochs: 4})
	forked := run(ClusterWarm{Epochs: 4, Fork: true, CheckpointPath: path})
	restored := run(ClusterWarm{Epochs: 4, RestorePath: path})
	if straight.Render() != forked.Render() || forked.Render() != restored.Render() {
		t.Fatalf("scoreboards differ:\n--- straight ---\n%s\n--- forked ---\n%s\n--- restored ---\n%s",
			straight.Render(), forked.Render(), restored.Render())
	}
	for i := range straight.Fleets[2] {
		if !sameFleetResult(straight.Fleets[2][i], forked.Fleets[2][i]) ||
			!sameFleetResult(forked.Fleets[2][i], restored.Fleets[2][i]) {
			t.Fatalf("fleet %d differs across arms", i)
		}
	}
	// Flag validation: fork without a warm prefix, and files with
	// multiple host counts, are rejected.
	if _, err := Cluster(runner.Options{BaseSeed: 3}, nil, []int{2}, 4, 4*sim.Second,
		50*sim.Millisecond, nil, 0, "", ClusterWarm{Fork: true}); err == nil {
		t.Fatal("-warmfork without -warm-epochs accepted")
	}
	if _, err := Cluster(runner.Options{BaseSeed: 3}, nil, []int{1, 2}, 4, 4*sim.Second,
		50*sim.Millisecond, nil, 0, "", ClusterWarm{Epochs: 4, CheckpointPath: path}); err == nil {
		t.Fatal("-checkpoint with two host counts accepted")
	}
}

func TestMotivationPhenomena(t *testing.T) {
	r, err := Motivation(runner.Options{}, 5*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	ded, base, vs := r.SpinWasteFrac["dedicated"], r.SpinWasteFrac["Xen/Linux"], r.SpinWasteFrac["vScale"]
	// (a) consolidation inflates spin waste; vScale recovers part of it.
	if base < ded+0.1 {
		t.Fatalf("baseline spin %.2f not clearly above dedicated %.2f", base, ded)
	}
	if vs >= base {
		t.Fatalf("vScale spin %.2f not below baseline %.2f", vs, base)
	}
	// (b)+(c): dedicated has no hypervisor delays; the baseline's tails
	// are tens of ms (slice-scale).
	if r.IPIDelayUs["dedicated"][2] != 0 || r.IRQDelayUs["dedicated"][2] != 0 {
		t.Fatal("dedicated host should have zero delivery delay")
	}
	if r.IPIDelayUs["Xen/Linux"][2] < 10000 {
		t.Fatalf("baseline IPI max = %.0fµs, want slice-scale tails", r.IPIDelayUs["Xen/Linux"][2])
	}
	if r.IRQDelayUs["Xen/Linux"][2] < 10000 {
		t.Fatalf("baseline IRQ max = %.0fµs, want slice-scale tails", r.IRQDelayUs["Xen/Linux"][2])
	}
	// vScale shortens the worst-case tails.
	if r.IPIDelayUs["vScale"][2] > 0.8*r.IPIDelayUs["Xen/Linux"][2] {
		t.Fatalf("vScale IPI max %.0f not clearly below baseline %.0f",
			r.IPIDelayUs["vScale"][2], r.IPIDelayUs["Xen/Linux"][2])
	}
	if !strings.Contains(r.Render(), "Figure 1") {
		t.Fatal("render broken")
	}
}

func TestSpinLabels(t *testing.T) {
	if SpinLabel(30_000_000_000) != "30B" || SpinLabel(300_000) != "300K" || SpinLabel(0) != "0" {
		t.Fatal("labels wrong")
	}
	if SpinLabel(7) != "7" {
		t.Fatal("fallback label wrong")
	}
}

func TestRegistryShape(t *testing.T) {
	names := Names()
	if len(names) < 17 {
		t.Fatalf("registry has %d entries, want >= 17", len(names))
	}
	// "all" order starts with the motivation and ends with the §7
	// extension.
	if names[0] != "figure1" || names[len(names)-1] != "extension" {
		t.Fatalf("registry order wrong: %v", names)
	}
	seen := map[string]bool{}
	for _, e := range Registry() {
		if seen[e.Name] {
			t.Fatalf("duplicate registry entry %q", e.Name)
		}
		seen[e.Name] = true
		if e.Title == "" || e.Desc == "" || e.Run == nil {
			t.Fatalf("entry %q incomplete", e.Name)
		}
	}
	if _, ok := Find("figure6"); !ok {
		t.Fatal("Find(figure6) failed")
	}
	if _, ok := Find("nonesuch"); ok {
		t.Fatal("Find(nonesuch) should fail")
	}
}

func TestRegistryRunAnalytic(t *testing.T) {
	e, ok := Find("table3")
	if !ok {
		t.Fatal("table3 missing")
	}
	res, err := e.Run(NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "Table 3") {
		t.Fatalf("table3 text broken:\n%s", res.Text)
	}
	if res.Report != nil {
		t.Fatal("analytic experiment should carry no runner report")
	}
}

func TestRegistrySharedSweepMemo(t *testing.T) {
	c := NewConfig()
	c.Quick = true
	c.Workers = 4
	// Shrink the shared sweep by memoizing it ourselves first: a tiny
	// one-app sweep stands in for figure6's full run.
	pre, err := NPBSweep(runner.Options{}, 4, []string{"ep"}, nil, []uint64{30_000_000_000, 300_000, 0})
	if err != nil {
		t.Fatal(err)
	}
	c.npb4 = &npbMemo{res: pre}
	f6, _ := Find("figure6")
	f9, _ := Find("figure9")
	r6, err := f6.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	r9, err := f9.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r6.Text, "Figure 6") || !strings.Contains(r9.Text, "Figure 9") {
		t.Fatal("shared-sweep renders broken")
	}
	// Both reused the memo, so neither ran fresh jobs.
	if r6.Report != nil || r9.Report != nil {
		t.Fatal("memoized sweep should not produce fresh runner reports")
	}
}
