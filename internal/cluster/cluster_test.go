package cluster

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"vscale/internal/core"
	"vscale/internal/sim"
)

func TestGenTraceDeterministic(t *testing.T) {
	cfg := DefaultTraceConfig(8 * sim.Second)
	a := GenTrace(cfg, 42)
	b := GenTrace(cfg, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (cfg, seed) produced different traces")
	}
	c := GenTrace(cfg, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	arrives := 0
	seen := map[string]bool{}
	for i, ev := range a {
		if i > 0 && ev.At < a[i-1].At {
			t.Fatalf("trace not sorted at %d", i)
		}
		if ev.At >= cfg.Horizon {
			t.Fatalf("event at %v past horizon %v", ev.At, cfg.Horizon)
		}
		switch ev.Kind {
		case EventArrive:
			if seen[ev.VM] {
				t.Fatalf("VM %s arrives twice", ev.VM)
			}
			seen[ev.VM] = true
			arrives++
			if ev.VCPUs <= 0 || ev.RateRPS <= 0 {
				t.Fatalf("bad arrival %+v", ev)
			}
		case EventPhase, EventDepart:
			if !seen[ev.VM] {
				t.Fatalf("%v for VM %s before its arrival", ev.Kind, ev.VM)
			}
		}
	}
	if arrives < cfg.InitialVMs {
		t.Fatalf("only %d arrivals, want >= %d initial", arrives, cfg.InitialVMs)
	}
}

func TestTraceFormatRoundTrip(t *testing.T) {
	events := GenTrace(DefaultTraceConfig(6*sim.Second), 7)
	var buf bytes.Buffer
	if err := FormatTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "# vscale-churn/v1\n") {
		t.Fatalf("missing header: %q", buf.String()[:40])
	}
	back, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, back) {
		t.Fatal("format/parse round trip changed the trace")
	}
}

func TestParseTraceErrors(t *testing.T) {
	const hdr = "# vscale-churn/v1\n"
	cases := []struct {
		name    string
		in      string
		wantErr string
	}{
		{"empty", "", "empty trace"},
		{"bad header", "not a header\n", "want header"},
		{"bad timestamp", hdr + "xyz arrive vm0 vcpus=2 rate=100\n", "bad timestamp"},
		{"negative timestamp", hdr + "-5 arrive vm0 vcpus=2 rate=100\n", "negative timestamp"},
		{"unsorted", hdr + "200 arrive vm0 vcpus=2 rate=100\n100 arrive vm1 vcpus=2 rate=100\n", "not sorted"},
		{"unknown kind", hdr + "100 explode vm0\n", "unknown event"},
		{"arrive missing rate", hdr + "100 arrive vm0 vcpus=2\n", "arrive needs"},
		{"arrive swapped keys", hdr + "100 arrive vm0 rate=5 vcpus=2\n", "want vcpus="},
		{"arrive zero vcpus", hdr + "100 arrive vm0 vcpus=0 rate=100\n", "0 vcpus"},
		{"arrive negative rate", hdr + "100 arrive vm0 vcpus=2 rate=-3\n", "negative rate"},
		{"duplicate arrival", hdr + "100 arrive vm0 vcpus=2 rate=100\n200 arrive vm0 vcpus=2 rate=100\n", "arrives twice"},
		{"re-arrival after depart", hdr + "100 arrive vm0 vcpus=2 rate=100\n200 depart vm0\n300 arrive vm0 vcpus=2 rate=100\n", "arrives twice"},
		{"phase missing rate", hdr + "100 phase vm0\n", "phase needs"},
		{"phase before arrival", hdr + "100 phase vm0 rate=100\n", "has not arrived"},
		{"phase after depart", hdr + "100 arrive vm0 vcpus=2 rate=100\n200 depart vm0\n300 phase vm0 rate=50\n", "has not arrived"},
		{"depart extra args", hdr + "100 depart vm0 extra\n", "no arguments"},
		{"depart before arrival", hdr + "100 depart vm0\n", "has not arrived"},
		{"double depart", hdr + "100 arrive vm0 vcpus=2 rate=100\n200 depart vm0\n300 depart vm0\n", "has not arrived"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTrace(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("ParseTrace(%q): want error containing %q", tc.in, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ParseTrace(%q) = %v, want error containing %q", tc.in, err, tc.wantErr)
			}
		})
	}
	// Equal timestamps are legal (ties keep file order), as are comments
	// and blank lines after the header.
	ok := hdr + "\n# comment\n100 arrive vm0 vcpus=2 rate=100\n100 arrive vm1 vcpus=4 rate=50\n100 phase vm0 rate=0\n200 depart vm1\n"
	events, err := ParseTrace(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("parsed %d events, want 4", len(events))
	}
}

func TestPickHostPrefersIdleHost(t *testing.T) {
	epoch := 500 * sim.Millisecond
	probes := make([][]core.VMStat, 2)
	noExtra := []int{0, 0}
	var scratch placementScratch
	// Host 0 is saturated by two full-throttle competitors; host 1 idle.
	stats := [][]core.VMStat{
		{probeStat(4, 4, epoch), probeStat(4, 4, epoch)},
		{},
	}
	if got := pickHost(4, epoch, stats, probes, []int{8, 0}, noExtra, 2, &scratch); got != 1 {
		t.Fatalf("pickHost = %d, want idle host 1", got)
	}
	// All equal: ties break to the lower index.
	empty := [][]core.VMStat{{}, {}}
	if got := pickHost(4, epoch, empty, probes, noExtra, noExtra, 2, &scratch); got != 0 {
		t.Fatalf("pickHost on equal hosts = %d, want 0", got)
	}
	// Equal extendability, but host 0 took a placement the base snapshot
	// can't see yet: the committed correction breaks the tie to host 1.
	if got := pickHost(4, epoch, empty, probes, noExtra, []int{3, 0}, 2, &scratch); got != 1 {
		t.Fatalf("pickHost with stale-committed correction = %d, want 1", got)
	}
}

func TestNewHostRejectsBadConfig(t *testing.T) {
	if _, err := NewHost(0, HostConfig{PCPUs: 0, Policy: staticPolicy{}}); err == nil {
		t.Fatal("NewHost with 0 pCPUs: want error")
	}
	if _, err := NewHost(0, HostConfig{PCPUs: -3, Policy: staticPolicy{}}); err == nil {
		t.Fatal("NewHost with negative pCPUs: want error")
	}
	if _, err := NewHost(0, HostConfig{PCPUs: 4}); err == nil {
		t.Fatal("NewHost without a policy: want error")
	}
	if _, err := NewHost(0, HostConfig{PCPUs: 4, Policy: hotplugPolicy{}}); err != nil {
		t.Fatalf("NewHost with the hotplug mechanism: %v", err)
	}
}

func smallFleet(policy string, workers int) FleetConfig {
	return FleetConfig{
		Hosts:        2,
		PCPUsPerHost: 4,
		Policy:       policy,
		Seed:         11,
		Horizon:      3 * sim.Second,
		Epoch:        500 * sim.Millisecond,
		Drain:        sim.Second,
		SLO:          20 * sim.Millisecond,
		Workers:      workers,
	}
}

func TestRunFleetSmoke(t *testing.T) {
	cfg := smallFleet("vscale", 0)
	tcfg := DefaultTraceConfig(cfg.Horizon)
	events := GenTrace(tcfg, cfg.Seed)
	res, err := RunFleet(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	arrives := 0
	for _, ev := range events {
		if ev.Kind == EventArrive {
			arrives++
		}
	}
	if res.Placed != arrives {
		t.Fatalf("placed %d of %d arrivals", res.Placed, arrives)
	}
	if res.Load.Offered == 0 || res.Load.Replies == 0 {
		t.Fatalf("no traffic: %+v", res.Load)
	}
	if res.Load.Done != res.Load.Offered {
		t.Fatalf("in-flight after drain: done %d of %d", res.Load.Done, res.Load.Offered)
	}
	if res.Attainment < 0 || res.Attainment > 1 {
		t.Fatalf("attainment %g out of range", res.Attainment)
	}
	if res.Hist.Count() != res.Load.Replies {
		t.Fatalf("hist count %d != replies %d", res.Hist.Count(), res.Load.Replies)
	}
	if res.AvgHostUtil <= 0 || res.AvgHostUtil > 1 {
		t.Fatalf("util %g out of range", res.AvgHostUtil)
	}
	if res.CentralSweep <= 0 {
		t.Fatal("central sweep cost missing")
	}
	if res.Reconfigs == 0 {
		t.Fatal("vScale fleet under churn should reconfigure at least once")
	}
	if res.CostVCPUSeconds <= 0 {
		t.Fatal("provisioned cost missing")
	}
}

func TestRunFleetRejectsUnknownPolicy(t *testing.T) {
	cfg := smallFleet("no-such-policy", 0)
	if _, err := RunFleet(cfg, nil); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("RunFleet with unknown policy: got %v", err)
	}
}

func TestRunFleetSerialParallelIdentical(t *testing.T) {
	for _, policy := range PolicyNames() {
		cfg1 := smallFleet(policy, 1)
		cfg8 := smallFleet(policy, 8)
		events := GenTrace(DefaultTraceConfig(cfg1.Horizon), cfg1.Seed)
		r1, err := RunFleet(cfg1, events)
		if err != nil {
			t.Fatal(err)
		}
		r8, err := RunFleet(cfg8, events)
		if err != nil {
			t.Fatal(err)
		}
		// Histograms don't compare with reflect through pointers; check
		// the moments, then drop them for the full struct comparison.
		if r1.Hist.String() != r8.Hist.String() || r1.Hist.Sum() != r8.Hist.Sum() {
			t.Fatalf("%s: histograms differ across worker counts", policy)
		}
		r1.Hist, r8.Hist = nil, nil
		if !reflect.DeepEqual(r1, r8) {
			t.Fatalf("%s: results differ across worker counts:\n1: %+v\n8: %+v", policy, r1, r8)
		}
	}
}

func TestPoliciesShareChurnButDiverge(t *testing.T) {
	events := GenTrace(DefaultTraceConfig(3*sim.Second), 11)
	static, err := RunFleet(smallFleet("static", 0), events)
	if err != nil {
		t.Fatal(err)
	}
	vsc, err := RunFleet(smallFleet("vscale", 0), events)
	if err != nil {
		t.Fatal(err)
	}
	// Same churn trace: identical placements and event counts.
	if !reflect.DeepEqual(static.Placements, vsc.Placements) {
		t.Fatal("policies saw different placements for the same trace")
	}
	if static.Placed != vsc.Placed || static.Departed != vsc.Departed {
		t.Fatal("policies saw different churn")
	}
	// Static never reconfigures; vScale does.
	if static.Reconfigs != 0 {
		t.Fatalf("static fleet reconfigured %d times", static.Reconfigs)
	}
	if vsc.Reconfigs == 0 {
		t.Fatal("vscale fleet never reconfigured")
	}
}
