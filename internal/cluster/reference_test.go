package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"vscale/internal/core"
	"vscale/internal/sim"
	"vscale/internal/telemetry"
)

// referenceFleet is the differential reference for the bounded-lag
// executor: one goroutine, no runner, every host advanced one epoch at
// a time and every boundary's work done in host order while all
// engines are parked. It is built from the same router and Host
// primitives and covers routing, the warm boundary's quiesce and arm,
// telemetry collection, the elasticity pass, the policy pass and the
// drain. It does not capture, resume or stop early; the straight-vs-
// fork identity tests check those.
func referenceFleet(cfg FleetConfig, events []Event) (FleetResult, error) {
	plan, err := prepareFleet(&cfg, events)
	if err != nil {
		return FleetResult{}, err
	}
	if cfg.CheckpointEpoch != 0 {
		return FleetResult{}, fmt.Errorf("reference fleet: CheckpointEpoch is not modelled")
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

	// Every boundary's fleet snapshot; boundary 0 is the empty fleet.
	stats := map[int][][]core.VMStat{0: make([][]core.VMStat, len(hosts))}
	committed := map[int][]int{0: make([]int, len(hosts))}
	telFrom := telemetryFrom(&cfg)
	for k := 0; k < plan.epochs(); k++ {
		base := rt.baseFor(k)
		batches, err := rt.routeEpoch(k, stats[base], committed[base])
		if err != nil {
			return res, err
		}
		b, end, epoch := k+1, plan.ends[k], plan.ends[k]-plan.starts[k]
		stats[b] = make([][]core.VMStat, len(hosts))
		committed[b] = make([]int, len(hosts))
		for i, h := range hosts {
			if batches != nil {
				h.scheduleRouted(batches[i])
			}
			if quiesceBefore(&cfg, k) {
				h.ScheduleQuiesce(plan.starts[k])
			}
			if err := h.RunEpoch(end); err != nil {
				return res, err
			}
			stats[b][i] = h.Snapshot(epoch)
			committed[b][i] = h.CommittedVCPUs()
			if b == cfg.WarmEpochs {
				h.Arm()
			}
		}
		if b >= telFrom {
			collectTelemetry(cfg.Telemetry, end, hosts, &res, cfg.SLO, rt)
		}
		if b > cfg.WarmEpochs {
			if rt.el != nil {
				rt.el.pass(b, end)
			}
			for i, h := range hosts {
				h.boundaryPolicy(pols[i], epoch)
			}
		}
	}

	for _, h := range hosts {
		h.StopAll()
		if err := h.RunEpoch(cfg.Horizon + cfg.Drain); err != nil {
			return res, err
		}
	}
	collectTelemetry(cfg.Telemetry, cfg.Horizon+cfg.Drain, hosts, &res, cfg.SLO, rt)
	if err := aggregate(&cfg, hosts, &res); err != nil {
		return res, err
	}
	return res, nil
}

// TestReferenceBoundedLagIdentical is the executor's differential
// check: for every policy, several seeds and both worker counts, the
// bounded-lag executor must reproduce the serial reference loop's
// FleetResult exactly.
func TestReferenceBoundedLagIdentical(t *testing.T) {
	for _, policy := range PolicyNames() {
		for _, seed := range []uint64{11, 23, 97} {
			cfg := smallFleet(policy, 1)
			cfg.Seed = seed
			events := GenTrace(DefaultTraceConfig(cfg.Horizon), seed)
			want, err := referenceFleet(cfg, events)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				bcfg := cfg
				bcfg.Workers = workers
				got, err := RunFleet(bcfg, events)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, fmt.Sprintf("%s seed=%d workers=%d", policy, seed, workers), want, got)
			}
		}
	}
}

// TestElasticityReferenceBoundedLagIdentical extends the differential
// to the elasticity layer: with migrations and replica scaling on, the
// executor must still reproduce the reference byte for byte at every
// worker count.
func TestElasticityReferenceBoundedLagIdentical(t *testing.T) {
	for _, mode := range []string{"migrate", "replicas", "hybrid"} {
		cfg := elasticFleet(t, mode, 1)
		events := GenTrace(elasticTraceConfig(cfg.Horizon), cfg.Seed)
		want, err := referenceFleet(cfg, events)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			bcfg := cfg
			bcfg.Workers = workers
			got, err := RunFleet(bcfg, events)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("%s workers=%d", mode, workers), want, got)
		}
	}
}

// TestReferenceWarmTelemetryIdentical runs a warm prefix with a live
// collector: the executor's FleetResult and JSONL stream must equal
// the reference loop's byte for byte.
func TestReferenceWarmTelemetryIdentical(t *testing.T) {
	run := func(fleet func(FleetConfig, []Event) (FleetResult, error), workers int) (FleetResult, string) {
		var buf bytes.Buffer
		sink, err := telemetry.NewSink("", &buf)
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallFleet("pid", workers)
		cfg.WarmEpochs = 3
		cfg.Telemetry = telemetry.NewCollector(sink, false, "policy", "pid")
		res, err := fleet(cfg, GenTrace(DefaultTraceConfig(cfg.Horizon), cfg.Seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Telemetry.Err(); err != nil {
			t.Fatal(err)
		}
		return res, buf.String()
	}
	want, wantJSONL := run(referenceFleet, 1)
	if wantJSONL == "" {
		t.Fatal("reference run collected no telemetry")
	}
	for _, workers := range []int{1, 4} {
		got, gotJSONL := run(RunFleet, workers)
		assertSameResult(t, fmt.Sprintf("warm telemetry workers=%d", workers), want, got)
		if gotJSONL != wantJSONL {
			t.Fatalf("workers=%d: telemetry streams differ:\n--- reference ---\n%s\n--- executor ---\n%s",
				workers, wantJSONL, gotJSONL)
		}
	}
}

// TestBoundedLagStarvedHost slows one host far below the rest: the
// fleet must actually run ahead of it (asynchrony), never beyond the
// lag bound, and still produce the reference answer.
func TestBoundedLagStarvedHost(t *testing.T) {
	var mu sync.Mutex
	cur := map[int]int{}
	maxSkew := 0
	testEpochHook = func(host, epoch int) {
		mu.Lock()
		cur[host] = epoch
		if len(cur) == 2 && cur[1]-cur[0] > maxSkew {
			maxSkew = cur[1] - cur[0]
		}
		mu.Unlock()
		if host == 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	defer func() { testEpochHook = nil }()

	cfg := smallFleet("vscale", 4)
	events := GenTrace(DefaultTraceConfig(cfg.Horizon), cfg.Seed)
	got, err := RunFleet(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	testEpochHook = nil

	want, err := referenceFleet(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "starved host", want, got)

	// cur[i] is the last epoch host i *started*, so host 1 may lead the
	// straggler's start by lag+1 (the straggler's done count can be one
	// past its recorded start), never more.
	if maxSkew > cfg.lag()+1 {
		t.Fatalf("lag bound violated: host 1 ran %d epochs ahead of the straggler (lag %d)", maxSkew, cfg.lag())
	}
	if maxSkew < 2 {
		t.Fatalf("no run-ahead observed (max skew %d); executor appears lockstepped", maxSkew)
	}
}

// TestCaptureWarmPrefixStarvedHost runs the warm-prefix capture with
// host 0 held back a full lag behind, so host 1 runs ahead into the
// stop boundary: no host may start an epoch at or past the warm
// boundary, the capture must be disarmed, and its digest must equal
// the one-worker capture's.
func TestCaptureWarmPrefixStarvedHost(t *testing.T) {
	cfg := smallFleet("", 4)
	cfg.Horizon = 6 * sim.Second
	cfg.WarmEpochs = 8
	events := GenTrace(DefaultTraceConfig(cfg.Horizon), cfg.Seed)

	// Host 0 waits at the start of epoch WarmEpochs-1-lag until host 1
	// has started the last warm epoch, the furthest the lag bound lets
	// it run ahead.
	last := cfg.WarmEpochs - 1
	ahead := make(chan struct{})
	var mu sync.Mutex
	maxEpoch, raced := -1, false
	testEpochHook = func(host, epoch int) {
		mu.Lock()
		maxEpoch = max(maxEpoch, epoch)
		mu.Unlock()
		switch {
		case host == 1 && epoch == last:
			close(ahead)
		case host == 0 && epoch == last-cfg.lag():
			select {
			case <-ahead:
				mu.Lock()
				raced = true
				mu.Unlock()
			case <-time.After(10 * time.Second):
			}
		}
	}
	defer func() { testEpochHook = nil }()
	cp, err := CaptureWarmPrefix(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	testEpochHook = nil
	if !raced {
		t.Fatal("host 1 never ran a full lag ahead; the stop boundary was not raced")
	}
	if maxEpoch >= cfg.WarmEpochs {
		t.Fatalf("a host started epoch %d, past the stop boundary %d", maxEpoch, cfg.WarmEpochs)
	}
	if cp.Armed {
		t.Fatal("warm-prefix capture is armed")
	}

	serial := cfg
	serial.Workers = 1
	want, err := CaptureWarmPrefix(serial, events)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Digest != want.Digest {
		t.Fatalf("starved capture digest %s, one-worker capture %s", cp.Digest, want.Digest)
	}
}
