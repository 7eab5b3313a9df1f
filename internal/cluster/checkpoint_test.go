package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vscale/internal/sim"
	"vscale/internal/telemetry"
)

// TestWarmForkIdentical is the correctness gate behind warm-fork: for
// every policy, two seeds and both worker counts, the forked run
// (shared warm prefix, restored at the warm boundary) must reproduce
// the straight-through run's FleetResult exactly.
func TestWarmForkIdentical(t *testing.T) {
	const warm = 3
	policies := PolicyNames()
	for _, seed := range []uint64{11, 23} {
		for _, workers := range []int{1, 4} {
			cfg := smallFleet("", workers)
			cfg.Seed = seed
			cfg.WarmEpochs = warm
			events := GenTrace(DefaultTraceConfig(cfg.Horizon), seed)

			straight := make([]FleetResult, 0, len(policies))
			for _, p := range policies {
				scfg := cfg
				scfg.Policy = p
				r, err := RunFleet(scfg, events)
				if err != nil {
					t.Fatalf("straight %s: %v", p, err)
				}
				straight = append(straight, r)
			}
			forked, err := RunFleetWarmFork(cfg, events, policies, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range policies {
				assertSameResult(t, fmt.Sprintf("%s seed=%d workers=%d", p, seed, workers),
					straight[i], forked[i])
			}
		}
	}
}

// TestWarmForkTelemetryIdentical: the forked run's JSONL telemetry
// stream must be byte-identical to the straight-through warm run's.
func TestWarmForkTelemetryIdentical(t *testing.T) {
	run := func(fork bool) string {
		var buf bytes.Buffer
		sink, err := telemetry.NewSink("", &buf)
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallFleet("vscale", 2)
		cfg.WarmEpochs = 3
		events := GenTrace(DefaultTraceConfig(cfg.Horizon), cfg.Seed)
		if fork {
			results, err := RunFleetWarmFork(cfg, events, []string{"vscale"}, func(string) *telemetry.Collector {
				return telemetry.NewCollector(sink, false, "policy", "vscale")
			})
			if err != nil {
				t.Fatal(err)
			}
			_ = results
		} else {
			cfg.Telemetry = telemetry.NewCollector(sink, false, "policy", "vscale")
			if _, err := RunFleet(cfg, events); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	straight := run(false)
	forked := run(true)
	if straight != forked {
		t.Fatalf("telemetry streams differ:\n--- straight ---\n%s\n--- forked ---\n%s", straight, forked)
	}
	// 6 epochs with a 3-epoch warm prefix: boundaries 3..6 collect, plus
	// the terminal post-drain record.
	if got, want := len(strings.Split(strings.TrimSuffix(straight, "\n"), "\n")), 5; got != want {
		t.Fatalf("got %d telemetry records, want %d", got, want)
	}
}

// TestCheckpointRestoreIdentical: capturing mid-run and restoring from
// the file reproduces the capturing run's result exactly, at both
// worker counts, for stateful (Checkpointable), daemon-driven and
// stateless policies.
func TestCheckpointRestoreIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, policy := range []string{"pid", "predictive", "vscale", "static"} {
			path := filepath.Join(t.TempDir(), "fleet.ckpt")
			cfg := smallFleet(policy, workers)
			cfg.CheckpointEpoch = 3
			cfg.CheckpointPath = path
			events := GenTrace(DefaultTraceConfig(cfg.Horizon), cfg.Seed)

			want, err := RunFleet(cfg, events)
			if err != nil {
				t.Fatalf("workers=%d %s capture run: %v", workers, policy, err)
			}
			cp, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			rcfg := cfg
			rcfg.CheckpointEpoch = 0
			rcfg.CheckpointPath = ""
			got, err := RunFleetFork(rcfg, events, cp)
			if err != nil {
				t.Fatalf("workers=%d %s restored run: %v", workers, policy, err)
			}
			assertSameResult(t, fmt.Sprintf("workers=%d %s restore", workers, policy), want, got)
		}
	}
}

// TestCheckpointCaptureIsReadOnly: a run that quiesces and captures at
// an epoch boundary produces the same result whether or not the
// snapshot is written (and at both worker counts).
func TestCheckpointCaptureIsReadOnly(t *testing.T) {
	base := smallFleet("pid", 2)
	base.CheckpointEpoch = 4
	events := GenTrace(DefaultTraceConfig(base.Horizon), base.Seed)
	var ref *FleetResult
	for _, workers := range []int{1, 4} {
		for _, write := range []bool{false, true} {
			cfg := base
			cfg.Workers = workers
			if write {
				cfg.CheckpointPath = filepath.Join(t.TempDir(), "fleet.ckpt")
			}
			res, err := RunFleet(cfg, events)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = &res
				continue
			}
			assertSameResult(t, fmt.Sprintf("workers=%d write=%v", workers, write), *ref, res)
		}
	}
}

// TestCheckpointDigestStable: the digest is a pure function of the
// simulated state — identical across repeated captures and worker
// counts, different once any field changes.
func TestCheckpointDigestStable(t *testing.T) {
	cfg := smallFleet("", 1)
	cfg.WarmEpochs = 3
	events := GenTrace(DefaultTraceConfig(cfg.Horizon), cfg.Seed)
	a, err := CaptureWarmPrefix(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	cfg4 := cfg
	cfg4.Workers = 4
	b, err := CaptureWarmPrefix(cfg4, events)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == "" || a.Digest != b.Digest {
		t.Fatalf("digest not stable across worker counts: %q vs %q", a.Digest, b.Digest)
	}
	other := cfg
	other.Seed = 23
	c, err := CaptureWarmPrefix(other, GenTrace(DefaultTraceConfig(cfg.Horizon), 23))
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Fatal("different seeds produced the same digest")
	}
	b.Hosts[0].Dom0Reads++
	mutated, err := b.ComputeDigest()
	if err != nil {
		t.Fatal(err)
	}
	if mutated == a.Digest {
		t.Fatal("mutated snapshot kept the original digest")
	}
}

// TestCheckpointRoundTripAndCorruption: encode/decode round-trips, and
// a corrupted byte fails the digest check.
func TestCheckpointRoundTripAndCorruption(t *testing.T) {
	cfg := smallFleet("", 1)
	cfg.WarmEpochs = 2
	events := GenTrace(DefaultTraceConfig(cfg.Horizon), cfg.Seed)
	cp, err := CaptureWarmPrefix(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	data, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Digest != cp.Digest || back.Boundary != cp.Boundary || len(back.Hosts) != len(cp.Hosts) {
		t.Fatal("round-trip changed the snapshot")
	}
	bad := bytes.Replace(data, []byte(`"dom0_reads":`), []byte(`"dom0_reads":1`), 1)
	if _, err := DecodeCheckpoint(bad); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("corrupted checkpoint decoded without a digest error: %v", err)
	}
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	if err := SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Digest != cp.Digest {
		t.Fatal("file round-trip changed the digest")
	}
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("truncated checkpoint loaded without error")
	}
}

// TestRunFleetForkValidation: a snapshot only restores into the run it
// came from.
func TestRunFleetForkValidation(t *testing.T) {
	cfg := smallFleet("vscale", 1)
	cfg.WarmEpochs = 2
	events := GenTrace(DefaultTraceConfig(cfg.Horizon), cfg.Seed)
	cp, err := CaptureWarmPrefix(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(c *FleetConfig)
	}{
		{"seed", func(c *FleetConfig) { c.Seed++ }},
		{"hosts", func(c *FleetConfig) { c.Hosts++ }},
		{"horizon", func(c *FleetConfig) { c.Horizon += sim.Second }},
		{"warm", func(c *FleetConfig) { c.WarmEpochs++ }},
		{"lag", func(c *FleetConfig) { c.LagEpochs = 2 }},
	}
	for _, tc := range cases {
		bad := cfg
		tc.mutate(&bad)
		if _, err := RunFleetFork(bad, events, cp); err == nil {
			t.Fatalf("%s mismatch restored without error", tc.name)
		}
	}
	if _, err := RunFleetFork(cfg, events, cp); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}
	if _, err := CaptureWarmPrefix(smallFleet("static", 1), events); err == nil {
		t.Fatal("CaptureWarmPrefix accepted WarmEpochs=0")
	}
}
