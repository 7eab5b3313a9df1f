package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vscale/internal/sim"
)

// elasticTraceConfig is the service-annotated churn mix the elasticity
// tests share: every VM belongs to one of two services and carries a
// dirty-page hint, and the high request rates overload the small hosts
// enough that the replica-set controller has something to fix.
func elasticTraceConfig(horizon sim.Time) TraceConfig {
	tc := DefaultTraceConfig(horizon)
	tc.Services = []string{"web", "api"}
	tc.DirtyBpsChoices = []float64{50e6, 200e6, 800e6}
	tc.RateChoices = []float64{2000, 6000, 10000}
	return tc
}

// elasticFleet is smallFleet plus an elasticity mode.
func elasticFleet(t *testing.T, mode string, workers int) FleetConfig {
	t.Helper()
	cfg := smallFleet("vscale", workers)
	cfg.Horizon = 4 * sim.Second
	mig, rs, err := ElasticityFor(mode)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Migration = mig
	cfg.ReplicaSet = rs
	return cfg
}

// TestElasticitySmoke runs the hybrid mode end to end and checks both
// mechanisms actually fired on the reference trace.
func TestElasticitySmoke(t *testing.T) {
	cfg := elasticFleet(t, "hybrid", 0)
	events := GenTrace(elasticTraceConfig(cfg.Horizon), cfg.Seed)
	res, err := RunFleet(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("migrations=%d aborted=%d downtime=%v bytes=%d created=%d retired=%d failures=%d",
		res.Migrations, res.MigrationsAborted, res.MigrationDowntime, res.MigrationBytes,
		res.ReplicasCreated, res.ReplicasRetired, res.ReplicaFailures)
	if res.Migrations == 0 {
		t.Error("hybrid run committed no migrations on the reference trace")
	}
	if res.ReplicasCreated == 0 {
		t.Error("hybrid run created no replicas on the reference trace")
	}
	if res.Migrations > 0 && res.MigrationDowntime <= 0 {
		t.Error("committed migrations but zero modeled downtime")
	}
}

// TestElasticityWarmForkIdentical checks the fork half of warm-fork
// with the elasticity layer on: a fleet forked from the shared warm
// checkpoint must match the straight-through run exactly, at both
// worker counts.
func TestElasticityWarmForkIdentical(t *testing.T) {
	cfg := elasticFleet(t, "hybrid", 1)
	cfg.WarmEpochs = 2
	events := GenTrace(elasticTraceConfig(cfg.Horizon), cfg.Seed)

	straight, err := RunFleet(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	if straight.Migrations == 0 {
		t.Fatal("warm run committed no migrations; the fork check would be vacuous")
	}

	cp, err := CaptureWarmPrefix(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Elasticity == nil {
		t.Fatal("warm capture of an elasticity-enabled run carries no elasticity state")
	}
	for _, workers := range []int{1, 4} {
		fcfg := cfg
		fcfg.Workers = workers
		got, err := RunFleetFork(fcfg, events, cp)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("warm fork workers=%d", workers), straight, got)
	}
}

// TestElasticityCheckpointRestoreIdentical captures an armed mid-run
// snapshot of a hybrid fleet — including any in-flight migration and
// the replica-set controller state — and checks the restored run
// matches the straight-through one exactly.
func TestElasticityCheckpointRestoreIdentical(t *testing.T) {
	cfg := elasticFleet(t, "hybrid", 1)
	events := GenTrace(elasticTraceConfig(cfg.Horizon), cfg.Seed)

	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	ccfg := cfg
	// Boundary 5 straddles a pre-copy on the reference trace, so the
	// snapshot exercises the in-flight-op round trip.
	ccfg.CheckpointEpoch = 5
	ccfg.CheckpointPath = path
	want, err := RunFleet(ccfg, events)
	if err != nil {
		t.Fatal(err)
	}
	if want.Migrations == 0 || want.ReplicasCreated == 0 {
		t.Fatalf("capture run fired migrations=%d replicas=%d; the restore check would be vacuous",
			want.Migrations, want.ReplicasCreated)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Elasticity == nil {
		t.Fatal("armed capture of a hybrid run carries no elasticity state")
	}
	if cp.Config.Elastic != "hybrid" {
		t.Fatalf("armed capture records elasticity mode %q, want hybrid", cp.Config.Elastic)
	}
	var ecp ElasticityCheckpoint
	if err := json.Unmarshal(cp.Elasticity, &ecp); err != nil {
		t.Fatal(err)
	}
	t.Logf("captured elasticity state: %d in-flight ops, %d tracked rates, replica_seq=%d",
		len(ecp.Inflight), len(ecp.Rate), ecp.ReplicaSeq)
	if len(ecp.Inflight) == 0 {
		t.Error("no migration in flight at the capture boundary; pick a boundary that straddles one")
	}
	for _, workers := range []int{1, 4} {
		fcfg := cfg
		fcfg.Workers = workers
		got, err := RunFleetFork(fcfg, events, cp)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("mid-run fork workers=%d", workers), want, got)
	}
}

// TestElasticityForkValidation pins the restore-time identity checks:
// an elasticity-enabled fork needs elasticity state in the snapshot,
// and an armed capture's mode must match the restoring config.
func TestElasticityForkValidation(t *testing.T) {
	base := smallFleet("vscale", 1)
	base.Horizon = 4 * sim.Second
	events := GenTrace(elasticTraceConfig(base.Horizon), base.Seed)

	// A plain (elasticity-free) armed capture…
	ccfg := base
	ccfg.CheckpointEpoch = 4
	ccfg.CheckpointPath = filepath.Join(t.TempDir(), "plain.ckpt")
	if _, err := RunFleet(ccfg, events); err != nil {
		t.Fatal(err)
	}
	plain, err := LoadCheckpoint(ccfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Elasticity != nil {
		t.Fatal("elasticity-free capture unexpectedly carries elasticity state")
	}
	// …cannot restore with the layer on: the armed mode signature
	// mismatches before the missing state is even consulted.
	fcfg := elasticFleet(t, "hybrid", 1)
	if _, err := RunFleetFork(fcfg, events, plain); err == nil {
		t.Fatal("fork with elasticity on from an elasticity-free armed capture: want error")
	}

	// A hybrid capture cannot restore as migrate-only (armed mode check).
	hcfg := elasticFleet(t, "hybrid", 1)
	hcfg.CheckpointEpoch = 4
	hcfg.CheckpointPath = filepath.Join(t.TempDir(), "hybrid.ckpt")
	if _, err := RunFleet(hcfg, events); err != nil {
		t.Fatal(err)
	}
	hybrid, err := LoadCheckpoint(hcfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := elasticFleet(t, "migrate", 1)
	if _, err := RunFleetFork(mcfg, events, hybrid); err == nil {
		t.Fatal("hybrid armed capture restored as migrate: want error")
	}

	// A warm (disarmed) elasticity capture serves any mode, including
	// elasticity-off (the state is simply unused).
	wcfg := elasticFleet(t, "hybrid", 1)
	wcfg.WarmEpochs = 2
	cp, err := CaptureWarmPrefix(wcfg, events)
	if err != nil {
		t.Fatal(err)
	}
	vcfg := base
	vcfg.WarmEpochs = 2
	if _, err := RunFleetFork(vcfg, events, cp); err != nil {
		t.Fatalf("warm elasticity capture restored with the layer off: %v", err)
	}
}

// TestElasticityFor pins the CLI mode surface.
func TestElasticityFor(t *testing.T) {
	for _, mode := range []string{"", "none", "vertical"} {
		mig, rs, err := ElasticityFor(mode)
		if err != nil || mig != nil || rs != nil {
			t.Fatalf("ElasticityFor(%q) = %v, %v, %v; want nil, nil, nil", mode, mig, rs, err)
		}
	}
	if mig, rs, err := ElasticityFor("migrate"); err != nil || mig == nil || rs != nil {
		t.Fatalf("ElasticityFor(migrate) = %v, %v, %v", mig, rs, err)
	}
	if mig, rs, err := ElasticityFor("replicas"); err != nil || mig != nil || rs == nil {
		t.Fatalf("ElasticityFor(replicas) = %v, %v, %v", mig, rs, err)
	}
	if mig, rs, err := ElasticityFor("hybrid"); err != nil || mig == nil || rs == nil {
		t.Fatalf("ElasticityFor(hybrid) = %v, %v, %v", mig, rs, err)
	}
	if _, _, err := ElasticityFor("sideways"); err == nil {
		t.Fatal("ElasticityFor(sideways): want error")
	}
}

// TestTraceElasticityHints is the table for the vscale-churn/v1
// service=/dirty= arrive fields: accepted in either order, rejected on
// duplication, emptiness, non-positive rates or unknown keys.
func TestTraceElasticityHints(t *testing.T) {
	const hdr = "# vscale-churn/v1\n"
	valid := []struct {
		name    string
		in      string
		service string
		dirty   float64
	}{
		{"neither", hdr + "100 arrive vm0 vcpus=2 rate=100\n", "", 0},
		{"service only", hdr + "100 arrive vm0 vcpus=2 rate=100 service=web\n", "web", 0},
		{"dirty only", hdr + "100 arrive vm0 vcpus=2 rate=100 dirty=2e8\n", "", 2e8},
		{"service then dirty", hdr + "100 arrive vm0 vcpus=2 rate=100 service=web dirty=5e7\n", "web", 5e7},
		{"dirty then service", hdr + "100 arrive vm0 vcpus=2 rate=100 dirty=5e7 service=api\n", "api", 5e7},
	}
	for _, tc := range valid {
		t.Run(tc.name, func(t *testing.T) {
			events, err := ParseTrace(strings.NewReader(tc.in))
			if err != nil {
				t.Fatal(err)
			}
			if len(events) != 1 || events[0].Service != tc.service || events[0].DirtyBps != tc.dirty {
				t.Fatalf("parsed %+v, want service=%q dirty=%g", events, tc.service, tc.dirty)
			}
		})
	}
	invalid := []struct {
		name    string
		in      string
		wantErr string
	}{
		{"duplicate service", hdr + "100 arrive vm0 vcpus=2 rate=100 service=a service=b\n", "duplicate service"},
		{"duplicate dirty", hdr + "100 arrive vm0 vcpus=2 rate=100 dirty=1e8 dirty=2e8\n", "duplicate dirty"},
		{"empty service", hdr + "100 arrive vm0 vcpus=2 rate=100 service=\n", "empty service"},
		{"zero dirty", hdr + "100 arrive vm0 vcpus=2 rate=100 dirty=0\n", "must be positive"},
		{"negative dirty", hdr + "100 arrive vm0 vcpus=2 rate=100 dirty=-5\n", "must be positive"},
		{"malformed dirty", hdr + "100 arrive vm0 vcpus=2 rate=100 dirty=fast\n", "bad dirty rate"},
		{"unknown field", hdr + "100 arrive vm0 vcpus=2 rate=100 color=red\n", "unknown arrive field"},
		{"hint on phase", hdr + "100 arrive vm0 vcpus=2 rate=100\n200 phase vm0 rate=50 service=web\n", "phase needs"},
	}
	for _, tc := range invalid {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTrace(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ParseTrace(%q) = %v, want error containing %q", tc.in, err, tc.wantErr)
			}
		})
	}
}

// TestTraceElasticityRoundTrip: a generated trace with services and
// dirty hints survives format/parse unchanged, and one without them
// renders byte-identically to the historical format (no stray fields).
func TestTraceElasticityRoundTrip(t *testing.T) {
	tc := elasticTraceConfig(6 * sim.Second)
	events := GenTrace(tc, 7)
	withHints := 0
	for _, ev := range events {
		if ev.Kind == EventArrive && ev.Service != "" && ev.DirtyBps > 0 {
			withHints++
		}
	}
	if withHints == 0 {
		t.Fatal("generated trace carries no elasticity hints")
	}
	var buf bytes.Buffer
	if err := FormatTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, back) {
		t.Fatal("format/parse round trip changed the hinted trace")
	}

	plain := GenTrace(DefaultTraceConfig(6*sim.Second), 7)
	var pbuf bytes.Buffer
	if err := FormatTrace(&pbuf, plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(pbuf.String(), "service=") || strings.Contains(pbuf.String(), "dirty=") {
		t.Fatal("hint-free trace rendered elasticity fields")
	}
}
