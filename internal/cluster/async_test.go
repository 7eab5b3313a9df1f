package cluster

import (
	"reflect"
	"testing"
)

// assertSameResult compares two FleetResults field for field (the
// histogram via its rendered moments, since it holds pointers).
func assertSameResult(t *testing.T, label string, want, got FleetResult) {
	t.Helper()
	if want.Hist.String() != got.Hist.String() || want.Hist.Sum() != got.Hist.Sum() {
		t.Fatalf("%s: histograms differ", label)
	}
	want.Hist, got.Hist = nil, nil
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: results differ:\nwant %+v\ngot  %+v", label, want, got)
	}
}

// TestRunFleetRejectsNegativeLag pins config validation.
func TestRunFleetRejectsNegativeLag(t *testing.T) {
	cfg := smallFleet("static", 0)
	cfg.LagEpochs = -1
	if _, err := RunFleet(cfg, nil); err == nil {
		t.Fatal("RunFleet with negative LagEpochs: want error")
	}
}

// TestRecordPlacementsOff checks the opt-out: counters survive, the
// per-VM placement log is elided.
func TestRecordPlacementsOff(t *testing.T) {
	off := false
	cfg := smallFleet("static", 0)
	cfg.RecordPlacements = &off
	events := GenTrace(DefaultTraceConfig(cfg.Horizon), cfg.Seed)
	res, err := RunFleet(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placements != nil {
		t.Fatalf("RecordPlacements=false still recorded %d placements", len(res.Placements))
	}
	if res.Placed == 0 {
		t.Fatal("placement counter lost with recording off")
	}
}
