package scenario

import (
	"testing"

	"vscale/internal/guest"
	"vscale/internal/sim"
	"vscale/internal/workload"
	"vscale/internal/workload/npb"
)

// TestGoldenNPBCounters pins the engine's event accounting and every
// guest CPU counter of one fixed NPB cell (cg, vScale + pv-spinlocks,
// GOMP_SPINCOUNT=300K, seed 1). The cell exercises segment rearms from
// interrupts, kernel-lock grants and spinner wake-ups, pv parking and
// vCPU freezing, so a hot-path rewrite that shifts a single arming,
// cancel or firing changes one of these numbers. Update them only for
// a deliberate model change, never for a performance change.
func TestGoldenNPBCounters(t *testing.T) {
	s := DefaultSetup()
	s.Mode = VScalePVLock
	b := Build(s)
	p, err := npb.ProfileFor("cg")
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.RunApp(func(k *guest.Kernel) *workload.App {
		return npb.Launch(k, p, s.VMVCPUs, guest.SpinBudgetFromCount(300_000))
	}, 600*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut || res.ExecTime != 7325534429 {
		t.Errorf("exec time = %d (timed out %v), want 7325534429", int64(res.ExecTime), res.TimedOut)
	}
	eng := b.Eng
	if eng.Scheduled != 192569 || eng.Cancelled != 86611 || eng.Processed != 105931 {
		t.Errorf("engine scheduled/cancelled/processed = %d/%d/%d, want 192569/86611/105931",
			eng.Scheduled, eng.Cancelled, eng.Processed)
	}
	want := []guest.CPUStats{
		{TimerInterrupts: 5053, ReschedIPIs: 1656, DeviceIRQs: 0, ContextSwitches: 2213, ThreadMigrates: 527, UserSpinTime: 1222330254, KernelSpinTime: 30942},
		{TimerInterrupts: 4874, ReschedIPIs: 1784, DeviceIRQs: 0, ContextSwitches: 2191, ThreadMigrates: 428, UserSpinTime: 1204499963, KernelSpinTime: 20447},
		{TimerInterrupts: 3814, ReschedIPIs: 1553, DeviceIRQs: 0, ContextSwitches: 1607, ThreadMigrates: 491, UserSpinTime: 977144781, KernelSpinTime: 28285},
		{TimerInterrupts: 177, ReschedIPIs: 27, DeviceIRQs: 0, ContextSwitches: 30, ThreadMigrates: 5, UserSpinTime: 32613034, KernelSpinTime: 6398},
	}
	if n := b.K.NCPUs(); n != len(want) {
		t.Fatalf("vCPUs = %d, want %d", n, len(want))
	}
	for i, w := range want {
		if got := b.K.CPUStatsOf(i); got != w {
			t.Errorf("cpu %d stats = %+v\nwant %+v", i, got, w)
		}
	}
}
