package guest

import (
	"fmt"
	"testing"

	"vscale/internal/sim"
	"vscale/internal/xen"
)

// spinCompute is a Program that computes forever, returning the same
// pre-boxed ActCompute each time so the program itself never allocates.
type spinCompute struct{ a Action }

func (p spinCompute) Next(*Thread) Action { return p.a }

// newComputeEnv boots one compute-bound thread per vCPU, segments of
// 300µs, and warms the run up so every free list and queue has reached
// its steady capacity.
func newComputeEnv(tb testing.TB, pcpus, vcpus int) *testEnv {
	tb.Helper()
	eng := sim.NewEngine(7)
	pool := xen.NewPool(eng, xen.DefaultConfig(pcpus))
	dom := pool.AddDomain("vm", 256, vcpus, nil)
	e := &testEnv{eng: eng, pool: pool, dom: dom, k: NewKernel(dom, DefaultConfig())}
	prog := spinCompute{a: ActCompute{D: 300 * sim.Microsecond}}
	for i := 0; i < vcpus; i++ {
		e.k.Spawn(fmt.Sprintf("w%d", i), Uthread, prog, nil)
	}
	pool.Start()
	e.k.Boot()
	if err := eng.RunUntil(200 * sim.Millisecond); err != nil {
		tb.Fatal(err)
	}
	return e
}

// stepMs advances the simulation by one millisecond.
func (e *testEnv) stepMs(tb testing.TB) {
	if err := e.eng.RunUntil(e.eng.Now() + sim.Millisecond); err != nil {
		tb.Fatal(err)
	}
}

// TestSegmentPathAllocs pins the steady-state guest segment path at
// zero allocations: segment completion, the tick's in-place rearm,
// context switches and the hypervisor's slice rotation underneath.
func TestSegmentPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under -race")
	}
	for _, c := range []struct{ pcpus, vcpus int }{{1, 1}, {2, 4}} {
		e := newComputeEnv(t, c.pcpus, c.vcpus)
		if got := testing.AllocsPerRun(200, func() { e.stepMs(t) }); got != 0 {
			t.Errorf("%d pCPU / %d vCPU: %v allocs per simulated ms, want 0", c.pcpus, c.vcpus, got)
		}
	}
}

// BenchmarkGuestSegment measures the guest segment path under the
// hypervisor: 4 compute-bound threads on 4 vCPUs sharing 2 pCPUs, 300µs
// segments. One op is one simulated millisecond.
func BenchmarkGuestSegment(b *testing.B) {
	e := newComputeEnv(b, 2, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.stepMs(b)
	}
}
