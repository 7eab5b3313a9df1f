package main

import "time"

// The machine this benchmark runs on is shared, and its speed drifts:
// the same execution can take twice as long an hour later, in CPU time
// as well as wall time, and the speed wanders by a fifth from one
// second to the next. So the host-side times are reported in reference
// seconds. Throughout an untraced run the benchmark times refKernel, a
// fixed computation that shares no code with the simulator: between
// executions and at boundaries inside them, such as between two
// paper-sync apps. It scales the run's median times by refNominal over
// the kernel's median time: wall times by the kernel's wall time, CPU
// time by its CPU time. A slower machine slows both alike and the
// scaled time stays put; a faster simulator lowers it.

// refNominal is the time refKernel is defined to take: one reference
// second is the time in which the machine runs the kernel
// 1/refNominal times.
const refNominal = 0.03

// refCalls is how many kernel calls go before the first execution and
// after each one.
const refCalls = 8

const (
	refEvents = 250_000
	refQueue  = 1024
	refSlots  = 1 << 16 // 256 KiB of uint32
)

// refEvent is one entry of the kernel's event queue.
type refEvent struct {
	at   uint64
	slot uint32
}

// The kernel's memory is allocated once, so a call never allocates:
// its time does not depend on the garbage collector or on how much heap
// the workload holds when a probe runs inside an execution.
var (
	refQ     [refQueue]refEvent
	refTable [refSlots]uint32
	refSink  uint64
)

// refKernel runs a small discrete-event loop shaped like the
// simulator's hot path: a binary heap of events, a read-modify-write
// of a random slot in a 256 KiB table per event, and branches
// on pseudo-random data. Its control flow and memory accesses are the
// same on every call.
func refKernel() {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	q := refQ[:]
	for i := range q {
		q[i] = refEvent{at: next() % 1000, slot: uint32(next() % refSlots)}
	}
	// Heapify, then replace the earliest event refEvents times.
	down := func(i int) {
		for {
			l, m := 2*i+1, i
			if l < refQueue && q[l].at < q[m].at {
				m = l
			}
			if l+1 < refQueue && q[l+1].at < q[m].at {
				m = l + 1
			}
			if m == i {
				return
			}
			q[m], q[i] = q[i], q[m]
			i = m
		}
	}
	for i := refQueue/2 - 1; i >= 0; i-- {
		down(i)
	}
	var sum uint64
	for i := 0; i < refEvents; i++ {
		e := q[0]
		v := refTable[e.slot] + uint32(e.at)
		refTable[e.slot] = v
		sum += uint64(v)
		r := next()
		if r&3 == 0 {
			sum ^= r >> 7
		}
		q[0] = refEvent{at: e.at + 1 + r%997, slot: uint32((r >> 20) % refSlots)}
		down(0)
	}
	refSink += sum
}

// calib collects the wall and CPU seconds of every timed kernel call
// of an untraced run. A nil *calib times nothing.
type calib struct{ wall, cpu []float64 }

// probe times one kernel call and returns how long it took, for the
// caller to leave out of the execution's wall and CPU time.
func (c *calib) probe() time.Duration {
	if c == nil {
		return 0
	}
	c0, t0 := cpuTime(), time.Now()
	refKernel()
	took := time.Since(t0)
	c.wall = append(c.wall, took.Seconds())
	c.cpu = append(c.cpu, (cpuTime() - c0).Seconds())
	return took
}

// newCalib returns an empty calib after one untimed kernel call, which
// faults the table in.
func newCalib() *calib {
	refKernel()
	return &calib{}
}

// batch times refCalls kernel calls between executions.
func (c *calib) batch() {
	for i := 0; i < refCalls; i++ {
		c.probe()
	}
}
