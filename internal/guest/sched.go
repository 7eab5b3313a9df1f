package guest

import (
	"vscale/internal/sim"
	"vscale/internal/xen"
)

// load returns the runnable load of CPU c (queued + running).
func (c *cpu) load() int {
	n := len(c.rq)
	if c.current != nil {
		n++
	}
	return n
}

// selectCPU implements select_task_rq: choose a runqueue for a waking or
// newly forked thread. Frozen CPUs are never eligible (vScale's
// find_idlest_cpu consults cpu_freeze_mask). prefer is the thread's
// previous CPU (-1 if none); it wins ties so cache affinity is kept.
func (k *Kernel) selectCPU(t *Thread, prefer int) int {
	if !t.Kind.Migratable() {
		return t.cpu // per-CPU kthreads stay put
	}
	best := -1
	bestLoad := 1 << 30
	if prefer >= 0 && !k.Frozen(prefer) {
		if k.cpus[prefer].load() == 0 {
			return prefer
		}
	}
	for i, c := range k.cpus {
		if k.Frozen(i) {
			continue
		}
		l := c.load()
		if l < bestLoad || (l == bestLoad && i == prefer) {
			best, bestLoad = i, l
		}
	}
	if best < 0 {
		// Everything frozen except vCPU0 should be impossible (vCPU0 is
		// never frozen), but fall back defensively.
		best = 0
	}
	return best
}

// enqueue places t on c's runqueue. When kick is true and the CPU's vCPU
// sleeps in the hypervisor, it is kicked through the IPI port so it
// starts running (fork/wake path).
func (k *Kernel) enqueue(c *cpu, t *Thread, kick bool) {
	t.state = ThreadRunnable
	t.cpu = c.id
	c.rq = append(c.rq, t)
	if !kick {
		return
	}
	if c.running {
		// Already on a pCPU: if it is idling (pre-block window), run the
		// new work now; otherwise the queue is noticed at the next
		// reschedule point.
		if c.current == nil && !c.seg.Armed() {
			k.resume(c)
		}
		return
	}
	// Remote or sleeping CPU: reschedule IPI (Linux ttwu_queue). The
	// hypervisor decides the delivery latency: immediate if the vCPU
	// runs, on next dispatch if queued, a wakeup if blocked.
	k.softirq("guest/kick", func() { k.dom.KickVCPU(c.id) })
}

// wakeThread transitions a sleeping thread to runnable and enqueues it
// (wakeup balance). from is the CPU doing the wake (-1 for external
// sources such as timers firing on the thread's own CPU).
func (k *Kernel) wakeThread(t *Thread, from int) {
	if t.state != ThreadSleeping {
		return
	}
	t.WakeUps++
	target := k.selectCPU(t, t.cpu)
	c := k.cpus[target]
	t.state = ThreadRunnable
	t.cpu = target
	t.wakePreempt = true
	c.rq = append(c.rq, t)
	if target == from {
		// Local wakeup: runs now if the CPU idles, or preempts the
		// current thread past the wakeup granularity.
		if c.running && c.current == nil {
			k.resume(c)
		} else {
			k.maybePreempt(c)
		}
		return
	}
	// Remote wakeup: reschedule IPI to the target vCPU; the IPI handler
	// performs the preemption check on delivery.
	k.softirq("guest/resched-ipi", func() { k.dom.SendIPI(from, c.id) })
}

// idlePull implements idle balancing: an idling CPU pulls one runnable
// thread from the busiest eligible peer. Frozen CPUs do not pull
// (Algorithm 2 step (b)); nothing is pulled from a frozen CPU either
// because its queue drains at freeze time.
func (k *Kernel) idlePull(c *cpu) {
	if k.Frozen(c.id) {
		return
	}
	var busiest *cpu
	for _, p := range k.cpus {
		if p == c || k.Frozen(p.id) {
			continue
		}
		if len(p.rq) == 0 {
			continue
		}
		if busiest == nil || p.load() > busiest.load() {
			busiest = p
		}
	}
	if busiest == nil {
		return
	}
	t := k.stealFrom(busiest)
	if t == nil {
		return
	}
	t.cpu = c.id
	t.Migrated++
	c.stats.ThreadMigrates++
	c.rq = append(c.rq, t)
}

// stealFrom removes the first migratable queued thread from p. Threads
// inside kernel critical sections stay put.
func (k *Kernel) stealFrom(p *cpu) *Thread {
	for i, t := range p.rq {
		if t.Kind.Migratable() && !t.inKernelCritical() {
			p.rq = append(p.rq[:i], p.rq[i+1:]...)
			return t
		}
	}
	return nil
}

// periodicBalance levels queues: if some eligible CPU has more runnable
// threads than c, move one here. Pulling even on a difference of one
// (when the busiest CPU is doubled up) rotates the overloaded slot
// around the CPUs, which is how CFS gives N hog threads on M<N CPUs
// each ~M/N of a CPU instead of pinning the unlucky pair at half speed.
func (k *Kernel) periodicBalance(c *cpu) {
	if k.Frozen(c.id) {
		return
	}
	var busiest *cpu
	for _, p := range k.cpus {
		if p == c || k.Frozen(p.id) {
			continue
		}
		if busiest == nil || p.load() > busiest.load() {
			busiest = p
		}
	}
	if busiest == nil || len(busiest.rq) == 0 {
		return
	}
	gap := busiest.load() - c.load()
	if gap < 2 && !(gap == 1 && busiest.load() >= 2) {
		return
	}
	t := k.stealFrom(busiest)
	if t == nil {
		return
	}
	t.cpu = c.id
	t.Migrated++
	c.stats.ThreadMigrates++
	c.rq = append(c.rq, t)
	if c.running && c.current == nil {
		k.resume(c)
	}
}

// Device is a virtual device (network/disk frontend) whose completions
// arrive as event-channel interrupts on the bound vCPU.
type Device struct {
	k    *Kernel
	Name string
	port *xen.Port
	// HandlerCost is charged to the interrupted vCPU per interrupt.
	HandlerCost sim.Time
	// OnInterrupt runs in interrupt context after the cost is charged;
	// it typically wakes a waiting thread or feeds a server queue.
	OnInterrupt func(cpuID int)

	// queue of completions that fired; drained at delivery.
	completions []func(cpuID int)

	Interrupts uint64
}

// NewDevice allocates a device bound to vCPU bind.
func (k *Kernel) NewDevice(name string, bind int, handlerCost sim.Time) *Device {
	d := &Device{
		k:           k,
		Name:        name,
		port:        k.dom.AllocIRQ(name, bind),
		HandlerCost: handlerCost,
	}
	k.devices = append(k.devices, d)
	return d
}

// BoundCPU returns the vCPU the device's IRQ is currently bound to.
func (d *Device) BoundCPU() int { return d.port.Target() }

// Raise fires the device interrupt with an attached completion callback
// (run in guest interrupt context on the handling vCPU). Safe to call
// from outside the guest (backend models).
func (d *Device) Raise(completion func(cpuID int)) {
	if completion != nil {
		d.completions = append(d.completions, completion)
	}
	d.k.pool.Notify(d.port)
}

// deliver runs on interrupt delivery: drain completions then the static
// handler.
func (d *Device) deliver(c *cpu) {
	d.Interrupts++
	for len(d.completions) > 0 {
		fn := popFront(&d.completions)
		fn(c.id)
	}
	if d.OnInterrupt != nil {
		d.OnInterrupt(c.id)
	}
}

// ioAdvance executes ActIO: submit, sleep until the completion interrupt
// wakes the thread, then finish.
func (k *Kernel) ioAdvance(c *cpu, t *Thread, a ActIO) {
	switch t.phase {
	case 0:
		t.phase = 1
		dev := a.Dev
		tt := t
		// The device completes after its service time and interrupts the
		// bound vCPU; the handler wakes the sleeping thread.
		k.eng.After(a.Service, "guest/io-complete", func() {
			dev.Raise(func(cpuID int) { k.wakeThread(tt, cpuID) })
		})
		k.sleepCurrent(c, t)
	default:
		k.complete(c, t)
	}
}
