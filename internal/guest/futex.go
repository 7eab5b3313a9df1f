package guest

import (
	"vscale/internal/costmodel"
	"vscale/internal/sim"
)

// KernelLock is a kernel ticket spinlock (e.g. a futex hash-bucket
// lock). Contended acquisition busy-waits on the CPU; if the holder's
// vCPU is preempted by the hypervisor mid-critical-section, every waiter
// burns its slice — the Lock-Holder Preemption problem. With
// Config.PVSpinlock, a waiter that spins past the threshold parks its
// vCPU in the hypervisor and is kicked on release (paravirtual ticket
// spinlocks, Friebel & Biemueller).
type KernelLock struct {
	k    *Kernel
	Name string

	holder    *cpu
	heldSince sim.Time
	waiters   []*cpu // FIFO ticket order

	// Stats.
	Acquisitions uint64
	Contended    uint64
	PVParks      uint64
}

// NewKernelLock creates an unheld lock.
func NewKernelLock(k *Kernel, name string) *KernelLock {
	return &KernelLock{k: k, Name: name}
}

// Held reports whether the lock is currently held.
func (l *KernelLock) Held() bool { return l.holder != nil }

// bucketFor hashes a synchronisation object id to a kernel lock.
func (k *Kernel) bucketFor(id uint64) *KernelLock {
	return k.buckets[(id*0x9e3779b97f4a7c15>>32)%uint64(len(k.buckets))]
}

// acquireKernelLock is called from an action phase machine: it either
// takes the lock immediately (and the caller proceeds to its critical
// section) or puts the CPU into kernel-spin state. It returns true when
// the lock was acquired synchronously.
func (k *Kernel) acquireKernelLock(c *cpu, l *KernelLock) bool {
	if l.holder == nil {
		l.holder = c
		l.heldSince = k.eng.Now()
		c.locksHeld++
		l.Acquisitions++
		return true
	}
	// Contended: the CPU spins (non-preemptible kernel context).
	l.Contended++
	l.waiters = append(l.waiters, c)
	c.kspin = l
	c.kspinSpun = 0
	t := c.current
	t.segKind = segKernelSpin
	if k.cfg.PVSpinlock {
		t.segRemaining = k.cfg.PVSpinThreshold
	} else {
		// Effectively unbounded; the grant truncates it.
		t.segRemaining = sim.Time(1) << 50
	}
	k.startSegment(c)
	return false
}

// kernelSpinExpired fires when a kernel-spin segment ran its full
// length. With pv-spinlocks that means the threshold was exhausted: the
// vCPU parks itself in the hypervisor until kicked. Without them the
// spin simply continues (fresh segment).
func (k *Kernel) kernelSpinExpired(c *cpu, t *Thread) {
	if c.kspin == nil {
		// The grant raced with the expiry; proceed with the stashed
		// continuation.
		k.runCont(c, t)
		return
	}
	if k.cfg.PVSpinlock {
		l := c.kspin
		l.PVParks++
		c.pvParked = true
		k.softirq("guest/pv-park", func() {
			if c.pvParked {
				k.pool.Block(c.vcpu)
			}
		})
		return
	}
	t.segKind = segKernelSpin
	t.segRemaining = sim.Time(1) << 50
	k.startSegment(c)
}

// releaseKernelLock hands the lock to the next ticket holder, if any.
// Called by the holder at the end of its critical section.
func (k *Kernel) releaseKernelLock(c *cpu, l *KernelLock) {
	if l.holder != c {
		panic("guest: releasing a kernel lock not held by this CPU")
	}
	now := k.eng.Now()
	if tr := k.tracer(); tr != nil {
		tr.SpinHold(now, k.dom.ID(), c.id, now-l.heldSince, l.Name)
	}
	l.holder = nil
	c.locksHeld--
	if len(l.waiters) == 0 {
		return
	}
	next := popFront(&l.waiters)
	l.holder = next
	l.heldSince = now
	next.locksHeld++
	l.Acquisitions++
	k.grantKernelLock(next)
}

// grantKernelLock wakes up the waiter CPU: truncate its spin (if it is
// executing), mark it granted (if its vCPU is preempted), or kick its
// parked vCPU (pv path).
func (k *Kernel) grantKernelLock(c *cpu) {
	c.kspin = nil
	if c.pvParked {
		c.pvParked = false
		k.softirq("guest/pv-kick", func() { k.dom.KickVCPU(c.id) })
		// On dispatch, resume() sees kspinGranted and completes the
		// acquire immediately.
		c.current.kspinGranted = true
		return
	}
	if c.running && c.seg.Armed() && c.current != nil && c.current.segKind == segKernelSpin {
		// Spinning right now: cut the spin short and proceed.
		k.creditSegment(c)
		c.current.segRemaining = 0
		c.current.segKind = segWork
		c.current.kspinGranted = true
		k.armSegment(c)
		return
	}
	// The waiter's vCPU is preempted while spinning; it proceeds when
	// the hypervisor runs it again.
	if c.current != nil {
		c.current.kspinGranted = true
	}
}

// futexQueue is one futex wait queue (keyed by synchronisation object).
type futexQueue struct {
	waiters []*Thread
}

func (k *Kernel) futexQ(key uint64) *futexQueue {
	q := k.futexes[key]
	if q == nil {
		q = &futexQueue{}
		k.futexes[key] = q
	}
	return q
}

// futexEnqueue adds the current thread to the wait queue and sleeps it.
// The caller must already hold (and have charged) the bucket lock.
func (k *Kernel) futexEnqueue(c *cpu, t *Thread, key uint64) {
	k.FutexWaits++
	k.tracer().FutexWait(k.eng.Now(), k.dom.ID(), c.id)
	q := k.futexQ(key)
	q.waiters = append(q.waiters, t)
	k.sleepCurrent(c, t)
}

// futexWakeAll wakes up to n waiters (n<0 means all), charging the waker
// per-wake cost, and returns how many were woken. Remote wakeups send
// reschedule IPIs through wakeThread.
func (k *Kernel) futexWakeAll(c *cpu, key uint64, n int) int {
	q := k.futexQ(key)
	woken := 0
	for len(q.waiters) > 0 && (n < 0 || woken < n) {
		t := popFront(&q.waiters)
		k.wakeThread(t, c.id)
		woken++
		k.FutexWakes++
	}
	if woken > 0 {
		k.tracer().FutexWake(k.eng.Now(), k.dom.ID(), c.id, woken)
	}
	return woken
}

// futexWaiterCount returns the number of sleepers on key.
func (k *Kernel) futexWaiterCount(key uint64) int {
	if q, ok := k.futexes[key]; ok {
		return len(q.waiters)
	}
	return 0
}

// removeFutexWaiter drops a specific thread from a wait queue (used by
// requeue-style operations); returns true if found.
func (k *Kernel) removeFutexWaiter(key uint64, t *Thread) bool {
	q := k.futexQ(key)
	for i, w := range q.waiters {
		if w == t {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// wakeCost is the waker-side CPU cost for n wakes.
func wakeCost(n int) sim.Time {
	return sim.Time(n) * costmodel.FutexWakeCost
}
