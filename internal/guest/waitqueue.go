package guest

import "vscale/internal/sim"

// WaitQueue is a kernel wait queue carrying items (the accept-queue /
// socket-receive pattern): threads block dequeueing; producers — other
// threads or interrupt handlers — post items and wake one waiter.
// Remote wakeups go through the reschedule-IPI path like every other
// wake in the kernel.
type WaitQueue struct {
	k       *Kernel
	id      uint64
	items   []any
	waiters []*Thread
	// producers are threads blocked in ActEnqueue on a full queue
	// (bounded-buffer backpressure).
	producers []*Thread

	// MaxItems, when non-zero, bounds the queue; Post returns false and
	// drops the item when full (a listen backlog), while ActEnqueue
	// blocks instead.
	MaxItems int

	Posts, Drops uint64
}

// NewWaitQueue creates an empty wait queue (maxItems 0 = unbounded).
func (k *Kernel) NewWaitQueue(maxItems int) *WaitQueue {
	return &WaitQueue{k: k, id: k.nextSyncID(), MaxItems: maxItems}
}

// Len returns the number of queued items.
func (q *WaitQueue) Len() int { return len(q.items) }

// Waiters returns the number of blocked consumers.
func (q *WaitQueue) Waiters() int { return len(q.waiters) }

// Post enqueues an item, waking one blocked consumer. fromCPU is the CPU
// doing the post (interrupt handlers pass the delivering CPU). It
// reports whether the item was accepted.
func (q *WaitQueue) Post(item any, fromCPU int) bool {
	q.Posts++
	if q.MaxItems > 0 && len(q.items) >= q.MaxItems {
		q.Drops++
		return false
	}
	q.items = append(q.items, item)
	if len(q.waiters) > 0 {
		q.k.wakeThread(popFront(&q.waiters), fromCPU)
	}
	return true
}

// ActDequeue blocks the thread until an item is available on Q; the item
// lands in Thread.Mailbox.
type ActDequeue struct{ Q *WaitQueue }

func (ActDequeue) isAction() {}

// ActEnqueue puts Item on Q, blocking while the queue is full (the
// bounded-buffer producer side: pipeline backpressure).
type ActEnqueue struct {
	Q    *WaitQueue
	Item any
}

func (ActEnqueue) isAction() {}

// ActCall runs F synchronously as part of the thread's execution after
// charging Cost of CPU (side-effect escape hatch for workload models:
// transmitting a response, recording a timestamp).
type ActCall struct {
	F    func(t *Thread)
	Cost sim.Time
}

func (ActCall) isAction() {}

// dequeueAdvance implements ActDequeue: phase 0 = fast path or sleep,
// phase 1 = woken, take the item.
func (k *Kernel) dequeueAdvance(c *cpu, t *Thread, q *WaitQueue) {
	switch t.phase {
	case 0, 1:
		if len(q.items) > 0 {
			t.Mailbox = popFront(&q.items)
			// Space freed: release one blocked producer.
			if len(q.producers) > 0 {
				k.wakeThread(popFront(&q.producers), c.id)
			}
			k.chargeAndContinue(c, t, sim.Microsecond)
			t.phase = 2
			return
		}
		// Spurious wake or nothing yet: (re-)join the waiters.
		t.phase = 1
		q.waiters = append(q.waiters, t)
		k.sleepCurrent(c, t)
	case 2:
		k.complete(c, t)
	default:
		panic("guest: bad dequeue phase")
	}
}

// enqueueAdvance implements ActEnqueue: phase 0/1 = try to append or
// sleep on a full queue; phase 2 = done.
func (k *Kernel) enqueueAdvance(c *cpu, t *Thread, a ActEnqueue) {
	q := a.Q
	switch t.phase {
	case 0, 1:
		if q.MaxItems == 0 || len(q.items) < q.MaxItems {
			q.Posts++
			q.items = append(q.items, a.Item)
			if len(q.waiters) > 0 {
				k.wakeThread(popFront(&q.waiters), c.id)
			}
			k.chargeAndContinue(c, t, sim.Microsecond)
			t.phase = 2
			return
		}
		// Full: block until a consumer makes room.
		t.phase = 1
		q.producers = append(q.producers, t)
		k.sleepCurrent(c, t)
	case 2:
		k.complete(c, t)
	default:
		panic("guest: bad enqueue phase")
	}
}

// callAdvance implements ActCall: phase 0 = charge cost, phase 1 = run F
// and finish.
func (k *Kernel) callAdvance(c *cpu, t *Thread, a ActCall) {
	switch t.phase {
	case 0:
		t.phase = 1
		k.chargeAndContinue(c, t, a.Cost)
	case 1:
		if a.F != nil {
			a.F(t)
		}
		k.complete(c, t)
	default:
		panic("guest: bad call phase")
	}
}
