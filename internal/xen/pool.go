package xen

import (
	"fmt"

	"vscale/internal/core"
	"vscale/internal/sim"
	"vscale/internal/trace"
)

// SchedPolicy selects the pool's scheduling policy. The vScale
// extension works with either, as the paper claims for proportional-
// share schedulers in general: extendability is computed purely from
// weights and consumptions.
type SchedPolicy int

// Scheduling policies.
const (
	// PolicyCredit is Xen's credit scheduler (the default).
	PolicyCredit SchedPolicy = iota
	// PolicyVRT is a weighted virtual-runtime scheduler in the style of
	// BVT/CFS: vCPUs are ordered by weighted virtual runtime, waking
	// vCPUs get a bounded sleep bonus, and preemption is granularity-
	// limited. No credits, no BOOST.
	PolicyVRT
)

func (p SchedPolicy) String() string {
	switch p {
	case PolicyCredit:
		return "credit"
	case PolicyVRT:
		return "vrt"
	default:
		return fmt.Sprintf("SchedPolicy(%d)", int(p))
	}
}

// Config holds the scheduler parameters of a CPU pool. The zero value is
// not usable; call DefaultConfig.
type Config struct {
	// Policy selects the scheduling policy (credit by default).
	Policy SchedPolicy

	// PCPUs is the number of physical CPUs in the pool.
	PCPUs int
	// Slice is the scheduling time slice (Xen default 30 ms).
	Slice sim.Time
	// Tick is the credit-burn tick (Xen default 10 ms).
	Tick sim.Time
	// Acct is the credit accounting period (Xen default 30 ms).
	Acct sim.Time

	// VScale enables the vScale scheduler extension: the extendability
	// ticker and the hypercall surface used by the guest daemon.
	VScale bool
	// VScalePeriod is the extendability recalculation period (paper
	// default 10 ms).
	VScalePeriod sim.Time

	// PerVCPUWeight reverts to unpatched Xen 4.5 semantics where weight
	// is effectively per-vCPU: a domain's credit share scales with its
	// number of active vCPUs, so freezing vCPUs forfeits entitlement.
	// vScale's patch (the default, false) makes weight per-VM. Kept for
	// the A4 ablation.
	PerVCPUWeight bool
}

// DefaultConfig returns Xen 4.5 defaults over nPCPUs physical CPUs.
func DefaultConfig(nPCPUs int) Config {
	return Config{
		PCPUs:        nPCPUs,
		Slice:        30 * sim.Millisecond,
		Tick:         10 * sim.Millisecond,
		Acct:         30 * sim.Millisecond,
		VScalePeriod: 10 * sim.Millisecond,
	}
}

// PCPU is one physical CPU of a pool.
type PCPU struct {
	pool *Pool
	id   int

	runq    []*VCPU // ordered: priority class, FIFO within class
	current *VCPU

	sliceTimer *sim.Timer

	idle      bool
	idleSince sim.Time
	IdleTime  sim.Time
	Switches  uint64
}

// ID returns the pCPU index within its pool.
func (p *PCPU) ID() int { return p.id }

// Current returns the running vCPU (nil when idle).
func (p *PCPU) Current() *VCPU { return p.current }

// QueueLen returns the number of queued (runnable) vCPUs.
func (p *PCPU) QueueLen() int { return len(p.runq) }

// Pool is a set of pCPUs under one credit scheduler, plus the domains
// scheduled on them. It corresponds to a Xen CPU pool; the paper runs
// all domUs in a pool separate from dom0.
type Pool struct {
	eng *sim.Engine
	cfg Config

	pcpus   []*PCPU
	domains []*Domain

	tickTicker   *sim.Ticker
	acctTicker   *sim.Ticker
	vscaleTicker *sim.Ticker

	started bool
	// kicking guards kickIdle against recursion through dispatch.
	kicking bool

	// tr is the event tracer; nil means tracing is disabled and every
	// hook below is a single nil check.
	tr *trace.Tracer

	// Reused buffers: vscaleTick's per-domain stats and results, and
	// resortRunq's reordering.
	vmStats  []core.VMStat
	exts     []core.Extendability
	sortRunq []*VCPU

	// VScaleTicks counts extendability recalculations (diagnostics).
	VScaleTicks uint64
}

// NewPool creates a pool with the given configuration.
func NewPool(eng *sim.Engine, cfg Config) *Pool {
	if cfg.PCPUs <= 0 {
		panic("xen: pool needs at least one pCPU")
	}
	if cfg.Slice <= 0 || cfg.Tick <= 0 || cfg.Acct <= 0 {
		panic("xen: scheduler periods must be positive")
	}
	pool := &Pool{eng: eng, cfg: cfg}
	for i := 0; i < cfg.PCPUs; i++ {
		p := &PCPU{pool: pool, id: i, idle: true}
		p.sliceTimer = sim.NewTimer(eng, fmt.Sprintf("xen/slice/p%d", i), func() { pool.dispatch(p) })
		pool.pcpus = append(pool.pcpus, p)
	}
	pool.tickTicker = sim.NewTicker(eng, "xen/tick", cfg.Tick, pool.tick)
	pool.acctTicker = sim.NewTicker(eng, "xen/acct", cfg.Acct, pool.acct)
	if cfg.VScale {
		period := cfg.VScalePeriod
		if period <= 0 {
			period = 10 * sim.Millisecond
		}
		pool.vscaleTicker = sim.NewTicker(eng, "xen/vscale", period, pool.vscaleTick)
	}
	return pool
}

// Engine returns the simulation engine.
func (pool *Pool) Engine() *sim.Engine { return pool.eng }

// SetTracer installs (or, with nil, removes) the event tracer. The
// pool topology and all existing domains are registered with it so the
// exporter can emit one track per pCPU and per vCPU.
func (pool *Pool) SetTracer(tr *trace.Tracer) {
	pool.tr = tr
	if tr == nil {
		return
	}
	tr.RegisterPCPUs(len(pool.pcpus))
	for _, d := range pool.domains {
		tr.RegisterDomain(d.id, d.Name, len(d.vcpus), pool.eng.Now())
	}
}

// Tracer returns the installed tracer (nil when tracing is disabled).
func (pool *Pool) Tracer() *trace.Tracer { return pool.tr }

// traceState records a vCPU state transition when tracing is enabled.
func (pool *Pool) traceState(v *VCPU, to trace.VState) {
	if pool.tr != nil {
		pool.tr.VCPUState(pool.eng.Now(), v.dom.id, v.id, v.pcpu.id, to)
	}
}

// Config returns the pool configuration.
func (pool *Pool) Config() Config { return pool.cfg }

// PCPUs returns the pool's physical CPUs.
func (pool *Pool) PCPUs() []*PCPU { return pool.pcpus }

// Domains returns the domains in the pool.
func (pool *Pool) Domains() []*Domain { return pool.domains }

// AddDomain creates a domain with nVCPUs vCPUs, all initially blocked
// (the guest boots by kicking vCPU0). The guest may be nil for
// scheduler-only tests and attached later with AttachGuest.
func (pool *Pool) AddDomain(name string, weight float64, nVCPUs int, guest GuestOS) *Domain {
	if nVCPUs <= 0 {
		panic("xen: domain needs at least one vCPU")
	}
	if weight <= 0 {
		panic("xen: domain weight must be positive")
	}
	d := &Domain{
		pool:   pool,
		id:     len(pool.domains),
		Name:   name,
		Weight: weight,
		guest:  guest,
	}
	for i := 0; i < nVCPUs; i++ {
		v := &VCPU{dom: d, id: i, state: StateBlocked, pri: PriUnder}
		v.pcpu = pool.pcpus[(d.id+i)%len(pool.pcpus)] // initial wake affinity, round-robin
		vv := v
		v.timer = sim.NewTimer(pool.eng, fmt.Sprintf("xen/vtimer/%s.%d", name, i), func() {
			pool.Notify(d.timerPorts[vv.id])
		})
		d.vcpus = append(d.vcpus, v)
		d.ipiPorts = append(d.ipiPorts, &Port{Kind: PortIPI, Name: fmt.Sprintf("ipi%d", i), dom: d, target: i})
		d.timerPorts = append(d.timerPorts, &Port{Kind: PortVIRQTimer, Name: fmt.Sprintf("timer%d", i), dom: d, target: i})
	}
	pool.domains = append(pool.domains, d)
	if pool.tr != nil {
		pool.tr.RegisterDomain(d.id, d.Name, len(d.vcpus), pool.eng.Now())
	}
	return d
}

// AttachGuest sets the guest OS of a domain (must happen before Start).
func (d *Domain) AttachGuest(g GuestOS) { d.guest = g }

// Start arms the scheduler tickers. Guests are booted separately.
func (pool *Pool) Start() {
	if pool.started {
		return
	}
	pool.started = true
	pool.tickTicker.Start()
	pool.acctTicker.Start()
	if pool.vscaleTicker != nil {
		pool.vscaleTicker.Start()
	}
}

// Stop cancels the scheduler tickers (used by tests).
func (pool *Pool) Stop() {
	pool.tickTicker.Stop()
	pool.acctTicker.Stop()
	if pool.vscaleTicker != nil {
		pool.vscaleTicker.Stop()
	}
	pool.started = false
}

// priorityClass maps a vCPU to its runqueue ordering class.
func priorityClass(v *VCPU) Priority { return v.pri }

// beats reports whether a should run before b under the pool's policy.
func (pool *Pool) beats(a, b *VCPU) bool {
	if pool.cfg.Policy == PolicyVRT {
		return a.vruntime < b.vruntime
	}
	return priorityClass(a) < priorityClass(b)
}

// insertRunq places v in p's runqueue: under credit, at the tail of its
// priority class (or at its head when front is set, used for
// reconfiguration boosting); under VRT, in virtual-runtime order (front
// jumps the queue entirely).
func (pool *Pool) insertRunq(p *PCPU, v *VCPU, front bool) {
	idx := 0
	if pool.cfg.Policy == PolicyVRT {
		if !front {
			for idx < len(p.runq) && p.runq[idx].vruntime <= v.vruntime {
				idx++
			}
		}
	} else {
		cls := priorityClass(v)
		if front {
			for idx < len(p.runq) && priorityClass(p.runq[idx]) < cls {
				idx++
			}
		} else {
			for idx < len(p.runq) && priorityClass(p.runq[idx]) <= cls {
				idx++
			}
		}
	}
	p.runq = append(p.runq, nil)
	copy(p.runq[idx+1:], p.runq[idx:])
	p.runq[idx] = v
}

// removeRunq removes v from p's runqueue; it panics if absent (that
// would indicate state corruption).
func (pool *Pool) removeRunq(p *PCPU, v *VCPU) {
	for i, q := range p.runq {
		if q == v {
			p.runq = append(p.runq[:i], p.runq[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("xen: vCPU %s.%d not in runqueue of pCPU %d", v.dom.Name, v.id, p.id))
}

// burnRunning charges the running vCPU for CPU consumed since its last
// checkpoint: credits, domain consumption and statistics.
func (pool *Pool) burnRunning(v *VCPU) {
	now := pool.eng.Now()
	delta := now - v.dispatchedAt
	if delta <= 0 {
		return
	}
	v.dispatchedAt = now
	v.credits -= delta
	if v.credits < -pool.cfg.Acct {
		v.credits = -pool.cfg.Acct
	}
	if pool.cfg.Policy == PolicyVRT {
		// Weighted virtual runtime: a vCPU of a heavy domain ages slower.
		// The per-vCPU weight is the domain weight over its active vCPUs
		// (the per-VM weight semantics vScale patches in).
		w := v.dom.Weight / float64(maxInt(1, v.dom.ActiveVCPUs()))
		const refWeight = 256.0
		v.vruntime += sim.Time(float64(delta) * refWeight / w)
	}
	v.RunTime += delta
	v.dom.TotalRunTime += delta
	v.dom.periodConsumed += delta
	v.dom.acctActive = true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// SyncAccounting charges every currently running vCPU for the CPU it
// has consumed since its last checkpoint, bringing per-vCPU credits and
// per-domain consumption counters (Domain.TotalRunTime) up to the
// present instant. The periodic accounting and vScale ticks do this
// before reading consumptions; external observers (a cluster control
// plane sampling per-domain usage between epochs) must call it too, or
// in-flight slices since the last dispatch would be invisible.
func (pool *Pool) SyncAccounting() {
	for _, p := range pool.pcpus {
		if p.current != nil {
			pool.burnRunning(p.current)
		}
	}
}

// dispatch is the scheduler entry point for one pCPU: it charges and
// requeues the current vCPU (if any), picks the best runnable vCPU
// (stealing from peers when locally idle) and runs it.
func (pool *Pool) dispatch(p *PCPU) {
	now := pool.eng.Now()

	if p.current != nil {
		v := p.current
		pool.burnRunning(v)
		p.current = nil
		if v.state == StateRunning {
			// Preempted, still runnable: back to the queue.
			v.state = StateRunnable
			v.queuedAt = now
			v.Preemptions++
			pool.traceState(v, trace.VRunnable)
			pool.insertRunq(p, v, false)
		}
		v.dom.guest.Descheduled(v.id)
	}

	next := pool.pickNext(p)
	if next == nil {
		if !p.idle {
			p.idle = true
			p.idleSince = now
		}
		p.sliceTimer.Stop()
		return
	}
	if p.idle {
		p.IdleTime += now - p.idleSince
		p.idle = false
	}

	wait := now - next.queuedAt
	next.WaitTime += wait
	next.dom.TotalWaitTime += wait

	next.state = StateRunning
	next.pcpu = p
	next.dispatchedAt = now
	next.reconfigBoost = false
	next.Dispatches++
	pool.traceState(next, trace.VRun)
	p.current = next
	p.Switches++
	p.sliceTimer.Reset(pool.cfg.Slice)

	next.dom.guest.Dispatched(next.id)
	pool.flushPending(next)
	pool.kickIdle()
}

// kickIdle puts idle pCPUs to work when runnable vCPUs are queued
// elsewhere (Xen tickles idlers on runqueue insertion, so a preempted
// vCPU never waits while a pCPU idles).
func (pool *Pool) kickIdle() {
	if pool.kicking {
		return
	}
	queued := 0
	for _, q := range pool.pcpus {
		queued += len(q.runq)
	}
	if queued == 0 {
		return
	}
	pool.kicking = true
	for _, q := range pool.pcpus {
		if queued == 0 {
			break
		}
		if q.current == nil {
			pool.dispatch(q)
			if q.current != nil {
				queued--
			}
		}
	}
	pool.kicking = false
}

// pickNext pops the best local vCPU, stealing from peer pCPUs when a
// peer queues a strictly better priority class than anything local
// (Xen's csched_load_balance: UNDER work anywhere beats OVER work here).
func (pool *Pool) pickNext(p *PCPU) *VCPU {
	var local *VCPU
	if len(p.runq) > 0 {
		local = p.runq[0]
	}
	if stolen := pool.steal(p, local); stolen != nil {
		return stolen
	}
	if local != nil {
		n := copy(p.runq, p.runq[1:])
		p.runq[n] = nil
		p.runq = p.runq[:n]
		return local
	}
	return nil
}

// steal searches peer runqueues for a runnable vCPU with a strictly
// better class than localBest (or any vCPU when localBest is nil,
// preferring the best class and the longest wait) and migrates it to p.
func (pool *Pool) steal(p *PCPU, localBest *VCPU) *VCPU {
	var best *VCPU
	var bestOwner *PCPU
	for _, q := range pool.pcpus {
		if q == p || len(q.runq) == 0 {
			continue
		}
		cand := q.runq[0]
		if localBest != nil && !pool.beats(cand, localBest) {
			continue
		}
		if best == nil || pool.beats(cand, best) ||
			(!pool.beats(best, cand) && cand.queuedAt < best.queuedAt) {
			best = cand
			bestOwner = q
		}
	}
	if best == nil {
		return nil
	}
	pool.removeRunq(bestOwner, best)
	if pool.tr != nil {
		pool.tr.Migrate(pool.eng.Now(), best.dom.id, best.id, bestOwner.id, p.id)
	}
	best.pcpu = p
	return best
}

// flushPending delivers all pending event-channel notifications to a
// just-dispatched vCPU.
func (pool *Pool) flushPending(v *VCPU) {
	// A delivery handler can trigger a nested dispatch that descheduled v
	// (e.g. it woke a higher-priority vCPU onto this pCPU), so re-check
	// the state before every delivery; undelivered ports stay pending.
	for v.state == StateRunning && len(v.pendingPorts) > 0 {
		port := v.pendingPorts[0]
		n := copy(v.pendingPorts, v.pendingPorts[1:])
		v.pendingPorts[n] = nil
		v.pendingPorts = v.pendingPorts[:n]
		port.pending = false
		pool.observeDelay(port, pool.eng.Now()-port.pendingAt)
		v.dom.guest.DeliverEvent(v.id, port)
	}
}

// Notify fires an event channel: the core delivery primitive. A running
// target gets the upcall immediately; a queued target receives it on
// next dispatch (this is the delayed-virtual-IPI / delayed-I/O problem
// from Figure 1); a blocked target is woken.
func (pool *Pool) Notify(port *Port) {
	v := port.dom.vcpus[port.target]
	if pool.tr != nil {
		pool.tr.EvtchnSend(pool.eng.Now(), port.dom.id, port.target, port.Kind.String())
	}
	switch v.state {
	case StateRunning:
		pool.observeDelay(port, 0)
		v.dom.guest.DeliverEvent(v.id, port)
	case StateRunnable:
		if !port.pending {
			port.pending = true
			port.pendingAt = pool.eng.Now()
			v.pendingPorts = append(v.pendingPorts, port)
		}
		if v.reconfigBoost {
			// vScale: prioritise vCPUs under reconfiguration — pull the
			// vCPU to the front and preempt whoever runs (§4.2).
			pool.expedite(v)
		}
	case StateBlocked:
		if !port.pending {
			port.pending = true
			port.pendingAt = pool.eng.Now()
			v.pendingPorts = append(v.pendingPorts, port)
		}
		pool.wake(v)
	}
}

// observeDelay records event-channel delivery latency per port kind —
// the delays of the paper's Figure 1(b) (virtual IPIs) and 1(c) (I/O
// interrupts).
func (pool *Pool) observeDelay(port *Port, d sim.Time) {
	switch port.Kind {
	case PortIPI:
		port.dom.IPIDelay.Observe(d.Microseconds())
		if pool.tr != nil {
			pool.tr.IPIDelivery(pool.eng.Now(), port.dom.id, port.target, d)
		}
	case PortIRQ:
		port.dom.IRQDelay.Observe(d.Microseconds())
		if pool.tr != nil {
			pool.tr.IRQDelivery(pool.eng.Now(), port.dom.id, port.target, d)
		}
	}
}

// expedite promotes a queued vCPU to the front of its pCPU and forces an
// immediate reschedule there.
func (pool *Pool) expedite(v *VCPU) {
	p := v.pcpu
	pool.removeRunq(p, v)
	v.pri = PriBoost
	if pool.tr != nil {
		pool.tr.Boost(pool.eng.Now(), v.dom.id, v.id)
	}
	pool.insertRunq(p, v, true)
	pool.dispatch(p)
}

// wake makes a blocked vCPU runnable, applying the policy's wake bonus
// (Xen's boost-on-wake under credit, a bounded sleep bonus under VRT)
// and tickling a pCPU so the wakeup is acted upon.
func (pool *Pool) wake(v *VCPU) {
	now := pool.eng.Now()
	v.state = StateRunnable
	v.queuedAt = now
	v.Wakeups++
	switch pool.cfg.Policy {
	case PolicyVRT:
		// Sleep bonus: a waking vCPU may not lag the pack by more than
		// one slice, and never leads it (no hoarding of virtual time).
		if floor := pool.minVruntime() - pool.cfg.Slice; v.vruntime < floor {
			v.vruntime = floor
		}
	default:
		if v.pri == PriUnder {
			v.pri = PriBoost
			if pool.tr != nil {
				pool.tr.Boost(now, v.dom.id, v.id)
			}
		}
	}

	// Placement: prefer the last pCPU if idle, else any idle pCPU, else
	// queue on the last pCPU and preempt if we beat its current.
	target := v.pcpu
	if target.current != nil {
		for _, q := range pool.pcpus {
			if q.current == nil && len(q.runq) == 0 {
				target = q
				break
			}
		}
	}
	v.pcpu = target
	pool.traceState(v, trace.VRunnable)
	pool.insertRunq(target, v, v.reconfigBoost)
	if target.current == nil {
		pool.dispatch(target)
	} else if pool.beats(v, target.current) || v.reconfigBoost {
		pool.dispatch(target)
	}
}

// minVruntime returns the smallest virtual runtime among running and
// runnable vCPUs (the "pack front" for the VRT sleep bonus).
func (pool *Pool) minVruntime() sim.Time {
	min := sim.MaxTime
	found := false
	for _, p := range pool.pcpus {
		if p.current != nil && p.current.vruntime < min {
			min = p.current.vruntime
			found = true
		}
		for _, v := range p.runq {
			if v.vruntime < min {
				min = v.vruntime
				found = true
			}
		}
	}
	if !found {
		return 0
	}
	return min
}

// Block implements SCHED_block: the guest reports the vCPU has no
// runnable work. Called from guest context (never from inside scheduler
// callbacks).
func (pool *Pool) Block(v *VCPU) {
	switch v.state {
	case StateRunning:
		p := v.pcpu
		v.state = StateBlocked
		pool.traceState(v, trace.VBlocked)
		pool.dispatch(p)
	case StateRunnable:
		pool.removeRunq(v.pcpu, v)
		v.state = StateBlocked
		pool.traceState(v, trace.VBlocked)
	case StateBlocked:
		// Already blocked; nothing to do.
	}
}

// Yield implements SCHED_yield: put the running vCPU at the back of its
// priority class (used by pv-spinlocks when a waiter gives up its slice).
func (pool *Pool) Yield(v *VCPU) {
	if v.state != StateRunning {
		return
	}
	// Demote a boosted yielder for the rest of the accounting period so
	// it does not immediately preempt whoever it yielded to.
	if v.pri == PriBoost {
		v.pri = PriUnder
	}
	pool.dispatch(v.pcpu)
}

// tick is the 10 ms scheduler tick. Under credit it charges running
// vCPUs, demotes boosted vCPUs that consumed a full tick, refreshes
// priorities from credit signs and preempts if a better-class vCPU
// waits. Under VRT it preempts when a queued vCPU lags the running one
// by more than the preemption granularity (one tick).
func (pool *Pool) tick() {
	for _, p := range pool.pcpus {
		v := p.current
		if v == nil {
			continue
		}
		pool.burnRunning(v)
		if pool.cfg.Policy == PolicyVRT {
			if len(p.runq) > 0 && p.runq[0].vruntime+pool.cfg.Tick < v.vruntime {
				pool.dispatch(p)
			}
			continue
		}
		if v.pri == PriBoost {
			v.pri = PriUnder
		}
		pool.refreshPriority(v)
		if len(p.runq) > 0 && priorityClass(p.runq[0]) < priorityClass(v) {
			pool.dispatch(p)
		}
	}
}

// refreshPriority recomputes UNDER/OVER from the credit sign (never
// touches BOOST).
func (pool *Pool) refreshPriority(v *VCPU) {
	if v.pri == PriBoost {
		return
	}
	if v.credits >= 0 {
		v.pri = PriUnder
	} else {
		v.pri = PriOver
	}
}

// acct is the 30 ms credit accounting (csched_acct): distribute one
// accounting period of pool CPU time to active domains in proportion to
// their weights, split each domain's share over its active (non-frozen)
// vCPUs, clamp hoarding, and refresh priorities. The VRT policy needs no
// periodic accounting: weighting happens continuously in burnRunning.
func (pool *Pool) acct() {
	pool.SyncAccounting()
	if pool.cfg.Policy == PolicyVRT {
		return
	}

	// A domain is active for accounting if it consumed CPU during the
	// period or still has runnable (possibly starved) vCPUs: a queued
	// vCPU that never got to run must keep earning credits, or it would
	// starve behind freshly credited competitors.
	active := func(d *Domain) bool {
		if d.acctActive {
			return true
		}
		for _, v := range d.vcpus {
			if v.state != StateBlocked {
				return true
			}
		}
		return false
	}

	var totalWeight float64
	for _, d := range pool.domains {
		if active(d) {
			totalWeight += pool.effectiveWeight(d)
		}
	}
	totalCredit := float64(pool.cfg.Acct) * float64(pool.cfg.PCPUs)

	for _, d := range pool.domains {
		if !active(d) {
			// Inactive domains neither earn nor hoard: reset to a clean
			// UNDER state so they wake with boost and fresh credit.
			for _, v := range d.vcpus {
				if v.credits < 0 {
					v.credits = 0
				}
				pool.refreshPriority(v)
			}
			continue
		}
		share := pool.effectiveWeight(d) / totalWeight * totalCredit
		if d.CapPCPUs > 0 {
			if maxShare := d.CapPCPUs * float64(pool.cfg.Acct); share > maxShare {
				share = maxShare
			}
		}
		active := d.ActiveVCPUs()
		if active == 0 {
			continue
		}
		per := sim.Time(share / float64(active))
		for _, v := range d.vcpus {
			if v.frozen {
				continue
			}
			v.credits += per
			if v.credits > pool.cfg.Acct {
				v.credits = pool.cfg.Acct // anti-hoarding clamp
			}
			if v.pri == PriBoost {
				v.pri = PriUnder
			}
			pool.refreshPriority(v)
			if pool.tr != nil {
				pool.tr.CreditTick(pool.eng.Now(), d.id, v.id, v.credits)
			}
		}
		d.acctActive = false
	}

	// Re-sort runqueues: priorities may have changed class.
	for _, p := range pool.pcpus {
		pool.resortRunq(p)
		if p.current != nil && len(p.runq) > 0 &&
			priorityClass(p.runq[0]) < priorityClass(p.current) {
			pool.dispatch(p)
		}
	}
}

// effectiveWeight returns the domain's accounting weight. With the
// vScale patch (default) weight is per-VM. With PerVCPUWeight (unpatched
// Xen) the share scales with the number of active vCPUs.
func (pool *Pool) effectiveWeight(d *Domain) float64 {
	if !pool.cfg.PerVCPUWeight {
		return d.Weight
	}
	return d.Weight * float64(d.ActiveVCPUs()) / float64(len(d.vcpus))
}

// resortRunq stably re-orders a runqueue by priority class (FIFO within
// class is preserved because the sort is stable by construction).
func (pool *Pool) resortRunq(p *PCPU) {
	if len(p.runq) < 2 {
		return
	}
	sorted := pool.sortRunq[:0]
	for cls := PriBoost; cls <= PriOver; cls++ {
		for _, v := range p.runq {
			if priorityClass(v) == cls {
				sorted = append(sorted, v)
			}
		}
	}
	copy(p.runq, sorted)
	pool.sortRunq = sorted
}

// vscaleTick recomputes every domain's CPU extendability from the last
// period's consumption (Algorithm 1), making it readable through the
// vScale channel.
func (pool *Pool) vscaleTick() {
	pool.SyncAccounting()
	period := pool.vscaleTicker.Period()
	stats := pool.vmStats[:0]
	for _, d := range pool.domains {
		stats = append(stats, core.VMStat{
			ID:               d.Name,
			Weight:           d.Weight,
			Consumption:      d.periodConsumed,
			ReservationPCPUs: d.ReservationPCPUs,
			CapPCPUs:         d.CapPCPUs,
			MaxVCPUs:         len(d.vcpus),
			UP:               len(d.vcpus) == 1,
		})
		d.periodConsumed = 0
	}
	pool.vmStats = stats
	pool.exts = core.ComputeExtendability(pool.exts[:0], stats, pool.cfg.PCPUs, period)
	for i, d := range pool.domains {
		d.ext = pool.exts[i]
	}
	pool.VScaleTicks++
}

// HypercallGetVScaleInfo is SCHEDOP_getvscaleinfo: return the calling
// domain's extendability. The syscall+hypercall cost is charged by the
// guest side (it is guest CPU time).
func (d *Domain) HypercallGetVScaleInfo() core.Extendability { return d.ext }

// HypercallCPUFreeze is SCHEDOP_cpufreeze: the guest marks a vCPU frozen
// (or unfrozen). A frozen vCPU leaves the domain's active list so the
// remaining vCPUs earn more credits; the next IPI to the target is
// expedited so the reconfiguration completes quickly.
func (d *Domain) HypercallCPUFreeze(vcpu int, freeze bool) {
	if vcpu <= 0 && freeze {
		panic("xen: cannot freeze the master vCPU")
	}
	v := d.vcpus[vcpu]
	v.frozen = freeze
	v.reconfigBoost = true
	if tr := d.pool.tr; tr != nil {
		tr.SetFrozen(d.pool.eng.Now(), d.id, vcpu, v.pcpu.id, freeze)
	}
}

// Idle returns the pool's aggregate pCPU idle time (including currently
// idling pCPUs up to now).
func (pool *Pool) Idle() sim.Time {
	var total sim.Time
	now := pool.eng.Now()
	for _, p := range pool.pcpus {
		total += p.IdleTime
		if p.idle {
			total += now - p.idleSince
		}
	}
	return total
}
