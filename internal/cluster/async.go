package cluster

import (
	"fmt"
	"sync"
	"time"

	"vscale/internal/core"
	"vscale/internal/runner"
	"vscale/internal/sim"
)

// The bounded-lag asynchronous executor.
//
// Instead of one fan-out/join barrier per epoch, every host is a queue
// on a persistent runner.Pool whose workers advance it through as many
// epochs as its gates allow; a host that cannot progress parks (returns
// to the pool) and is woken when a shared frontier moves. Virtual time
// is decoupled across hosts up to the lag bound; the only global
// synchronization points are the ones with genuine cross-host meaning:
//
//   - Routing: epoch k's churn batch must be delivered before a host
//     runs it, and an arrival epoch's placement needs the fleet
//     snapshot from boundary base(k) = max(0, k-lag) — so the router
//     waits for the slowest host only up to that stale boundary, and
//     hosts wait for the routing frontier.
//   - The lag bound: no host runs more than lag epochs ahead of the
//     slowest, bounding snapshot memory and placement staleness.
//   - Telemetry: a collection epoch samples every host parked at the
//     same boundary, so an attached collector forces epoch pacing.
//
// Everything a host does between gates — scheduling its batch, running
// its engine, snapshotting, its per-boundary policy pass — is host-
// local and happens on its own timeline, in the order a serial
// epoch-by-epoch loop would produce on that host's engine. That, plus
// the shared router, is why the FleetResult is byte-identical at every
// worker count (reference_test.go keeps such a serial loop as the
// differential reference).
type asyncFleet struct {
	cfg   *FleetConfig
	plan  *epochPlan
	hosts []*Host
	pols  []ScalingPolicy
	rt    *fleetRouter
	res   *FleetResult
	lead  int // run-ahead bound (0 while telemetry is attached)
	last  int // plan.epochs(); epoch index `last` is the drain step
	// end is the done count at which a host stops: last+1 (drained), or
	// the stop boundary of a warm-prefix run.
	end int
	// telFrom is the first boundary with a collection epoch (the warm
	// boundary when a warm prefix is configured); ckpt is the capture
	// boundary (cfg.CheckpointEpoch, 0 for none).
	telFrom int
	ckpt    int

	pool *runner.Pool

	mu   sync.Mutex
	cond *sync.Cond // the router's wait channel; hosts park by returning
	// routed is the routing frontier: epochs [0, routed) have their
	// batches delivered.
	routed int
	// done[i] counts host i's completed epochs (end = finished);
	// minDone/minCount track the minimum incrementally.
	done     []int
	minDone  int
	minCount int
	// pendingPolicy[i] marks host i parked at boundary done[i] with its
	// policy pass still owed (it may be gated on telemetry).
	pendingPolicy []bool
	// telemetryDone is the last boundary whose collection epoch has
	// closed (only consulted when a collector is attached).
	telemetryDone int
	// elDone is the last boundary whose elasticity pass has committed
	// (only consulted when the elasticity layer is on): hosts owing a
	// post-warm policy pass park until the control plane has run the
	// boundary's migration/replica-set pass over the frozen fleet.
	elDone int
	// ckptDone opens the capture gate: hosts parked at the checkpoint
	// boundary resume once the control plane has captured the fleet.
	ckptDone bool
	// batches[i][k] is host i's routed churn for epoch k; written by the
	// router before it publishes routed = k+1.
	batches [][][]routedEvent
	// snaps[i] holds host i's published boundary snapshots, only for
	// boundaries some arrival epoch will place with (rt.needBoundary);
	// the router consumes each exactly once.
	snaps []map[int]hostSnap

	failErr   error
	failEpoch int
	failHost  int

	hostWall []time.Duration
}

// hostSnap is one host's published epoch-boundary state, the
// bounded-staleness input to placement.
type hostSnap struct {
	stats     []core.VMStat
	committed int
}

// testEpochHook, when non-nil, observes (and may slow down) a host
// about to run an epoch — a test seam for skewing host pacing. Set and
// cleared only while no fleet is running.
var testEpochHook func(host, epoch int)

// runBoundedLag executes the fleet asynchronously; see asyncFleet.
// start is the first epoch to run (the capture boundary when resuming
// from a checkpoint). A positive stop parks every host at that
// boundary — still quiesced and unarmed, none of the boundary's work
// begun — and returns the retained placement window there, the
// warm-prefix exit CaptureWarmPrefix captures from; stop 0 runs
// through the drain. pre preloads the retained placement snapshots a
// restored run still owes the router.
func runBoundedLag(cfg *FleetConfig, plan *epochPlan, hosts []*Host, pols []ScalingPolicy, rt *fleetRouter, res *FleetResult, start, stop int, pre []RingBoundary) ([]RingBoundary, error) {
	f := &asyncFleet{
		cfg:           cfg,
		plan:          plan,
		hosts:         hosts,
		pols:          pols,
		rt:            rt,
		res:           res,
		lead:          rt.lag,
		last:          plan.epochs(),
		end:           plan.epochs() + 1,
		telFrom:       telemetryFrom(cfg),
		ckpt:          cfg.CheckpointEpoch,
		routed:        start,
		done:          make([]int, len(hosts)),
		minDone:       start,
		minCount:      len(hosts),
		pendingPolicy: make([]bool, len(hosts)),
		batches:       make([][][]routedEvent, len(hosts)),
		snaps:         make([]map[int]hostSnap, len(hosts)),
		hostWall:      make([]time.Duration, len(hosts)),
	}
	if stop > 0 {
		f.end = stop
	}
	f.cond = sync.NewCond(&f.mu)
	tel := cfg.Telemetry != nil
	for i := range hosts {
		f.batches[i] = make([][]routedEvent, f.last)
		f.snaps[i] = map[int]hostSnap{}
		f.done[i] = start
		// A restored run starts with the capture boundary's work still
		// owed (its collection epoch and, past the warm boundary, its
		// policy pass) — exactly what the uninterrupted run performed
		// there after capturing.
		f.pendingPolicy[i] = start > cfg.WarmEpochs || (tel && start >= f.telFrom)
	}
	for _, rb := range pre {
		for i := range hosts {
			f.snaps[i][rb.Boundary] = hostSnap{stats: rb.Stats[i], committed: rb.Committed[i]}
		}
	}
	if cfg.Telemetry != nil || rt.el != nil {
		// Every collection epoch — and every elasticity pass, which
		// mutates hosts fleet-wide — samples all hosts parked at one
		// boundary: a global sync point, so run-ahead is disabled and the
		// executor paces epoch by epoch (results are identical either
		// way; only wall-clock behaviour changes).
		f.lead = 0
	}

	wall := time.Now()
	f.pool = runner.NewPool(cfg.Workers, len(hosts), f.advance)
	f.pool.WakeAll()
	ring, err := f.route()
	f.pool.Close()

	if rep := cfg.Report; rep != nil {
		// One job per host: its wall clock sums the executor chunks that
		// advanced it.
		rep.Jobs += len(hosts)
		if w := f.pool.Workers(); w > rep.Workers {
			rep.Workers = w
		}
		rep.Wall += time.Since(wall)
		rep.JobWall = append(rep.JobWall, f.hostWall...)
	}
	return ring, err
}

// route is the control-plane loop, run on the RunFleet goroutine: it
// routes churn epochs in trace order (waiting on the slowest host only
// when an arrival epoch needs its base snapshot), interleaves telemetry
// collection epochs when a collector is attached, and finally waits for
// every host to drain — or, with a stop boundary, for every host to
// park there, returning the placement window the capture needs.
func (f *asyncFleet) route() ([]RingBoundary, error) {
	tel := f.cfg.Telemetry != nil
	start := f.routed
	for k := start; k < min(f.end, f.last); k++ {
		if f.ckpt > 0 && k == f.ckpt {
			// The capture barrier precedes boundary k's collection epoch:
			// the snapshot excludes the boundary's own collection and
			// policy work, which the restored run replays.
			if err := f.captureBarrier(); err != nil {
				return nil, err
			}
		}
		if tel && k >= f.telFrom {
			// Boundary k's collection epoch precedes epoch k's routing
			// (counters reflect epochs [0, k)).
			if err := f.collectBoundary(k, f.plan.ends[k-1]); err != nil {
				return nil, err
			}
		}
		if f.rt.el != nil && k > f.cfg.WarmEpochs {
			// Boundary k's elasticity pass precedes epoch k's routing:
			// migrations commit and replicas scale before the epoch's
			// arrivals are placed.
			if err := f.elasticityBarrier(k); err != nil {
				return nil, err
			}
		}
		var stats [][]core.VMStat
		var committed []int
		if f.plan.hasArrival[k] {
			b := f.rt.baseFor(k)
			f.mu.Lock()
			for f.minDone < b && f.failErr == nil {
				f.cond.Wait()
			}
			if f.failErr != nil {
				f.mu.Unlock()
				return nil, f.failErr
			}
			stats, committed = f.gatherLocked(b)
			f.mu.Unlock()
		}
		batches, err := f.rt.routeEpoch(k, stats, committed)
		if err != nil {
			f.mu.Lock()
			f.failLocked(err, k, -1)
			f.mu.Unlock()
			f.pool.WakeAll()
			return nil, err
		}
		if batches != nil {
			for i := range f.hosts {
				f.batches[i][k] = batches[i]
			}
		}
		f.mu.Lock()
		f.routed = k + 1
		f.mu.Unlock()
		f.pool.WakeAll()
	}
	// A run with a stop boundary ends there: the hosts park at it, with
	// none of the horizon's boundary work or the drain ahead of them.
	drain := f.end > f.last
	if drain && tel {
		// The horizon boundary's collection epoch (end of the last churn
		// epoch), before any host starts draining.
		if err := f.collectBoundary(f.last, f.plan.ends[f.last-1]); err != nil {
			return nil, err
		}
	}
	if drain && f.rt.el != nil && f.last > f.cfg.WarmEpochs {
		// The horizon boundary's elasticity pass (commits only — no new
		// migrations or replicas start with no epoch left to run them).
		if err := f.elasticityBarrier(f.last); err != nil {
			return nil, err
		}
	}
	f.mu.Lock()
	for f.minDone < f.end && f.failErr == nil {
		f.cond.Wait()
	}
	err := f.failErr
	var ring []RingBoundary
	if err == nil && !drain {
		ring = f.ringLocked(f.end)
	}
	f.mu.Unlock()
	if err != nil || !drain {
		return ring, err
	}
	// Terminal collection epoch on the fully drained fleet.
	collectTelemetry(f.cfg.Telemetry, f.cfg.Horizon+f.cfg.Drain, f.hosts, f.res, f.cfg.SLO, f.rt)
	return nil, nil
}

// elasticityBarrier waits until every host is parked at boundary k
// (their policy pass gated on elDone), runs the migration/replica-set
// pass over the frozen fleet, then opens the gate. At the checkpoint
// boundary the post-capture load resume happens here too, on the
// control plane, before the pass reads the boundary observations.
func (f *asyncFleet) elasticityBarrier(k int) error {
	f.mu.Lock()
	for f.minDone < k && f.failErr == nil {
		f.cond.Wait()
	}
	if f.failErr != nil {
		f.mu.Unlock()
		return f.failErr
	}
	f.mu.Unlock()
	// No host can be past boundary k (its policy pass needs elDone >=
	// k), so every engine is frozen while the pass mutates the fleet.
	if f.ckpt > 0 && k == f.ckpt {
		for _, h := range f.hosts {
			h.ResumeLoad()
		}
	}
	f.rt.el.pass(k, f.plan.ends[k-1])
	f.mu.Lock()
	f.elDone = k
	f.mu.Unlock()
	f.pool.WakeAll()
	return nil
}

// collectBoundary waits until every host is parked at boundary k (its
// epoch k-1 done, its boundary-k policy pass gated on us), samples the
// fleet, then opens the gate.
func (f *asyncFleet) collectBoundary(k int, now sim.Time) error {
	f.mu.Lock()
	for f.minDone < k && f.failErr == nil {
		f.cond.Wait()
	}
	if f.failErr != nil {
		f.mu.Unlock()
		return f.failErr
	}
	f.mu.Unlock()
	// No host can be past boundary k (its policy pass needs
	// telemetryDone >= k), so every engine is frozen while we read.
	collectTelemetry(f.cfg.Telemetry, now, f.hosts, f.res, f.cfg.SLO, f.rt)
	f.mu.Lock()
	f.telemetryDone = k
	f.mu.Unlock()
	f.pool.WakeAll()
	return nil
}

// captureBarrier waits until every host is parked at the checkpoint
// boundary (their boundary work gated on ckptDone), captures the fleet
// while all engines are frozen, then opens the gate. The capture is
// read-only, so the continuing run is byte-identical to one that never
// captured (beyond the quiesce barrier both share).
func (f *asyncFleet) captureBarrier() error {
	b := f.ckpt
	f.mu.Lock()
	for f.minDone < b && f.failErr == nil {
		f.cond.Wait()
	}
	if f.failErr != nil {
		f.mu.Unlock()
		return f.failErr
	}
	ring := f.ringLocked(b)
	f.mu.Unlock()
	// No host can be past boundary b (its boundary work needs ckptDone),
	// so every engine is frozen while we read.
	var err error
	if f.cfg.CheckpointPath != "" {
		var cp *FleetCheckpoint
		cp, err = captureFleet(f.cfg, f.hosts, f.pols, f.rt, f.res, ring, b, f.plan.ends[b-1])
		if err == nil {
			err = SaveCheckpoint(f.cfg.CheckpointPath, cp)
		}
	}
	f.mu.Lock()
	if err != nil {
		f.failLocked(err, b, -1)
		f.mu.Unlock()
		f.pool.WakeAll()
		return err
	}
	f.ckptDone = true
	f.mu.Unlock()
	f.pool.WakeAll()
	return nil
}

// ringLocked assembles the retained placement-snapshot window at a
// capture boundary b: the boundaries in [max(1, b-lag), b] that some
// arrival epoch at or past b places with. (Older needed boundaries were
// already consumed, and boundary 0, the empty fleet, is implicit.) The
// snaps maps still hold every one of them: an entry at x is consumed by
// arrival epoch x+lag >= b, which is not yet routed. Entries are
// copied, not consumed.
func (f *asyncFleet) ringLocked(b int) []RingBoundary {
	var out []RingBoundary
	lo := b - f.rt.lag
	if lo < 1 {
		lo = 1
	}
	for x := lo; x <= b; x++ {
		if !f.rt.needBoundary(x) {
			continue
		}
		stats := make([][]core.VMStat, len(f.hosts))
		committed := make([]int, len(f.hosts))
		for i := range f.hosts {
			s, ok := f.snaps[i][x]
			if !ok {
				panic(fmt.Sprintf("cluster: host %d never published boundary %d", i, x))
			}
			stats[i] = s.stats
			committed[i] = s.committed
		}
		out = append(out, RingBoundary{Boundary: x, Stats: stats, Committed: committed})
	}
	return out
}

// gatherLocked assembles the fleet snapshot at boundary b, consuming
// the hosts' published entries. Boundary 0 is the empty initial fleet.
func (f *asyncFleet) gatherLocked(b int) ([][]core.VMStat, []int) {
	stats := make([][]core.VMStat, len(f.hosts))
	committed := make([]int, len(f.hosts))
	if b == 0 {
		return stats, committed
	}
	for i := range f.hosts {
		s, ok := f.snaps[i][b]
		if !ok {
			panic(fmt.Sprintf("cluster: host %d never published boundary %d", i, b))
		}
		stats[i] = s.stats
		committed[i] = s.committed
		delete(f.snaps[i], b)
	}
	return stats, committed
}

// advance is the pool's run function for one host queue: it advances
// the host through epochs until a gate blocks it, then parks. All work
// outside f.mu touches only host-local state.
func (f *asyncFleet) advance(i int) {
	h := f.hosts[i]
	for {
		f.mu.Lock()
		if f.failErr != nil || f.done[i] >= f.end {
			f.mu.Unlock()
			return
		}
		k := f.done[i]
		if f.pendingPolicy[i] {
			if f.cfg.Telemetry != nil && k >= f.telFrom && f.telemetryDone < k {
				f.mu.Unlock()
				return // park until boundary k's collection epoch closes
			}
			if f.ckpt > 0 && k == f.ckpt && !f.ckptDone {
				f.mu.Unlock()
				return // park until the control plane captured the fleet
			}
			if f.rt.el != nil && k > f.cfg.WarmEpochs && f.elDone < k {
				f.mu.Unlock()
				return // park until boundary k's elasticity pass commits
			}
			// With the elasticity layer on, the post-capture resume is the
			// control plane's (elasticityBarrier), not the host's.
			resume := f.ckpt > 0 && k == f.ckpt && f.rt.el == nil
			f.mu.Unlock()
			if resume {
				// Post-capture: release this host's quiesce barrier, on the
				// host's own timeline (the engines of hosts still running
				// their policy passes must not be touched from here).
				h.ResumeLoad()
			}
			if k > f.cfg.WarmEpochs {
				t0 := time.Now()
				h.boundaryPolicy(f.pols[i], f.plan.ends[k-1]-f.plan.starts[k-1])
				f.mu.Lock()
				f.hostWall[i] += time.Since(t0)
			} else {
				f.mu.Lock()
			}
			f.pendingPolicy[i] = false
			f.mu.Unlock()
			continue
		}
		if k < f.last && f.routed <= k {
			f.mu.Unlock()
			return // park until epoch k's batch is routed
		}
		if k > f.minDone+f.lead {
			f.mu.Unlock()
			return // park: lag bound reached, the slowest host gates us
		}
		f.mu.Unlock()

		if hook := testEpochHook; hook != nil {
			hook(i, k)
		}
		t0 := time.Now()
		var err error
		var snap []core.VMStat
		committed := 0
		if k < f.last {
			h.scheduleRouted(f.batches[i][k])
			if quiesceBefore(f.cfg, k) {
				// After the batch: the quiesce event follows the epoch's
				// churn in engine order.
				h.ScheduleQuiesce(f.plan.starts[k])
			}
			if err = h.RunEpoch(f.plan.ends[k]); err == nil {
				snap = h.Snapshot(f.plan.ends[k] - f.plan.starts[k])
				committed = h.CommittedVCPUs()
				if f.cfg.WarmEpochs > 0 && k+1 == f.cfg.WarmEpochs && k+1 < f.end {
					// The warm boundary: arm the mechanisms and resume the
					// load (Snapshot, then Arm) before publishing done =
					// k+1. A warm-prefix run stops here disarmed instead.
					h.Arm()
				}
			}
		} else {
			// The drain step: all churn epochs are behind us (the routing
			// gate saw to that), so retire every VM and run out the clock.
			h.StopAll()
			err = h.RunEpoch(f.cfg.Horizon + f.cfg.Drain)
		}
		wall := time.Since(t0)

		f.mu.Lock()
		f.hostWall[i] += wall
		if err != nil {
			f.failLocked(err, k, i)
			f.mu.Unlock()
			return
		}
		if k < f.last {
			if f.rt.needBoundary(k + 1) {
				f.snaps[i][k+1] = hostSnap{stats: snap, committed: committed}
			}
			// Boundary k+1 owes work unless it is inside the warm prefix:
			// a policy pass past the warm boundary, and the collection /
			// capture gates from the boundary itself.
			f.pendingPolicy[i] = k+1 > f.cfg.WarmEpochs ||
				(f.cfg.Telemetry != nil && k+1 >= f.telFrom)
		}
		f.done[i] = k + 1
		f.bumpMinLocked(k)
		f.mu.Unlock()
	}
}

// bumpMinLocked maintains minDone/minCount after a host advanced past
// `old`, and wakes the fleet when the global minimum moves: the router
// may be waiting on it, and parked hosts' lag bounds just loosened.
func (f *asyncFleet) bumpMinLocked(old int) {
	if old != f.minDone {
		return
	}
	if f.minCount--; f.minCount > 0 {
		return
	}
	min := f.done[0]
	for _, d := range f.done[1:] {
		if d < min {
			min = d
		}
	}
	count := 0
	for _, d := range f.done {
		if d == min {
			count++
		}
	}
	f.minDone, f.minCount = min, count
	f.cond.Broadcast()
	f.pool.WakeAll()
}

// failLocked records the first failure by (epoch, host) order — a
// deterministic choice when a single fault is in play — and wakes
// everyone so the run unwinds.
func (f *asyncFleet) failLocked(err error, epoch, host int) {
	if f.failErr == nil || epoch < f.failEpoch || (epoch == f.failEpoch && host < f.failHost) {
		f.failErr, f.failEpoch, f.failHost = err, epoch, host
	}
	f.cond.Broadcast()
}
