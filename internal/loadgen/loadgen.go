// Package loadgen provides a deterministic open-loop request generator:
// Poisson arrivals at a configurable rate driving one httpd server, with
// per-request latency recorded into a fixed-bucket histogram and SLO
// attainment accounting. Open-loop means arrivals never wait for
// completions — exactly the httperf discipline of the paper's Figure 14
// — so an overloaded server accumulates latency instead of silently
// throttling the offered load.
//
// Each generator owns a private sim.Rand stream, so adding or removing
// generators (VM churn) never perturbs the arrival sequence of the
// others, and a fleet of generators across per-host engines stays
// reproducible under any worker interleaving.
package loadgen

import (
	"vscale/internal/metrics"
	"vscale/internal/sim"
	"vscale/internal/workload/httpd"
)

// Config parameterises a generator.
type Config struct {
	// RateRPS is the initial offered load in requests/second. Zero
	// starts the generator paused; SetRate turns it on later.
	RateRPS float64
	// SLO is the per-request latency objective: replies delivered within
	// SLO count toward attainment, everything else (slow replies,
	// timeouts, drops) counts against it.
	SLO sim.Time
	// Buckets overrides the latency-histogram bounds (in milliseconds).
	// Defaults to metrics.DefaultLatencyBuckets.
	Buckets []float64
}

// Stats is a point-in-time snapshot of a generator's accounting.
type Stats struct {
	Offered  uint64 // requests injected
	Done     uint64 // requests that reached a terminal event
	Replies  uint64 // replies delivered within the server timeout
	Errors   uint64 // timeouts + backlog drops
	SLOOk    uint64 // replies delivered within the SLO
	SLOTotal uint64 // requests the SLO is judged over (== Offered)
	// InFlight is the point-in-time backlog: requests offered but not
	// yet terminal (Offered - Done). These count against Attainment —
	// see its doc — so a run cut off mid-epoch reports them here for
	// callers that want to score or exclude them explicitly.
	InFlight uint64
}

// Attainment returns the fraction of offered requests answered within
// the SLO. Requests still in flight count against attainment — an
// open-loop client that never hears back experienced a miss, not a
// statistical exclusion. With nothing offered it returns 1.
func (s Stats) Attainment() float64 {
	if s.Offered == 0 {
		return 1
	}
	return float64(s.SLOOk) / float64(s.Offered)
}

// Add accumulates o into s (fleet- or service-level aggregation).
// InFlight sums too: both are point-in-time backlogs of disjoint
// generators.
func (s *Stats) Add(o Stats) {
	s.Offered += o.Offered
	s.Done += o.Done
	s.Replies += o.Replies
	s.Errors += o.Errors
	s.SLOOk += o.SLOOk
	s.SLOTotal += o.SLOTotal
	s.InFlight += o.InFlight
}

// Share splits a service's total offered rate evenly across its ready
// replicas: the per-replica rate a horizontal autoscaler should drive
// each generator at. Zero ready replicas yield zero (nothing can
// receive load).
func Share(totalRPS float64, ready int) float64 {
	if ready <= 0 {
		return 0
	}
	return totalRPS / float64(ready)
}

// Generator injects Poisson arrivals into one server.
type Generator struct {
	eng  *sim.Engine
	srv  *httpd.Server
	rand *sim.Rand
	slo  sim.Time

	rate    float64
	next    sim.EventRef
	arrival sim.EventFunc // g.arrive, bound once
	armed   bool
	stopped bool
	paused  bool

	stats Stats
	hist  *metrics.Histogram // reply latency, ms, within-timeout replies only

	// Windowed accounting for per-epoch observers (TakeWindow): a stats
	// checkpoint plus a second histogram fed in parallel with hist and
	// swapped out at each window boundary.
	winLast Stats
	winHist *metrics.Histogram
	spare   *metrics.Histogram
}

// New hooks a generator to a server. The generator takes over the
// server's OnComplete hook; the caller supplies the arrival-stream rand
// (fork it from the VM's stream for per-entity isolation). Call Start
// to begin injecting.
func New(eng *sim.Engine, srv *httpd.Server, rand *sim.Rand, cfg Config) *Generator {
	bounds := cfg.Buckets
	if bounds == nil {
		bounds = metrics.DefaultLatencyBuckets()
	}
	g := &Generator{
		eng:     eng,
		srv:     srv,
		rand:    rand,
		slo:     cfg.SLO,
		rate:    cfg.RateRPS,
		hist:    metrics.NewHistogram(bounds),
		winHist: metrics.NewHistogram(bounds),
		spare:   metrics.NewHistogram(bounds),
	}
	g.arrival = g.arrive
	srv.OnComplete = g.complete
	return g
}

// Start begins the arrival process (a no-op when the rate is zero; the
// first SetRate > 0 starts it then).
func (g *Generator) Start() { g.arm() }

// SetRate changes the offered load to rps, rescheduling the pending
// arrival under the new inter-arrival law. rps = 0 pauses the stream.
func (g *Generator) SetRate(rps float64) {
	if g.stopped {
		return
	}
	g.rate = rps
	if g.armed {
		g.eng.Cancel(g.next)
		g.armed = false
	}
	g.arm()
}

// Stop halts the arrival process permanently. Requests already in
// flight still complete and are accounted.
func (g *Generator) Stop() {
	if g.armed {
		g.eng.Cancel(g.next)
		g.armed = false
	}
	g.stopped = true
}

// arm schedules the next arrival.
func (g *Generator) arm() {
	if g.stopped || g.paused || g.armed || g.rate <= 0 {
		return
	}
	mean := sim.Time(float64(sim.Second) / g.rate)
	g.next = g.eng.After(g.rand.ExpDuration(mean), "loadgen/arrival", g.arrival)
	g.armed = true
}

// arrive injects one request and schedules the next arrival.
func (g *Generator) arrive() {
	g.armed = false
	g.stats.Offered++
	g.stats.SLOTotal++
	g.srv.Offer()
	g.arm()
}

// complete is the server's per-request terminal callback.
func (g *Generator) complete(lat sim.Time, ok bool) {
	g.stats.Done++
	if !ok {
		g.stats.Errors++
		return
	}
	g.stats.Replies++
	g.hist.Observe(lat.Milliseconds())
	g.winHist.Observe(lat.Milliseconds())
	if lat <= g.slo {
		g.stats.SLOOk++
	}
}

// Stats returns the current accounting snapshot.
func (g *Generator) Stats() Stats {
	s := g.stats
	s.InFlight = s.Offered - s.Done
	return s
}

// TakeWindow closes the current accounting window: it returns the
// counter deltas since the previous TakeWindow (or since construction)
// together with the reply-latency histogram of just that window, then
// starts a new one. InFlight in the returned Stats is the point-in-time
// backlog at the boundary, not a delta. The returned histogram is only
// valid until the next TakeWindow call (it is recycled). Windowing is
// pure bookkeeping: it schedules no events and draws no randomness, so
// observers calling it cannot perturb the simulation.
func (g *Generator) TakeWindow() (Stats, *metrics.Histogram) {
	cur := g.Stats()
	w := Stats{
		Offered:  cur.Offered - g.winLast.Offered,
		Done:     cur.Done - g.winLast.Done,
		Replies:  cur.Replies - g.winLast.Replies,
		Errors:   cur.Errors - g.winLast.Errors,
		SLOOk:    cur.SLOOk - g.winLast.SLOOk,
		SLOTotal: cur.SLOTotal - g.winLast.SLOTotal,
		InFlight: cur.InFlight,
	}
	g.winLast = cur
	h := g.winHist
	g.winHist, g.spare = g.spare, h
	g.winHist.Reset()
	return w, h
}

// Hist returns the reply-latency histogram (milliseconds). Merge copies
// into a fleet-level histogram rather than mutating this one.
func (g *Generator) Hist() *metrics.Histogram { return g.hist }

// Rate returns the current offered load in requests/second.
func (g *Generator) Rate() float64 { return g.rate }
