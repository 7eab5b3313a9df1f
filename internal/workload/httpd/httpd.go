// Package httpd models the paper's Apache web server experiment (Figure
// 14): an Apache-style worker-pool server inside the guest, an
// httperf-style open-loop client on a separate machine, and a shared
// 1 Gbps link. Connection time reflects the latency of processing the
// SYN in the softirq on the interrupt-bound vCPU (delayed whenever that
// vCPU is preempted); response time adds worker scheduling, per-request
// CPU work and the transfer of the 16 KB reply over the link.
package httpd

import (
	"fmt"

	"vscale/internal/guest"
	"vscale/internal/metrics"
	"vscale/internal/sim"
)

// Config parameterises the server/client pair.
type Config struct {
	// Workers is the Apache worker-thread pool size.
	Workers int
	// RequestCPU is the per-request worker CPU time (parse + file read
	// + send for the 16 KB file).
	RequestCPU sim.Time
	// SoftirqCost is the per-interrupt network-stack cost.
	SoftirqCost sim.Time
	// FileSize is the reply body size in bytes.
	FileSize int
	// LinkBps is the network link speed in bits/second.
	LinkBps float64
	// WireDelay is the one-way wire latency.
	WireDelay sim.Time
	// Backlog bounds the accept queue; connections arriving beyond it
	// are dropped (listen backlog).
	Backlog int
	// Timeout is the client's per-request timeout (httperf --timeout);
	// requests not answered in time count as errors, not replies, even
	// though the server spent CPU on them — which is what makes the
	// baseline's reply rate *decline* past saturation.
	Timeout sim.Time

	// DelayPenaltyThreshold and DelayPenalty model the TCP slow path: a
	// request whose RX interrupt sat undelivered longer than the
	// threshold (a preempted interrupt-bound vCPU, Figure 1c) costs
	// extra CPU when finally served — out-of-order/backlog processing
	// and retransmitted segments. Guest-internal queueing does NOT
	// trigger it, only hypervisor-level interrupt delay, so a VM whose
	// vCPUs are scheduled promptly (vScale) never pays it.
	DelayPenaltyThreshold sim.Time
	DelayPenalty          sim.Time
}

// DefaultConfig matches the paper's setup: 16 KB file over 1 GbE.
func DefaultConfig() Config {
	return Config{
		Workers:     32,
		RequestCPU:  240 * sim.Microsecond,
		SoftirqCost: 15 * sim.Microsecond,
		FileSize:    16 * 1024,
		LinkBps:     1e9,
		WireDelay:   50 * sim.Microsecond,
		Backlog:     511,
		Timeout:     500 * sim.Millisecond,

		DelayPenaltyThreshold: 8 * sim.Millisecond,
		DelayPenalty:          600 * sim.Microsecond,
	}
}

// Link is a shared serialising network link.
type Link struct {
	eng      *sim.Engine
	bps      float64
	nextFree sim.Time
}

// NewLink creates a link with the given bit rate.
func NewLink(eng *sim.Engine, bps float64) *Link {
	return &Link{eng: eng, bps: bps}
}

// SetBps changes the link's bit rate from now on. In-flight transfers
// keep their already-computed departure times; only later Sends price
// at the new rate. The cluster uses this to model live-migration
// traffic contending with guest I/O on the host uplink.
func (l *Link) SetBps(bps float64) {
	if bps > 0 {
		l.bps = bps
	}
}

// Bps returns the link's current bit rate.
func (l *Link) Bps() float64 { return l.bps }

// Send enqueues size bytes and returns the departure (transfer-complete)
// time.
func (l *Link) Send(size int) sim.Time {
	now := l.eng.Now()
	start := now
	if l.nextFree > start {
		start = l.nextFree
	}
	ser := sim.Time(float64(size*8) / l.bps * float64(sim.Second))
	l.nextFree = start + ser
	return l.nextFree
}

// Utilization returns the fraction of time the link has been busy up to
// now (approximate: based on the last departure).
func (l *Link) Utilization() float64 {
	now := l.eng.Now()
	if now == 0 {
		return 0
	}
	busy := l.nextFree
	if busy > now {
		busy = now
	}
	return float64(busy) / float64(now)
}

// request tracks one client connection through the system. Requests
// are pooled per Server (newRequest/release) and bind their event and
// interrupt callbacks once, when first allocated, so steady-state
// traffic schedules them without allocating.
type request struct {
	s  *Server
	t0 sim.Time
	// raisedAt is when the in-flight packet (SYN, then GET) reached the
	// NIC; its interrupt's delivery delay is measured from here.
	raisedAt sim.Time
	// slowPath marks that the request's RX interrupt was delivered late
	// (hypervisor scheduling delay), costing extra CPU to serve.
	slowPath bool
	// pooled marks a request sitting on the free list (double-release
	// guard).
	pooled bool

	onSyn, onGet, onReply sim.EventFunc
	onSynIRQ, onGetIRQ    func(cpuID int)
}

// Result summarises one load level.
type Result struct {
	RateRequested float64 // requests/s offered
	ReplyRate     float64 // replies/s completed within the timeout
	AvgConnMs     float64 // mean connection time, ms
	AvgRespMs     float64 // mean response time, ms
	Errors        uint64  // drops + timeouts
	RxInterrupts  uint64
}

// Server is the Apache model inside a guest kernel.
type Server struct {
	k       *guest.Kernel
	cfg     Config
	dev     *guest.Device
	acceptQ *guest.WaitQueue
	// acceptMu serialises accept() among workers (Apache's accept
	// mutex). Its futex traffic goes through the kernel bucket locks, so
	// lock-holder preemption hits this path exactly as on real
	// Xen/Linux — and pv-spinlocks recover part of it.
	acceptMu *guest.Mutex
	link     *Link
	app      *workloadApp

	conn metrics.Summary // connection times (ms)
	resp metrics.Summary // response times (ms)

	replies uint64
	errors  uint64

	// free is the request pool; inFlight counts requests handed out and
	// not yet released at their terminal event.
	free     []*request
	inFlight int

	// err records the first internal fault (e.g. a worker reaching an
	// undefined phase); subsequent faults are dropped. A faulted worker
	// exits instead of panicking, so one malformed config cannot kill a
	// whole sweep worker.
	err error

	// OnComplete, when set, is invoked once per request at its terminal
	// event: a reply delivered within the timeout (ok=true), a timeout
	// (ok=false), or a backlog drop (ok=false). lat is the time from
	// injection to the terminal event. Load generators hook this to
	// build latency distributions without touching server internals.
	OnComplete func(lat sim.Time, ok bool)
}

// workloadApp is a minimal stand-in for workload.App to avoid an import
// cycle (httpd is imported by workload consumers, not by workload).
type workloadApp struct{ threads int }

// NewServer builds the server: a network device bound to vCPU0 and a
// worker pool blocked on the accept queue. It rejects malformed
// configurations up front so a bad sweep parameter surfaces as an error
// instead of a mid-simulation fault.
func NewServer(k *guest.Kernel, link *Link, cfg Config) (*Server, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	if link == nil {
		return nil, fmt.Errorf("httpd: nil link")
	}
	s := &Server{k: k, cfg: cfg, link: link, app: &workloadApp{}}
	s.dev = k.NewDevice("eth0", 0, cfg.SoftirqCost)
	s.acceptQ = k.NewWaitQueue(cfg.Backlog)
	s.acceptMu = k.NewMutex()
	for w := 0; w < cfg.Workers; w++ {
		s.spawnWorker(w)
	}
	return s, nil
}

// validate rejects configurations the model cannot run sensibly.
func validate(cfg Config) error {
	switch {
	case cfg.Workers <= 0:
		return fmt.Errorf("httpd: Workers = %d, need > 0", cfg.Workers)
	case cfg.RequestCPU <= 0:
		return fmt.Errorf("httpd: RequestCPU = %v, need > 0", cfg.RequestCPU)
	case cfg.FileSize <= 0:
		return fmt.Errorf("httpd: FileSize = %d, need > 0", cfg.FileSize)
	case cfg.LinkBps <= 0:
		return fmt.Errorf("httpd: LinkBps = %g, need > 0", cfg.LinkBps)
	case cfg.Backlog <= 0:
		return fmt.Errorf("httpd: Backlog = %d, need > 0", cfg.Backlog)
	case cfg.Timeout <= 0:
		return fmt.Errorf("httpd: Timeout = %v, need > 0", cfg.Timeout)
	}
	return nil
}

// fail records the first internal fault.
func (s *Server) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Err returns the first internal fault, if any. Callers should check it
// after the simulation window: a non-nil error means results are
// incomplete (some workers exited early).
func (s *Server) Err() error { return s.err }

// worker is one Apache worker thread's program. Its compute and reply
// actions are built and boxed once, so serving a request allocates no
// actions.
type worker struct {
	s     *Server
	id    int
	phase int
	cur   *request

	compute, computeSlow, reply guest.Action
}

func (s *Server) spawnWorker(id int) {
	s.app.threads++
	w := &worker{s: s, id: id}
	w.compute = guest.ActCompute{D: s.cfg.RequestCPU}
	w.computeSlow = guest.ActCompute{D: s.cfg.RequestCPU + s.cfg.DelayPenalty}
	w.reply = guest.ActCall{Cost: 5 * sim.Microsecond, F: w.transmit}
	s.k.Spawn("httpd-worker", guest.Uthread, w, nil)
}

// Next implements guest.Program.
func (w *worker) Next(t *guest.Thread) guest.Action {
	s := w.s
	switch w.phase {
	case 0: // accept: block on the socket wait queue (wake-one)
		w.phase = 1
		return guest.ActDequeue{Q: s.acceptQ}
	case 1: // socket-lock round: sys_accept takes the socket lock
		// briefly (kernel bucket-lock traffic, the pv-spinlock
		// surface), without holding it across blocking.
		w.cur = t.Mailbox.(*request)
		w.phase = 2
		return guest.ActLock{M: s.acceptMu}
	case 2:
		w.phase = 3
		return guest.ActUnlock{M: s.acceptMu}
	case 3: // request work: parse + read the 16 KB file + build reply
		w.phase = 4
		if w.cur.slowPath {
			return w.computeSlow
		}
		return w.compute
	case 4: // transmit the reply over the shared link
		w.phase = 0
		return w.reply
	default:
		// An undefined phase means the worker state machine was
		// corrupted (a programming or config error). Record it and
		// retire this worker; the rest of the sweep keeps running.
		s.fail(fmt.Errorf("httpd: worker %d reached undefined phase %d", w.id, w.phase))
		return guest.ActExit{}
	}
}

// transmit is the reply ActCall body: the reply leaves over the shared
// link and reaches the client one wire delay after departing.
func (w *worker) transmit(*guest.Thread) {
	r := w.cur
	w.cur = nil
	s := w.s
	dep := s.link.Send(s.cfg.FileSize)
	s.k.Engine().At(dep+s.cfg.WireDelay, "httpd/reply", r.onReply)
}

// newRequest takes a request from the pool (allocating and binding its
// callbacks on first use) and stamps its injection time.
func (s *Server) newRequest() *request {
	var r *request
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		r = &request{s: s}
		r.onSyn, r.onSynIRQ = r.syn, r.synIRQ
		r.onGet, r.onGetIRQ = r.get, r.getIRQ
		r.onReply = r.replyArrived
	}
	r.t0 = s.k.Engine().Now()
	r.raisedAt = 0
	r.slowPath = false
	r.pooled = false
	s.inFlight++
	return r
}

// release returns a request to the pool at its terminal event (reply,
// timeout or backlog drop). Releasing one twice is a bookkeeping bug.
func (s *Server) release(r *request) {
	if r.pooled {
		panic("httpd: request released twice")
	}
	r.pooled = true
	s.inFlight--
	s.free = append(s.free, r)
}

// finish records a completed reply at the client and retires the
// request.
func (s *Server) finish(r *request) {
	lat := s.k.Engine().Now() - r.t0
	s.release(r)
	if lat > s.cfg.Timeout {
		s.errors++
		if s.OnComplete != nil {
			s.OnComplete(lat, false)
		}
		return
	}
	s.replies++
	s.resp.Observe(lat.Milliseconds())
	if s.OnComplete != nil {
		s.OnComplete(lat, true)
	}
}

// Client drives the server open-loop at a constant rate for a duration
// and returns the measured result.
type Client struct {
	k    *guest.Kernel
	s    *Server
	cfg  Config
	rand *sim.Rand
	// offer is s.Offer, bound once for every arrival event.
	offer sim.EventFunc
}

// NewClient pairs a client with a server.
func NewClient(s *Server, rand *sim.Rand) *Client {
	return &Client{k: s.k, s: s, cfg: s.cfg, rand: rand, offer: s.Offer}
}

// Run offers ratePerSec connections/s for the given duration, starting
// now. It returns after scheduling the arrivals; read Results after the
// simulation has advanced past the drain time.
func (c *Client) Run(ratePerSec float64, duration sim.Time) {
	if ratePerSec <= 0 {
		return
	}
	gap := sim.Time(float64(sim.Second) / ratePerSec)
	eng := c.k.Engine()
	n := int(float64(duration) / float64(gap))
	start := eng.Now()
	for i := 0; i < n; i++ {
		// Constant rate with ±10% jitter, httperf style.
		at := start + sim.Time(i)*gap + c.rand.Duration(0, gap/10)
		eng.At(at, "httpd/arrival", c.offer)
	}
}

// Offer injects one connection at the current simulation time: SYN
// interrupt → softirq (connection established; connection time
// recorded) → after a client turnaround the GET arrives → softirq posts
// it to the accept queue (or drops it when the backlog is full). Load
// generators call this directly; the terminal outcome is reported
// through OnComplete.
func (s *Server) Offer() {
	r := s.newRequest()
	s.k.Engine().After(s.cfg.WireDelay, "httpd/syn", r.onSyn)
}

// syn: the SYN reaches the NIC and raises the RX interrupt.
func (r *request) syn() {
	r.raisedAt = r.s.k.Engine().Now()
	r.s.dev.Raise(r.onSynIRQ)
}

// synIRQ is the SYN's softirq. The SYN-ACK leaves immediately. If the
// SYN sat pending behind a preempted vCPU, the connection takes the TCP
// slow path (backlog processing, possible client retransmission) and
// will cost extra CPU to serve.
func (r *request) synIRQ(int) {
	s := r.s
	eng := s.k.Engine()
	wire := s.cfg.WireDelay
	if eng.Now()-r.raisedAt > s.cfg.DelayPenaltyThreshold {
		r.slowPath = true
	}
	connected := eng.Now() + wire
	s.conn.Observe((connected - r.t0).Milliseconds())
	// Client turnaround: ACK + GET arrive one RTT later.
	eng.After(2*wire, "httpd/get", r.onGet)
}

// get: the GET reaches the NIC and raises the RX interrupt.
func (r *request) get() {
	r.raisedAt = r.s.k.Engine().Now()
	r.s.dev.Raise(r.onGetIRQ)
}

// getIRQ is the GET's softirq: post the connection to the accept queue,
// or drop it (connection reset) when the backlog is full.
func (r *request) getIRQ(cpuID int) {
	s := r.s
	now := s.k.Engine().Now()
	if now-r.raisedAt > s.cfg.DelayPenaltyThreshold {
		r.slowPath = true
	}
	if s.acceptQ.Post(r, cpuID) {
		return
	}
	s.errors++
	lat := now - r.t0
	s.release(r)
	if s.OnComplete != nil {
		s.OnComplete(lat, false)
	}
}

// replyArrived: the reply's last byte reached the client.
func (r *request) replyArrived() { r.s.finish(r) }

// Result summarises the run: reply rate over the measurement window.
func (s *Server) Result(rate float64, window sim.Time) Result {
	return Result{
		RateRequested: rate,
		ReplyRate:     float64(s.replies) / window.Seconds(),
		AvgConnMs:     s.conn.Mean(),
		AvgRespMs:     s.resp.Mean(),
		Errors:        s.errors,
		RxInterrupts:  s.dev.Interrupts,
	}
}

// Replies returns the number of completed replies so far.
func (s *Server) Replies() uint64 { return s.replies }

// Errors returns drops plus timeouts so far.
func (s *Server) Errors() uint64 { return s.errors }

// Device exposes the network device (for IRQ-binding inspection).
func (s *Server) Device() *guest.Device { return s.dev }
