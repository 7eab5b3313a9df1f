package httpd

import (
	"testing"

	"vscale/internal/sim"
)

// TestRequestPoolTerminalPaths drives every terminal path — reply,
// timeout and backlog drop — and checks each returns its request to the
// pool exactly once: the pool's in-flight count drops by one per
// terminal event, and every request is back on the free list at the
// end.
func TestRequestPoolTerminalPaths(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backlog = 1
	cfg.Timeout = 700 * sim.Microsecond
	eng, srv, _ := newServer(t, 1, 1, cfg)
	var offered, done, replies, timeouts, drops int
	srv.OnComplete = func(lat sim.Time, ok bool) {
		done++
		switch {
		case ok:
			replies++
		case lat > cfg.Timeout:
			timeouts++
		default:
			drops++
		}
		if srv.inFlight != offered-done {
			t.Fatalf("after %d terminal events: %d requests out of the pool, want %d", done, srv.inFlight, offered-done)
		}
	}
	// Every 2ms a burst of four connections: two simultaneous ones
	// overflow the one-slot backlog (a drop), and the ones that get in
	// share the single vCPU, so the later replies miss the timeout while
	// the first is answered in time.
	for i := 0; i < 50; i++ {
		at := sim.Time(i) * 2 * sim.Millisecond
		for _, off := range []sim.Time{0, 0, 100 * sim.Microsecond, 200 * sim.Microsecond} {
			eng.At(at+off, "test/offer", func() {
				offered++
				srv.Offer()
			})
		}
	}
	if err := eng.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if done != offered {
		t.Fatalf("%d of %d requests reached a terminal event", done, offered)
	}
	if replies == 0 || timeouts == 0 || drops == 0 {
		t.Fatalf("replies/timeouts/drops = %d/%d/%d, want every terminal path taken", replies, timeouts, drops)
	}
	if srv.inFlight != 0 {
		t.Fatalf("%d requests never returned to the pool", srv.inFlight)
	}
	seen := make(map[*request]bool)
	for _, r := range srv.free {
		if seen[r] {
			t.Fatal("request on the free list twice")
		}
		seen[r] = true
	}
}

func TestRequestDoubleReleasePanics(t *testing.T) {
	_, srv, _ := newServer(t, 1, 1, DefaultConfig())
	r := srv.newRequest()
	srv.release(r)
	defer func() {
		if recover() == nil {
			t.Fatal("second release did not panic")
		}
	}()
	srv.release(r)
}

// warmRequestServer returns a server whose request pool, queues and
// event free lists have reached steady size under one-at-a-time
// traffic.
func warmRequestServer(tb testing.TB) (*sim.Engine, *Server) {
	tb.Helper()
	eng, srv, _ := newServer(tb, 4, 4, DefaultConfig())
	for i := 0; i < 200; i++ {
		offerAndStep(tb, eng, srv)
	}
	return eng, srv
}

// offerAndStep injects one connection and runs 2ms of simulated time,
// long enough for it to be answered.
func offerAndStep(tb testing.TB, eng *sim.Engine, srv *Server) {
	srv.Offer()
	if err := eng.RunUntil(eng.Now() + 2*sim.Millisecond); err != nil {
		tb.Fatal(err)
	}
}

// TestRequestPathAllocs pins the warm request path (SYN and GET
// interrupts, accept, worker compute, reply) at no more than one
// allocation per request: what remains is the occasional remote-wakeup
// IPI closure.
func TestRequestPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under -race")
	}
	eng, srv := warmRequestServer(t)
	if got := testing.AllocsPerRun(200, func() { offerAndStep(t, eng, srv) }); got > 1 {
		t.Fatalf("%v allocs per request, want <= 1", got)
	}
}

// BenchmarkHTTPDRequest measures one request end to end on a warm 4
// pCPU / 4 vCPU server: one op is one Offer plus 2ms of simulated time.
func BenchmarkHTTPDRequest(b *testing.B) {
	eng, srv := warmRequestServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offerAndStep(b, eng, srv)
	}
}
