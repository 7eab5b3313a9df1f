package httpd

import (
	"fmt"

	"vscale/internal/guest"
	"vscale/internal/metrics"
	"vscale/internal/sim"
)

// Checkpoint support (docs/checkpoint.md). A quiesced server — every
// request terminal, every worker back on the accept queue — carries only
// counters, latency summaries, the link's next-free time and the accept
// queue/mutex bookkeeping. Worker state is structural: a blocked worker
// always sits in the accept phase with no current request, which is
// exactly where a freshly built worker blocks, so rebuild + overwrite
// reproduces it. The request free list is a cache and is not captured.

// Checkpoint is the semantic state of a quiesced Server.
type Checkpoint struct {
	Conn         metrics.SummaryState      `json:"conn"`
	Resp         metrics.SummaryState      `json:"resp"`
	Replies      uint64                    `json:"replies"`
	Errors       uint64                    `json:"errors"`
	Interrupts   uint64                    `json:"interrupts"`
	LinkNextFree sim.Time                  `json:"link_next_free"`
	AcceptQ      guest.WaitQueueCheckpoint `json:"accept_q"`
	AcceptMu     guest.MutexCheckpoint     `json:"accept_mu"`
}

// CheckpointState exports the server's state. It errors if the server
// has faulted or is not drained (items or producers on the accept queue,
// a held accept mutex).
func (s *Server) CheckpointState() (Checkpoint, error) {
	if s.err != nil {
		return Checkpoint{}, fmt.Errorf("httpd: server faulted: %w", s.err)
	}
	qcp, err := s.acceptQ.CheckpointState()
	if err != nil {
		return Checkpoint{}, fmt.Errorf("httpd: accept queue: %w", err)
	}
	mcp, err := s.acceptMu.CheckpointState()
	if err != nil {
		return Checkpoint{}, fmt.Errorf("httpd: accept mutex: %w", err)
	}
	return Checkpoint{
		Conn:         s.conn.State(),
		Resp:         s.resp.State(),
		Replies:      s.replies,
		Errors:       s.errors,
		Interrupts:   s.dev.Interrupts,
		LinkNextFree: s.link.nextFree,
		AcceptQ:      qcp,
		AcceptMu:     mcp,
	}, nil
}

// RestoreState overwrites the server's state from a capture. The server
// must have been rebuilt with the same configuration (same worker count)
// and be quiesced with all workers blocked on the accept queue.
func (s *Server) RestoreState(cp Checkpoint) error {
	if s.err != nil {
		return fmt.Errorf("httpd: restore target faulted: %w", s.err)
	}
	if err := s.acceptQ.RestoreState(cp.AcceptQ); err != nil {
		return fmt.Errorf("httpd: accept queue: %w", err)
	}
	s.acceptMu.RestoreState(cp.AcceptMu)
	s.conn.Restore(cp.Conn)
	s.resp.Restore(cp.Resp)
	s.replies = cp.Replies
	s.errors = cp.Errors
	s.dev.Interrupts = cp.Interrupts
	s.link.nextFree = cp.LinkNextFree
	return nil
}
