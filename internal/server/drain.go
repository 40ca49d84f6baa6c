// Graceful drain: SIGTERM (via progressd) and POST /admin/drain both
// funnel into Server.Drain, which stops admitting new queries, lets the
// in-flight ones finish within the drain deadline, and then cancels the
// stragglers at their next executor safe point. Terminal transitions go
// through the ledger's one terminal transition like every other ending,
// so each drained query still publishes exactly one terminal SSE event
// and leaves its history profile exactly once.
package server

import (
	"net/http"
	"strconv"
	"time"

	"progressdb/client"
)

// drainPollInterval is how often Drain re-checks the ledger for live
// jobs while waiting out the deadline.
const drainPollInterval = 5 * time.Millisecond

// drainForceWait bounds the post-cancel wait for force-canceled queries
// to unwind; the executor reaches a safe point within a few page
// accesses, so this is generous.
const drainForceWait = 5 * time.Second

// Drain moves the server into draining mode and waits up to timeout
// (Config.DrainTimeout when <= 0) for in-flight queries to reach a
// terminal state. Queries still alive at the deadline are force-canceled
// and counted in the response. Drain is idempotent: a second call simply
// waits alongside the first. The server stays in draining mode — submits
// are shed with reason "draining" — until Close.
func (s *Server) Drain(timeout time.Duration) client.DrainResponse {
	if timeout <= 0 {
		timeout = s.cfg.DrainTimeout
	}
	if s.reg.drain() {
		s.met.drains.Inc()
		s.met.drainingG.Set(1)
	}
	start := time.Now()
	deadline := start.Add(timeout)
	for time.Now().Before(deadline) {
		if len(s.reg.live()) == 0 {
			return client.DrainResponse{Drained: true, WaitedMS: time.Since(start).Milliseconds()}
		}
		time.Sleep(drainPollInterval)
	}

	// Deadline expired: cancel whatever is left. Queued jobs end at once;
	// running jobs unwind at the executor's next safe point.
	forced := s.reg.live()
	for _, j := range forced {
		s.met.drainForced.Inc()
		s.reg.cancel(j, "canceled by drain")
	}
	forceDeadline := time.Now().Add(drainForceWait)
	for time.Now().Before(forceDeadline) && len(s.reg.live()) > 0 {
		time.Sleep(drainPollInterval)
	}
	return client.DrainResponse{
		Drained:       len(s.reg.live()) == 0 && len(forced) == 0,
		ForcedCancels: len(forced),
		WaitedMS:      time.Since(start).Milliseconds(),
	}
}

// handleDrain is POST /admin/drain?timeout_ms=N. It blocks until the
// drain resolves and reports whether it was clean.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	timeout := s.cfg.DrainTimeout
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "timeout_ms must be a non-negative integer")
			return
		}
		timeout = time.Duration(n) * time.Millisecond
	}
	writeJSON(w, http.StatusOK, s.Drain(timeout))
}
