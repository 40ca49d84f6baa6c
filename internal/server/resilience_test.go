package server

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"progressdb"
	"progressdb/client"
)

const scanSQL = "select * from t"

// shedError asserts err is a 429/503 shed with the given reason.
func shedError(t *testing.T, err error, status int, reason string) *client.APIError {
	t.Helper()
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %T %v, want *client.APIError", err, err)
	}
	if ae.Status != status || ae.Reason != reason {
		t.Fatalf("shed = %d/%q, want %d/%q (msg %q)", ae.Status, ae.Reason, status, reason, ae.Msg)
	}
	return ae
}

// wantMetrics asserts the /metrics page carries every given line.
func wantMetrics(t *testing.T, cl *client.Client, lines ...string) {
	t.Helper()
	text, err := cl.MetricsText(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range lines {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestAdmissionBudgetShed drives the server into a cost-based shed: with
// a budget sized for one scan, the second submit is rejected with 429,
// reason "budget", and a Retry-After estimate; once the in-flight query
// retires, the budget frees and the same submit is admitted.
func TestAdmissionBudgetShed(t *testing.T) {
	db := syntheticDB(t)
	costU, err := db.EstimateCostU(scanSQL)
	if err != nil {
		t.Fatal(err)
	}
	if costU <= 0 {
		t.Fatalf("estimate = %g, want > 0", costU)
	}
	_, cl := testServer(t, db, Config{Workers: 1, QueueDepth: 4, MaxInflightU: 1.5 * costU})
	ctx := context.Background()

	sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: scanSQL, PaceMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, sub.ID, client.StateRunning)

	_, err = cl.Submit(ctx, client.SubmitRequest{SQL: scanSQL})
	ae := shedError(t, err, http.StatusTooManyRequests, client.ShedBudget)
	if ae.RetryAfterSeconds < 1 {
		t.Fatalf("budget shed Retry-After = %g, want >= 1s", ae.RetryAfterSeconds)
	}

	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.InflightQueries != 1 || h.MaxInflightU != 1.5*costU || h.InflightU <= 0 {
		t.Fatalf("healthz budget figures: %+v", h)
	}
	wantMetrics(t, cl, `server_shed_total{reason="budget"} 1`)

	// Retire the running query: the ledger entry goes with it and the
	// same submit is admitted.
	if _, err := cl.Cancel(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, sub.ID, client.StateCanceled)
	sub2, err := cl.Submit(ctx, client.SubmitRequest{SQL: scanSQL})
	if err != nil {
		t.Fatalf("submit after budget freed: %v", err)
	}
	waitState(t, cl, sub2.ID, client.StateDone)
}

// TestAdmissionDeadlineShed: once the server has observed a drain rate,
// a submit whose estimated completion overshoots its deadline_ms is
// failed fast with reason "deadline"; a generous deadline is admitted.
func TestAdmissionDeadlineShed(t *testing.T) {
	db := syntheticDB(t)
	_, cl := testServer(t, db, Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	// Seed the drain-rate EWMA with one completed run.
	sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: scanSQL})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, sub.ID, client.StateDone)

	_, err = cl.Submit(ctx, client.SubmitRequest{SQL: scanSQL, DeadlineMS: 1})
	ae := shedError(t, err, http.StatusTooManyRequests, client.ShedDeadline)
	if !strings.Contains(ae.Msg, "deadline_ms=1") {
		t.Fatalf("deadline shed message %q does not name the deadline", ae.Msg)
	}

	sub2, err := cl.Submit(ctx, client.SubmitRequest{SQL: scanSQL, DeadlineMS: 600_000})
	if err != nil {
		t.Fatalf("generous deadline rejected: %v", err)
	}
	waitState(t, cl, sub2.ID, client.StateDone)
}

// TestAdmissionQueueFullShed: the queue-depth rejection now carries the
// shed reason and a Retry-After estimate alongside the legacy queue
// capacity field.
func TestAdmissionQueueFullShed(t *testing.T) {
	db := syntheticDB(t)
	_, cl := testServer(t, db, Config{Workers: 1, QueueDepth: 1})
	ctx := context.Background()

	first, err := cl.Submit(ctx, client.SubmitRequest{SQL: scanSQL, PaceMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, first.ID, client.StateRunning)
	if _, err := cl.Submit(ctx, client.SubmitRequest{SQL: scanSQL}); err != nil {
		t.Fatalf("queued submit: %v", err)
	}

	_, err = cl.Submit(ctx, client.SubmitRequest{SQL: scanSQL})
	ae := shedError(t, err, http.StatusTooManyRequests, client.ShedQueueFull)
	if ae.QueueDepth != 1 || ae.RetryAfterSeconds < 1 {
		t.Fatalf("queue-full shed: depth=%d retry-after=%g", ae.QueueDepth, ae.RetryAfterSeconds)
	}
	if _, err := cl.Cancel(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
}

// TestDrainForcesStragglers: a drain whose deadline expires force-cancels
// the running query with exactly one terminal transition, flips the
// server into draining mode (healthz + shed reason), and keeps it there.
func TestDrainForcesStragglers(t *testing.T) {
	db := syntheticDB(t)
	_, cl := testServer(t, db, Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: scanSQL, PaceMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, sub.ID, client.StateRunning)

	// Stream in parallel so the exactly-once terminal event is observable.
	terminals := make(chan client.State, 4)
	go func() {
		cl2 := client.New(cl.BaseURL())
		cl2.Stream(context.Background(), sub.ID, func(ev client.ProgressEvent) error {
			if ev.Terminal() {
				terminals <- ev.State
			}
			return nil
		})
	}()

	dr, err := cl.Drain(ctx, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Drained || dr.ForcedCancels != 1 {
		t.Fatalf("drain = %+v, want one forced cancel", dr)
	}
	info := waitState(t, cl, sub.ID, client.StateCanceled)
	if info.Error == "" {
		t.Fatal("force-canceled query carries no error")
	}
	select {
	case st := <-terminals:
		if st != client.StateCanceled {
			t.Fatalf("terminal event state = %s, want canceled", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no terminal SSE event after forced drain")
	}
	select {
	case st := <-terminals:
		t.Fatalf("second terminal event (%s) after drain", st)
	case <-time.After(50 * time.Millisecond):
	}

	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Fatalf("healthz status = %q, want draining", h.Status)
	}
	_, err = cl.Submit(ctx, client.SubmitRequest{SQL: scanSQL})
	shedError(t, err, http.StatusServiceUnavailable, client.ShedDraining)
	wantMetrics(t, cl, `server_shed_total{reason="draining"} 1`, "server_drains_total 1",
		"server_drain_forced_cancels_total 1", "server_draining 1")

	// Idempotent: a second drain resolves clean immediately.
	dr2, err := cl.Drain(ctx, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !dr2.Drained || dr2.ForcedCancels != 0 {
		t.Fatalf("second drain = %+v, want clean", dr2)
	}
}

// TestDrainClean: with nothing in flight the drain resolves immediately
// and cleanly.
func TestDrainClean(t *testing.T) {
	db := syntheticDB(t)
	s, cl := testServer(t, db, Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select count(*) from t"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, sub.ID, client.StateDone)

	dr := s.Drain(5 * time.Second)
	if !dr.Drained || dr.ForcedCancels != 0 {
		t.Fatalf("drain = %+v, want clean with no forced cancels", dr)
	}
}

// TestUnplannableQueryAdmitted: a query the optimizer cannot price is
// admitted at unknown cost and fails in execution with its real error —
// admission control must not turn planner errors into 429s.
func TestUnplannableQueryAdmitted(t *testing.T) {
	db := syntheticDB(t)
	_, cl := testServer(t, db, Config{Workers: 1, QueueDepth: 4, MaxInflightU: 1})
	ctx := context.Background()

	sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select * from no_such_table"})
	if err != nil {
		t.Fatalf("unplannable query shed at admission: %v", err)
	}
	info := waitState(t, cl, sub.ID, client.StateFailed)
	if !strings.Contains(info.Error, "no_such_table") {
		t.Fatalf("failure lost the planner error: %q", info.Error)
	}
}

// TestFleetHealthSurface: a fleet-backed server reports per-shard breaker
// health through /healthz.
func TestFleetHealthSurface(t *testing.T) {
	f := syntheticFleet(t)
	s := NewFleet(f, Config{Workers: 1, QueueDepth: 4, SampleInterval: -1})
	t.Cleanup(s.Close)
	hs := s.eng.Health()
	if len(hs) != 4 {
		t.Fatalf("fleet health reports %d shards, want 4", len(hs))
	}
	for i, h := range hs {
		if h.Shard != i || h.Breaker != "closed" {
			t.Fatalf("shard %d health %+v, want closed breaker", i, h)
		}
	}
	if dbHealth := (dbEngine{db: syntheticDB(t)}).Health(); dbHealth != nil {
		t.Fatalf("single-DB engine health = %v, want nil", dbHealth)
	}
}

// admissionReport builds a progress report carrying the given figures.
func admissionReport(done, est, elapsed, remaining float64) progressdb.Report {
	return progressdb.Report{DoneU: done, EstimatedCostU: est, ElapsedSeconds: elapsed, RemainingSeconds: remaining}
}

// TestAdmissionLedger unit-tests the ledger arithmetic: budget sums
// remaining work, progress refreshes shrink it, endings free it, and
// Retry-After follows the cheapest running query's scaled estimate.
func TestAdmissionLedger(t *testing.T) {
	r := newRegistry(Config{MaxInflightU: 100}.withDefaults(), newMetrics())
	now := time.Now()
	submit := func(costU float64, at time.Time) (*job, verdict) {
		return r.admit(client.SubmitRequest{SQL: scanSQL}, costU, at)
	}
	q1, v := submit(60, now)
	if v.reason != "" {
		t.Fatalf("q1 shed: %+v", v)
	}
	if _, v := submit(60, now); v.reason != client.ShedBudget || v.inflightU != 60 {
		t.Fatalf("q2 verdict %+v, want budget shed with 60 U in flight", v)
	}
	// q1 progresses: 40 of its 60 U are done, leaving room for q2.
	if got := r.next(now); got != q1 {
		t.Fatalf("next = %v, want q1", got)
	}
	q1.publish(client.EventFromReport(q1.id, admissionReport(40, 60, 10, 5)))
	if got := r.load().inflightU; got != 20 {
		t.Fatalf("inflightU = %g, want 20", got)
	}
	q2, v := submit(60, now)
	if v.reason != "" {
		t.Fatalf("q2 after progress: %+v, want admitted", v)
	}
	if q2.id != "q2" || r.queuePosition(q2) != 1 {
		t.Fatalf("q2 = %s at position %d: a shed submit must not consume an ID or a slot", q2.id, r.queuePosition(q2))
	}
	// Retry-After: q1 ran 10 virtual seconds in 0.05 wall seconds and
	// estimates 5 virtual seconds left → 0.025 wall seconds, clamped to 1.
	r.cancel(q2, "canceled while queued")
	if q2.currentState() != client.StateCanceled || r.queuePosition(q2) != 0 {
		t.Fatal("canceling a queued job did not end it at once")
	}
	if _, v := submit(90, now.Add(50*time.Millisecond)); v.reason != client.ShedBudget || v.retryAfter != 1 {
		t.Fatalf("verdict %+v, want budget shed with Retry-After clamped to 1", v)
	}
	r.finish(q1, client.StateDone, nil, &progressdb.Result{})
	if l := r.load(); l.inflightU != 0 || l.queued+l.running != 0 {
		t.Fatalf("ledger not empty after both ended: %+v", l)
	}
	if got := r.met.inflightQ.Value(); got != 0 {
		t.Fatalf("server_inflight_queries = %g after both ended, want 0", got)
	}

	// Unknown-cost queries are admitted and charge nothing.
	if _, v := submit(-1, now); v.reason != "" {
		t.Fatalf("unknown-cost admit: %+v", v)
	}
	if got := r.load().inflightU; got != 0 {
		t.Fatalf("unknown-cost inflight = %g, want 0", got)
	}
}
