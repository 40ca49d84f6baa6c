package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"progressdb/client"
)

// TestPanickedJobFailsOnlyThatJob is the acceptance scenario for the
// server's panic boundary: an injected executor panic turns into a
// "failed" job with an internal-error message, the panicked counter
// ticks, and the very next job on the same engine completes normally.
func TestPanickedJobFailsOnlyThatJob(t *testing.T) {
	db := syntheticDB(t)
	_, cl := testServer(t, db, Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	if err := db.SetFaultSpec("panicnth=20"); err != nil {
		t.Fatal(err)
	}
	sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select * from t", Name: "doomed"})
	if err != nil {
		t.Fatal(err)
	}
	info := waitState(t, cl, sub.ID, client.StateFailed)
	if !strings.Contains(info.Error, "internal error") {
		t.Fatalf("failed job error = %q, want an internal error", info.Error)
	}
	if err := db.SetFaultSpec(""); err != nil {
		t.Fatal(err)
	}

	// The engine and the server survive: same SQL now completes.
	sub2, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select * from t where k < 10", Name: "survivor"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, sub2.ID, client.StateDone)

	if err := db.CheckLeaks(); err != nil {
		t.Fatalf("after panicked job: %v", err)
	}
	text, err := cl.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"server_queries_panicked_total 1",
		"server_queries_failed_total 1",
		"server_queries_completed_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestQueryTimeoutFailsJob: a paced query outlives Config.QueryTimeout,
// finishes "failed" with a timeout error (not "canceled" — that state is
// reserved for user cancellation), and ticks the timedout counter;
// an un-paced query on the same server finishes inside the deadline.
// The deadline is wall-clock, so it is set where a loaded host cannot
// turn it around: the un-paced scan takes a few milliseconds of CPU
// (it was seen to miss 120 ms once, under -race with the cores shared)
// and the paced one a minute.
func TestQueryTimeoutFailsJob(t *testing.T) {
	db := syntheticDB(t)
	_, cl := testServer(t, db, Config{Workers: 1, QueueDepth: 4, QueryTimeout: time.Second})
	ctx := context.Background()

	// PaceMS stretches real execution far past the deadline.
	slow, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select * from t", PaceMS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	info := waitState(t, cl, slow.ID, client.StateFailed)
	if !strings.Contains(info.Error, "timeout") {
		t.Fatalf("timed-out job error = %q, want a timeout error", info.Error)
	}

	fast, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select * from t where k < 10"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, fast.ID, client.StateDone)

	if err := db.CheckLeaks(); err != nil {
		t.Fatalf("after timed-out job: %v", err)
	}
	text, err := cl.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"server_queries_timedout_total 1",
		"server_queries_failed_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}
