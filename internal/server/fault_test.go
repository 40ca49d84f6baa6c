package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"progressdb"
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

// TestServedIOConservation: progressd's history profiles carry each
// query's own storage counts, exact on -workers 4. Sixteen copies of Q2
// run through the server on four workers, fault-free and under fault
// schedules that fail and retry some of them and panic one; for every
// count, the profiles' counts, failed queries' included, sum to what
// the engine's counters moved by.
func TestServedIOConservation(t *testing.T) {
	db := progressdb.Open(progressdb.Config{WorkMemPages: 4, BufferPoolPages: 64, ProgressUpdateSeconds: 0.05, Metrics: true})
	if err := db.LoadPaperWorkload(0.002, false); err != nil {
		t.Fatal(err)
	}
	q2, err := progressdb.PaperQuery(2)
	if err != nil {
		t.Fatal(err)
	}
	_, cl := testServer(t, db, Config{Workers: 4, QueueDepth: 16, SampleInterval: -1, KeepAlive: -1})
	ctx := context.Background()
	for _, spec := range []string{
		"",
		"seed=5,writeerr=0.05,transient=0.5,target=temp",
		"seed=7,readerr=0.01,transient=0.5,latency=0.1:0.002",
		"seed=3,panicnth=300",
	} {
		if err := db.SetFaultSpec(spec); err != nil {
			t.Fatal(err)
		}
		before := servedEngineIO(db)
		var ids []string
		for range 16 {
			sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: q2})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, sub.ID)
		}
		var sum progressdb.IOCounts
		failed := 0
		for _, id := range ids {
			if info := waitTerminal(t, cl, id); info.State != client.StateDone {
				failed++
			}
			prof, err := cl.HistoryProfile(ctx, id)
			if err != nil || prof.IO == nil {
				t.Fatalf("spec %q: %s's profile has no counts: %+v, %v", spec, id, prof, err)
			}
			sum = addIO(sum, *prof.IO)
		}
		if after := servedEngineIO(db); addIO(before, sum) != after {
			t.Errorf("spec %q (%d of 16 failed): the engine's counts went from\n%+v\nto\n%+v\nwhile the profiles' sum to\n%+v", spec, failed, before, after, sum)
		}
		t.Logf("spec %q: %d of 16 failed, %+v", spec, failed, sum)
		if err := db.SetFaultSpec(""); err != nil {
			t.Fatal(err)
		}
	}
}

// waitTerminal polls id until it ends.
func waitTerminal(t *testing.T, cl *client.Client, id string) client.QueryInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		info, err := cl.Get(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State.Terminal() {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("query %s stuck in %s", id, info.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// servedEngineIO reads the engine's storage counters, by their /metrics
// names, as one IOCounts.
func servedEngineIO(db *progressdb.DB) progressdb.IOCounts {
	m := map[string]int64{}
	for _, s := range db.Metrics() {
		m[s.Name] = int64(s.Value)
	}
	return progressdb.IOCounts{
		Hits: m["bufferpool_hits_total"], Misses: m["bufferpool_misses_total"],
		Evictions: m["bufferpool_evictions_total"], Writebacks: m["bufferpool_dirty_writebacks_total"],
		SeqReads: m["disk_seq_reads_total"], RandReads: m["disk_rand_reads_total"],
		SeqWrites: m["disk_seq_writes_total"], RandWrites: m["disk_rand_writes_total"],
		Retries: m["storage_io_retries_total"], RetryGiveups: m["storage_io_retry_giveups_total"],
		ReadFaults: m["faultinject_read_faults_total"], WriteFaults: m["faultinject_write_faults_total"],
		TransientFaults: m["faultinject_transient_faults_total"],
		LatencyEvents:   m["faultinject_latency_events_total"], Panics: m["faultinject_panics_total"],
	}
}

// addIO returns a + b, field by field.
func addIO(a, b progressdb.IOCounts) progressdb.IOCounts {
	return progressdb.IOCounts{
		Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses, Evictions: a.Evictions + b.Evictions, Writebacks: a.Writebacks + b.Writebacks,
		SeqReads: a.SeqReads + b.SeqReads, RandReads: a.RandReads + b.RandReads, SeqWrites: a.SeqWrites + b.SeqWrites, RandWrites: a.RandWrites + b.RandWrites,
		Retries: a.Retries + b.Retries, RetryGiveups: a.RetryGiveups + b.RetryGiveups,
		ReadFaults: a.ReadFaults + b.ReadFaults, WriteFaults: a.WriteFaults + b.WriteFaults, TransientFaults: a.TransientFaults + b.TransientFaults,
		LatencyEvents: a.LatencyEvents + b.LatencyEvents, Panics: a.Panics + b.Panics,
	}
}
