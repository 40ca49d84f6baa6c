// Command progressd serves the progressdb engine over HTTP: submit
// queries asynchronously, stream their live progress indicators as
// Server-Sent Events, fetch results, cancel, and scrape /metrics — the
// paper's Figure 2 interface turned into a network service.
//
// Usage:
//
//	progressd [-addr 127.0.0.1:8080] [-scale 0.02] [-workers 1] [-queue 8]
//	progressd -smoke             # self-test: submit, stream, cancel, exit
//	progressd -workers 4 -smoke  # concurrency self-test: parallel queries on one engine
//
// Then, e.g.:
//
//	curl -s -X POST localhost:8080/queries -d '{"sql":"select ...","pace_ms":100}'
//	curl -N localhost:8080/queries/q1/progress
//	curl -s -X DELETE localhost:8080/queries/q1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"progressdb"
	"progressdb/client"
	"progressdb/internal/faultinject"
	"progressdb/internal/fleet"
	"progressdb/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	shards := flag.Int("shards", 1, "engine shards; >1 serves a hash-partitioned fleet with aggregated progress")
	scale := flag.Float64("scale", 0.02, "paper workload scale loaded at startup")
	workers := flag.Int("workers", 1, "queries executed in parallel on the shared engine")
	queue := flag.Int("queue", 8, "admission queue depth (full queue → 429)")
	workMem := flag.Int("workmem", 16, "work_mem in 8KiB pages")
	update := flag.Float64("update", 10, "progress refresh period in virtual seconds")
	metrics := flag.Bool("metrics", true, "enable the engine metrics registry")
	fault := flag.String("fault", "", "chaos-testing fault spec, e.g. seed=7,readerr=0.01,transient=0.5,target=temp (see DESIGN.md)")
	queryTimeout := flag.Duration("query-timeout", 0, "per-query wall-clock deadline (0 = none); expired queries fail with a timeout error")
	sample := flag.Duration("sample-interval", time.Second, "timeseries sampler cadence behind /api/timeseries (negative disables)")
	histDepth := flag.Int("history-depth", 256, "finished queries kept addressable (/queries/{id}, its result, its /api/history profile)")
	keepAlive := flag.Duration("keepalive", 15*time.Second, "SSE idle keep-alive interval (negative disables pings)")
	maxInflightU := flag.Float64("max-inflight-u", 0, "in-flight remaining-work admission budget in U (0 = unlimited); excess submits are shed with 429 + Retry-After")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long SIGTERM / POST /admin/drain waits for in-flight queries before force-canceling")
	debugAddr := flag.String("debug-addr", "", "optional listen address for /debug/pprof and /debug/runtime (e.g. 127.0.0.1:6060); empty disables")
	smoke := flag.Bool("smoke", false, "run the self-test (submit, stream, cancel, dashboard + observability API checks, clean shutdown) and exit")
	flag.Parse()

	if _, err := faultinject.Parse(*fault); err != nil {
		fmt.Fprintln(os.Stderr, "progressd: -fault:", err)
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "progressd: -shards must be >= 1")
		os.Exit(2)
	}

	if *smoke {
		var err error
		switch {
		case *shards > 1:
			err = runFleetSmoke(*shards)
		case *workers > 1:
			err = runConcurrentSmoke(*workers)
		default:
			err = runSmoke()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "progressd smoke: FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("progressd smoke: ok")
		return
	}

	shardCfg := progressdb.Config{
		WorkMemPages:          *workMem,
		ProgressUpdateSeconds: *update,
		// Calibrate virtual time to full-scale durations (see DESIGN.md).
		SeqPageCost:  0.8e-3 / *scale,
		RandPageCost: 6.4e-3 / *scale,
		Metrics:      *metrics,
		FaultSpec:    *fault,
	}
	if *fault != "" {
		fmt.Printf("progressd: fault injection armed: %s\n", *fault)
	}
	srvCfg := server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		QueryTimeout:   *queryTimeout,
		SampleInterval: *sample,
		HistoryDepth:   *histDepth,
		KeepAlive:      *keepAlive,
		MaxInflightU:   *maxInflightU,
		DrainTimeout:   *drainTimeout,
	}

	var srv *server.Server
	if *shards > 1 {
		// Fleet mode: N hash-partitioned shard engines behind one
		// coordinator; -fault arms every shard's injector identically.
		fcfg := fleet.Config{Shards: *shards, Shard: shardCfg}
		fcfg.Shard.FaultSpec = ""
		if *fault != "" {
			fcfg.ShardFaultSpecs = make([]string, *shards)
			for i := range fcfg.ShardFaultSpecs {
				fcfg.ShardFaultSpecs[i] = *fault
			}
		}
		f, err := fleet.New(fcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "progressd:", err)
			os.Exit(1)
		}
		fmt.Printf("progressd: loading paper workload at scale %g across %d shards ...\n", *scale, *shards)
		if err := f.LoadPaperWorkload(*scale, false); err != nil {
			fmt.Fprintln(os.Stderr, "progressd:", err)
			os.Exit(1)
		}
		srv = server.NewFleet(f, srvCfg)
	} else {
		db := progressdb.Open(shardCfg)
		fmt.Printf("progressd: loading paper workload at scale %g ...\n", *scale)
		if err := db.LoadPaperWorkload(*scale, false); err != nil {
			fmt.Fprintln(os.Stderr, "progressd:", err)
			os.Exit(1)
		}
		srv = server.New(db, srvCfg)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "progressd:", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Printf("progressd: listening on http://%s (dashboard at /)\n", ln.Addr())

	// The debug surface (pprof, runtime metrics) gets its own listener so
	// it can stay loopback-only while the query API is exposed.
	var dhs *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "progressd: -debug-addr:", err)
			os.Exit(1)
		}
		dhs = &http.Server{Handler: server.DebugHandler()}
		fmt.Printf("progressd: debug surface on http://%s/debug/pprof/\n", dln.Addr())
		go dhs.Serve(dln)
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		// Graceful drain: stop admitting (new submits shed with reason
		// "draining"), let in-flight queries finish within the drain
		// deadline, force-cancel stragglers at their next safe point.
		fmt.Printf("\nprogressd: %s, draining (up to %s)\n", sig, *drainTimeout)
		dr := srv.Drain(*drainTimeout)
		fmt.Printf("progressd: drain done in %d ms (clean=%v, forced cancels=%d), shutting down\n",
			dr.WaitedMS, dr.Drained, dr.ForcedCancels)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "progressd:", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
	if dhs != nil {
		dhs.Shutdown(ctx)
	}
	srv.Close()
}

// runSmoke is the CI self-test: bring the full daemon stack up on an
// ephemeral port with a tiny synthetic table, submit a paced query
// through the Go client, stream at least one SSE progress event, cancel
// it, verify the canceled transition and the metrics counters, and shut
// down cleanly.
func runSmoke() error {
	db := progressdb.Open(progressdb.Config{
		ProgressUpdateSeconds: 0.25,
		SpeedWindowSeconds:    1,
		SeqPageCost:           0.05, // stretch virtual time → many refreshes
		BufferPoolPages:       64,   // keep the scan I/O-bound
		Metrics:               true,
	})
	db.MustCreateTable("t", progressdb.Col("k", progressdb.Int), progressdb.Col("pad", progressdb.Text))
	pad := strings.Repeat("x", 100)
	for i := 0; i < 20000; i++ {
		db.MustInsert("t", int64(i), pad)
	}
	if err := db.Analyze(); err != nil {
		return err
	}
	if err := db.ColdRestart(); err != nil {
		return err
	}

	srv := server.New(db, server.Config{
		Workers:        1,
		QueueDepth:     4,
		SampleInterval: 25 * time.Millisecond, // fast sampler: the smoke run is seconds long
	})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := client.New("http://" + ln.Addr().String())

	sub, err := cl.Submit(ctx, client.SubmitRequest{
		SQL: "select * from t", Name: "smoke", PaceMS: 20,
	})
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fmt.Printf("progressd smoke: submitted %s (%s)\n", sub.ID, sub.State)

	events := 0
	var last client.ProgressEvent
	err = cl.Stream(ctx, sub.ID, func(ev client.ProgressEvent) error {
		last = ev
		if !ev.Terminal() {
			events++
			if events == 1 {
				fmt.Printf("progressd smoke: first event %.1f%% done, %.0fs left\n",
					ev.Percent, ev.RemainingSeconds)
				if _, err := cl.Cancel(ctx, sub.ID); err != nil {
					return fmt.Errorf("cancel: %w", err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if events < 1 {
		return fmt.Errorf("no progress events before terminal")
	}
	if last.State != client.StateCanceled {
		return fmt.Errorf("terminal state = %s, want canceled", last.State)
	}
	info, err := cl.Get(ctx, sub.ID)
	if err != nil {
		return err
	}
	if info.State != client.StateCanceled {
		return fmt.Errorf("snapshot state = %s, want canceled", info.State)
	}
	text, err := cl.MetricsText(ctx)
	if err != nil {
		return err
	}
	for _, want := range []string{"server_queries_admitted_total 1", "server_queries_canceled_total 1"} {
		if !strings.Contains(text, want) {
			return fmt.Errorf("/metrics missing %q", want)
		}
	}

	// Run a second query to completion so the observability plane has a
	// finished profile to serve.
	sub2, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select count(*) from t", Name: "smoke2"})
	if err != nil {
		return fmt.Errorf("submit 2: %w", err)
	}
	if err := cl.Stream(ctx, sub2.ID, func(client.ProgressEvent) error { return nil }); err != nil {
		return fmt.Errorf("stream 2: %w", err)
	}
	if err := smokeObservability(ctx, cl, "http://"+ln.Addr().String(), sub2.ID); err != nil {
		return err
	}

	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	if err := hs.Shutdown(shCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	srv.Close()

	return smokeResilience(ctx)
}

// runConcurrentSmoke proves the -workers N lift end to end on one
// shared engine: submit more paced queries than workers, observe at
// least two simultaneously in state "running", then require every SSE
// stream to be monotone with exactly one terminal event, every query to
// finish "done" with the right answer, and the engine to pass its leak
// checks after the storm.
func runConcurrentSmoke(workers int) error {
	db := progressdb.Open(progressdb.Config{
		ProgressUpdateSeconds: 0.25,
		SpeedWindowSeconds:    1,
		SeqPageCost:           0.05, // stretch virtual time → many refreshes
		BufferPoolPages:       64,   // keep the scans I/O-bound
		Metrics:               true,
	})
	db.MustCreateTable("t", progressdb.Col("k", progressdb.Int), progressdb.Col("pad", progressdb.Text))
	pad := strings.Repeat("x", 100)
	const rows = 20000
	for i := 0; i < rows; i++ {
		db.MustInsert("t", int64(i), pad)
	}
	if err := db.Analyze(); err != nil {
		return err
	}
	if err := db.ColdRestart(); err != nil {
		return err
	}

	srv := server.New(db, server.Config{
		Workers:        workers,
		QueueDepth:     2*workers + 4,
		SampleInterval: -1,
	})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := client.New("http://" + ln.Addr().String())

	// More queries than workers: the surplus must queue, so the admitted
	// ones overlap while the rest wait their turn.
	n := workers + 2
	subs := make([]client.SubmitResponse, n)
	for i := range subs {
		subs[i], err = cl.Submit(ctx, client.SubmitRequest{
			SQL:  "select count(*) from t",
			Name: fmt.Sprintf("conc-%d", i), PaceMS: 30, KeepRows: true,
		})
		if err != nil {
			return fmt.Errorf("submit %d: %w", i, err)
		}
	}
	fmt.Printf("progressd smoke: %d queries submitted to %d workers\n", n, workers)

	// Observe genuine overlap: poll the listing until at least two
	// queries are running at the same instant.
	maxRunning := 0
	for deadline := time.Now().Add(20 * time.Second); maxRunning < 2; {
		if time.Now().After(deadline) {
			return fmt.Errorf("never observed 2 simultaneous running queries (max %d)", maxRunning)
		}
		infos, err := cl.List(ctx)
		if err != nil {
			return fmt.Errorf("list: %w", err)
		}
		running := 0
		for _, info := range infos {
			if info.State == client.StateRunning {
				running++
			}
		}
		if running > maxRunning {
			maxRunning = running
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("progressd smoke: observed %d queries running simultaneously\n", maxRunning)

	// Every stream (replay included) must be monotone and terminate
	// exactly once, in state done, with the correct count.
	for _, sub := range subs {
		lastPct, terminals := -1.0, 0
		var last client.ProgressEvent
		err := cl.Stream(ctx, sub.ID, func(ev client.ProgressEvent) error {
			if ev.Percent < lastPct {
				return fmt.Errorf("progress regressed: %.2f%% after %.2f%%", ev.Percent, lastPct)
			}
			lastPct = ev.Percent
			if ev.Terminal() {
				terminals++
			}
			last = ev
			return nil
		})
		if err != nil {
			return fmt.Errorf("stream %s: %w", sub.ID, err)
		}
		if terminals != 1 || !last.Terminal() {
			return fmt.Errorf("%s: %d terminal events, want exactly 1 (last)", sub.ID, terminals)
		}
		if last.State != client.StateDone {
			return fmt.Errorf("%s: terminal state = %s, want done", sub.ID, last.State)
		}
		res, err := cl.Result(ctx, sub.ID)
		if err != nil {
			return fmt.Errorf("result %s: %w", sub.ID, err)
		}
		if len(res.Rows) != 1 || fmt.Sprint(res.Rows[0][0]) != fmt.Sprint(rows) {
			return fmt.Errorf("%s: count(*) = %v, want %d", sub.ID, res.Rows, rows)
		}
	}
	fmt.Printf("progressd smoke: all %d streams monotone, exactly-once-terminal, correct\n", n)

	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	if err := hs.Shutdown(shCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	srv.Close()
	if err := db.CheckLeaks(); err != nil {
		return fmt.Errorf("after storm: %w", err)
	}
	fmt.Println("progressd smoke: engine leak checks clean")
	return nil
}

// smokeResilience exercises the admission-control and drain surface on a
// dedicated server: drive it into a budget shed (429 + Retry-After with
// reason "budget"), check /healthz reports the remaining-work budget,
// then drain with a short deadline and verify the running query is
// force-canceled and further submits are shed with reason "draining".
func smokeResilience(ctx context.Context) error {
	db := progressdb.Open(progressdb.Config{
		ProgressUpdateSeconds: 0.25,
		SpeedWindowSeconds:    1,
		SeqPageCost:           0.05,
		BufferPoolPages:       64,
		Metrics:               true,
	})
	db.MustCreateTable("t", progressdb.Col("k", progressdb.Int), progressdb.Col("pad", progressdb.Text))
	pad := strings.Repeat("x", 100)
	for i := 0; i < 20000; i++ {
		db.MustInsert("t", int64(i), pad)
	}
	if err := db.Analyze(); err != nil {
		return err
	}
	const sql = "select * from t"
	// Size the budget to fit exactly one scan: the first submit is
	// admitted, the second is shed while the first still has most of its
	// work outstanding.
	costU, err := db.EstimateCostU(sql)
	if err != nil {
		return fmt.Errorf("estimate: %w", err)
	}
	srv := server.New(db, server.Config{
		Workers:        1,
		QueueDepth:     4,
		MaxInflightU:   1.5 * costU,
		SampleInterval: -1,
	})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	cl := client.New("http://" + ln.Addr().String())

	sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: sql, Name: "shed-victim", PaceMS: 50})
	if err != nil {
		return fmt.Errorf("submit paced: %w", err)
	}
	_, err = cl.Submit(ctx, client.SubmitRequest{SQL: sql, Name: "shed-me"})
	if err == nil {
		return fmt.Errorf("second submit admitted; want budget shed (budget %.0f U, cost %.0f U)", 1.5*costU, costU)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		return fmt.Errorf("second submit: %w; want 429", err)
	}
	if ae.Reason != client.ShedBudget {
		return fmt.Errorf("shed reason = %q, want %q", ae.Reason, client.ShedBudget)
	}
	if ae.RetryAfterSeconds < 1 {
		return fmt.Errorf("shed carried Retry-After %.2fs, want >= 1s", ae.RetryAfterSeconds)
	}
	fmt.Printf("progressd smoke: budget shed ok (429 reason=%s retry-after=%.0fs)\n", ae.Reason, ae.RetryAfterSeconds)

	h, err := cl.Health(ctx)
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if h.InflightQueries != 1 || h.MaxInflightU != 1.5*costU {
		return fmt.Errorf("healthz budget: inflight_queries=%d max_inflight_u=%.0f, want 1 and %.0f",
			h.InflightQueries, h.MaxInflightU, 1.5*costU)
	}

	// Drain with a deadline far shorter than the paced query: it must be
	// force-canceled, exactly once, and the server must stop admitting.
	dr, err := cl.Drain(ctx, 200*time.Millisecond)
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if dr.Drained || dr.ForcedCancels != 1 {
		return fmt.Errorf("drain: clean=%v forced=%d, want forced cancel of the paced query", dr.Drained, dr.ForcedCancels)
	}
	info, err := cl.Get(ctx, sub.ID)
	if err != nil {
		return err
	}
	if info.State != client.StateCanceled {
		return fmt.Errorf("drained query state = %s, want canceled", info.State)
	}
	if h, err = cl.Health(ctx); err != nil || h.Status != "draining" {
		return fmt.Errorf("healthz after drain: status=%q err=%w, want draining", h.Status, err)
	}
	_, err = cl.Submit(ctx, client.SubmitRequest{SQL: sql, Name: "too-late"})
	if client.ShedReason(err) != client.ShedDraining {
		return fmt.Errorf("submit after drain: %w, want shed reason %q", err, client.ShedDraining)
	}
	text, err := cl.MetricsText(ctx)
	if err != nil {
		return err
	}
	for _, want := range []string{
		`server_shed_total{reason="budget"} 1`,
		`server_shed_total{reason="draining"} 1`,
		"server_drains_total 1",
		"server_drain_forced_cancels_total 1",
		"server_draining 1",
	} {
		if !strings.Contains(text, want) {
			return fmt.Errorf("/metrics missing %q", want)
		}
	}
	fmt.Printf("progressd smoke: drain ok (forced=%d in %d ms), admission closed\n", dr.ForcedCancels, dr.WaitedMS)

	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	if err := hs.Shutdown(shCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	srv.Close()
	return nil
}

// runFleetSmoke is the sharded-serving CI self-test: bring up an
// n-shard fleet behind the HTTP server, run a paced scan whose SSE
// events must carry per-shard breakdowns with monotone global progress,
// cancel it, run a second query to completion and verify the merged
// result, then check the coordinator's fleet_* metrics and the
// dashboard's fleet-mode config.
func runFleetSmoke(n int) error {
	f, err := fleet.New(fleet.Config{
		Shards: n,
		Shard: progressdb.Config{
			ProgressUpdateSeconds: 0.25,
			SpeedWindowSeconds:    1,
			SeqPageCost:           0.05, // stretch virtual time → many refreshes
			BufferPoolPages:       64,   // keep the scans I/O-bound
		},
	})
	if err != nil {
		return err
	}
	if err := f.CreateTable("t", "k",
		progressdb.Col("k", progressdb.Int), progressdb.Col("pad", progressdb.Text)); err != nil {
		return err
	}
	pad := strings.Repeat("x", 100)
	const rows = 20000
	for i := 0; i < rows; i++ {
		if err := f.Insert("t", int64(i), pad); err != nil {
			return err
		}
	}
	if err := f.Analyze(); err != nil {
		return err
	}
	if err := f.ColdRestart(); err != nil {
		return err
	}

	srv := server.NewFleet(f, server.Config{
		Workers:        1,
		QueueDepth:     4,
		SampleInterval: 25 * time.Millisecond,
	})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	base := "http://" + ln.Addr().String()
	cl := client.New(base)

	sub, err := cl.Submit(ctx, client.SubmitRequest{
		SQL: "select * from t", Name: "fleet-smoke", PaceMS: 20,
	})
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fmt.Printf("progressd smoke: submitted %s (%s) across %d shards\n", sub.ID, sub.State, n)

	events, withShards := 0, 0
	lastPct := -1.0
	var last client.ProgressEvent
	err = cl.Stream(ctx, sub.ID, func(ev client.ProgressEvent) error {
		last = ev
		if ev.Percent < lastPct {
			return fmt.Errorf("progress regressed: %.2f%% after %.2f%%", ev.Percent, lastPct)
		}
		lastPct = ev.Percent
		if len(ev.Shards) > 0 {
			withShards++
			for _, sp := range ev.Shards {
				if sp.Shard < 0 || sp.Shard >= n {
					return fmt.Errorf("event %d names shard %d of %d", ev.Seq, sp.Shard, n)
				}
			}
		}
		if !ev.Terminal() {
			events++
			if events == 1 {
				fmt.Printf("progressd smoke: first event %.1f%% done, %d shard breakdowns\n",
					ev.Percent, len(ev.Shards))
				if _, err := cl.Cancel(ctx, sub.ID); err != nil {
					return fmt.Errorf("cancel: %w", err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if events < 1 {
		return fmt.Errorf("no progress events before terminal")
	}
	if withShards < 1 {
		return fmt.Errorf("no progress event carried a per-shard breakdown")
	}
	if last.State != client.StateCanceled {
		return fmt.Errorf("terminal state = %s, want canceled", last.State)
	}

	// Second query runs to completion; its merged result must cover every
	// shard's partition.
	sub2, err := cl.Submit(ctx, client.SubmitRequest{
		SQL: "select count(*) from t", Name: "fleet-smoke2", KeepRows: true,
	})
	if err != nil {
		return fmt.Errorf("submit 2: %w", err)
	}
	if err := cl.Stream(ctx, sub2.ID, func(client.ProgressEvent) error { return nil }); err != nil {
		return fmt.Errorf("stream 2: %w", err)
	}
	res, err := cl.Result(ctx, sub2.ID)
	if err != nil {
		return fmt.Errorf("result 2: %w", err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return fmt.Errorf("count(*) result shape %dx%d", len(res.Rows), len(res.Rows))
	}
	if got := fmt.Sprint(res.Rows[0][0]); got != fmt.Sprint(rows) {
		return fmt.Errorf("count(*) = %s, want %d", got, rows)
	}
	fmt.Printf("progressd smoke: merged count(*) = %d over %d shards\n", rows, n)

	// Coordinator metrics and the dashboard's fleet-mode config.
	text, err := cl.MetricsText(ctx)
	if err != nil {
		return err
	}
	for _, want := range []string{
		fmt.Sprintf("fleet_shards %d", n),
		"fleet_queries_total 2",
		fmt.Sprintf("fleet_subqueries_total %d", 2*n),
		"fleet_cancels_propagated_total 1",
	} {
		if !strings.Contains(text, want) {
			return fmt.Errorf("/metrics missing %q", want)
		}
	}
	cfgBody, err := httpGet(ctx, base+"/api/dashboard/config")
	if err != nil {
		return fmt.Errorf("dashboard config: %w", err)
	}
	var dcfg client.DashboardConfig
	if err := json.Unmarshal([]byte(cfgBody), &dcfg); err != nil {
		return fmt.Errorf("dashboard config: %w", err)
	}
	if dcfg.Shards != n {
		return fmt.Errorf("dashboard config shards = %d, want %d", dcfg.Shards, n)
	}
	fmt.Println("progressd smoke: fleet metrics + dashboard config ok")

	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	if err := hs.Shutdown(shCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	srv.Close()
	return nil
}

// smokeObservability exercises the observability plane end to end: the
// embedded dashboard page, the timeseries and history APIs (via the
// typed client), and the pprof/runtime debug surface.
func smokeObservability(ctx context.Context, cl *client.Client, base, doneID string) error {
	// Embedded dashboard: served at /, self-contained HTML.
	page, err := httpGet(ctx, base+"/")
	if err != nil {
		return fmt.Errorf("dashboard: %w", err)
	}
	if !strings.Contains(page, "<title>progressd</title>") {
		return fmt.Errorf("dashboard page missing title")
	}
	fmt.Printf("progressd smoke: dashboard served (%d bytes)\n", len(page))

	// Timeseries: the 25 ms sampler has been running the whole smoke;
	// give it a beat and require real windows for engine + server series.
	time.Sleep(100 * time.Millisecond)
	tsr, err := cl.Timeseries(ctx, client.TimeseriesRequest{WindowSeconds: 60})
	if err != nil {
		return fmt.Errorf("timeseries: %w", err)
	}
	withPoints := 0
	for _, s := range tsr.Series {
		if len(s.Points) > 0 {
			withPoints++
		}
	}
	if withPoints < 10 {
		return fmt.Errorf("timeseries: %d series with points, want >= 10", withPoints)
	}
	fmt.Printf("progressd smoke: timeseries serving %d series\n", withPoints)

	// History: both queries are terminal; the completed one must replay
	// its full profile with segments.
	hr, err := cl.History(ctx, "", 0)
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	if hr.Retained < 2 {
		return fmt.Errorf("history retained = %d, want >= 2", hr.Retained)
	}
	prof, err := cl.HistoryProfile(ctx, doneID)
	if err != nil {
		return fmt.Errorf("history profile: %w", err)
	}
	if len(prof.Events) == 0 || prof.Query.State != client.StateDone {
		return fmt.Errorf("history profile incomplete: state %s, %d events", prof.Query.State, len(prof.Events))
	}
	fmt.Printf("progressd smoke: history profile %s: %d events, %d segments\n",
		doneID, len(prof.Events), len(prof.Segments))

	// Debug surface on its own listener, like -debug-addr mounts it.
	dln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	dhs := &http.Server{Handler: server.DebugHandler()}
	go dhs.Serve(dln)
	defer dhs.Close()
	dbase := "http://" + dln.Addr().String()
	if _, err := httpGet(ctx, dbase+"/debug/pprof/cmdline"); err != nil {
		return fmt.Errorf("pprof cmdline: %w", err)
	}
	if body, err := httpGet(ctx, dbase+"/debug/runtime"); err != nil {
		return fmt.Errorf("runtime metrics: %w", err)
	} else if !strings.Contains(body, "/gc/") {
		return fmt.Errorf("runtime metrics dump missing /gc/ entries")
	}
	fmt.Println("progressd smoke: debug surface ok")
	return nil
}

// httpGet fetches a URL, requiring a 200, and returns the body.
func httpGet(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return sb.String(), nil
}
