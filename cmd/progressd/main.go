// Command progressd serves the progressdb engine over HTTP: submit
// queries asynchronously, stream their live progress indicators as
// Server-Sent Events, fetch results, cancel, and scrape /metrics — the
// paper's Figure 2 interface turned into a network service.
//
// Usage:
//
//	progressd [-addr 127.0.0.1:8080] [-scale 0.02] [-workers 1] [-queue 8]
//
// Then, e.g.:
//
//	curl -s -X POST localhost:8080/queries -d '{"sql":"select ...","pace_ms":100}'
//	curl -N localhost:8080/queries/q1/progress
//	curl -s -X DELETE localhost:8080/queries/q1
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"progressdb"
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
	flag.Parse()

	if _, err := faultinject.Parse(*fault); err != nil {
		fmt.Fprintln(os.Stderr, "progressd: -fault:", err)
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "progressd: -shards must be >= 1")
		os.Exit(2)
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
	// Registered before the line below announces readiness, so whoever
	// waits for that line can signal at once and still get the drain.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
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
