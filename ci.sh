#!/bin/sh
# ci.sh — the repo's check suite: formatting, vet, build (library +
# every cmd binary, the bench module), the progressd end-to-end smoke,
# race tests.
# Run directly or via `make check`.
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l . 2>&1)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi
echo "ok"

echo "== go vet =="
# progresslint is NOT a -vettool here: unitchecker (the protocol vet
# plugins speak) lives in golang.org/x/tools, which this module does not
# vendor. The analyzers run as a standalone binary in the progresslint
# section below instead.
go vet ./...

echo "== go build =="
go build ./...

echo "== bench module =="
# bench/ is a module of its own, so nothing above descends into it, yet it
# compiles against internal packages: vet it and run its tests (the
# -smoke pass through every workload and the oracle, under 5 s).
(cd bench && go vet . && go test ./...)

echo "== build binaries =="
bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
go build -o "$bindir" ./cmd/...
ls "$bindir"

echo "== progresslint =="
# The repo's own analyzers (DESIGN.md §7): wall-clock bans in engine
# packages, executor cancellation safe points, Open/Close unwind
# pairing, metric naming, error wrapping, lock discipline (release on
# all paths, no blocking under a lock, declared lock order) and the
# shared-state audit of the engine-core packages. Exit 1 = findings,
# 2 = the module failed to load. The same run emits the sharedstate
# inventory to a temp file (it is not committed); it must parse,
# enumerate the audited scope, and show the four latched structures
# still guarded.
"$bindir"/progresslint -sharedstate "$bindir"/concurrency.json \
	-assert-guarded "storage.Disk,storage.poolShard,catalog.Catalog,vclock.Group" ./...
grep -q '"package_vars"' "$bindir"/concurrency.json
grep -q '"structs"' "$bindir"/concurrency.json

echo "== fuzz smoke =="
# Short deterministic-budget runs of the fuzz targets; `make fuzz`
# runs them open-ended.
go test -run FuzzParse -fuzz FuzzParse -fuzztime 10s ./internal/faultinject/
go test -run FuzzParseStatement -fuzz FuzzParseStatement -fuzztime 10s ./internal/sqlparser/
go test -run FuzzDecodeInto -fuzz FuzzDecodeInto -fuzztime 5s ./internal/tuple/

echo "== progressd smoke =="
# End to end on an ephemeral port: submit a query, stream one SSE
# progress event, cancel it mid-flight, verify the server metrics, run
# a second query to completion, then exercise the observability plane —
# GET / (embedded dashboard), /api/timeseries (>= 10 series with
# windowed points), /api/history/{id} (the finished query's profile),
# and the -debug-addr surface (/debug/pprof/cmdline, /debug/runtime) —
# before shutting down cleanly. Each check asserts a 200 and, for the
# JSON endpoints, a well-formed decoded body. The smoke then drives
# the resilience surface on a budget-capped server (-max-inflight-u
# semantics, DESIGN.md §10): a second submit shed with 429, reason
# "budget", Retry-After >= 1s; /healthz budget figures; /admin/drain
# force-canceling a paced query exactly once; post-drain submits shed
# with 503 "draining"; and the server_shed_total / server_drains_total
# metrics to match.
"$bindir"/progressd -smoke

echo "== progressd concurrent smoke =="
# The multi-core lift end to end: 6 paced queries on a 4-worker server
# over one shared engine; at least 2 must be observed simultaneously
# "running", every SSE stream monotone with exactly one terminal event,
# every result correct, and the engine leak-free after the storm.
"$bindir"/progressd -workers 4 -smoke

echo "== progressd fleet smoke =="
# Same daemon stack fronting a 4-shard fleet: paced scan with per-shard
# SSE breakdowns and monotone global progress, mid-flight cancel
# propagated to every shard, merged count(*) equal to the full table,
# coordinator fleet_* metrics, and the dashboard's fleet-mode config.
"$bindir"/progressd -shards 4 -smoke

echo "== fault-matrix smoke =="
# 3 seeds x {read-fault, write-fault, latency} over a spilling join:
# error-or-correct results, no temp/page leaks, engine reusable.
# (`make chaos` runs the full randomized schedule suite.)
go test -run 'TestFaultMatrixSmoke|TestInjectedPanicContained' .

echo "== go test -race, with the serving packages 20x beside it =="
# The serving layers' tests are the ones that talk to goroutines they do
# not own, so an ordering that is only usually right shows here first.
# They run twenty times while the race suite competes for the cores —
# the load under which a terminal event published before its accounting
# was seen to lose 1 run in 8.
go test -count=20 ./internal/server ./internal/fleet ./client &
stress=$!
go test -race ./... || { kill $stress 2>/dev/null; exit 1; }
wait $stress

echo "All checks passed."
