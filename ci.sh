#!/bin/sh
# ci.sh — the repo's check suite: formatting, vet, build (library +
# every cmd binary, the bench module), the linter, a progressd
# start/stop, a scripted pgsh session, race tests.
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
# all paths, no blocking under a lock, declared lock order). Exit 1 =
# findings, 2 = the module failed to load.
"$bindir"/progresslint ./...

echo "== fuzz smoke =="
# Short deterministic-budget runs of the fuzz targets; `make fuzz`
# runs them open-ended.
go test -run FuzzParse -fuzz FuzzParse -fuzztime 10s ./internal/faultinject/
go test -run FuzzParseStatement -fuzz FuzzParseStatement -fuzztime 10s ./internal/sqlparser/
go test -run FuzzDecodeInto -fuzz FuzzDecodeInto -fuzztime 5s ./internal/tuple/
go test -run FuzzDecodeSequence -fuzz FuzzDecodeSequence -fuzztime 5s ./internal/tuple/

echo "== progressd start/stop =="
# The one check that goes through main() itself — flags into Config, the
# workload load, the listener, the SIGTERM drain — which no test can
# reach. What the daemon serves is internal/server's tests' business.
pdlog="$bindir"/progressd.log
"$bindir"/progressd -addr 127.0.0.1:0 -scale 0.002 >"$pdlog" 2>&1 &
pd=$!
tries=0
until grep -q 'listening on' "$pdlog"; do
	tries=$((tries + 1))
	if [ "$tries" -gt 150 ] || ! kill -0 "$pd" 2>/dev/null; then
		kill "$pd" 2>/dev/null || true
		echo "progressd did not come up:" >&2
		cat "$pdlog" >&2
		exit 1
	fi
	sleep 0.1
done
kill -TERM "$pd"
wait "$pd" || { echo "progressd exited $? on SIGTERM:" >&2; cat "$pdlog" >&2; exit 1; }
grep 'drain done .*clean=true' "$pdlog" || { cat "$pdlog" >&2; exit 1; }

echo "== pgsh scripted session =="
# The other binary exercised through main(): one session piped into the
# stdin pgsh reads — the paper's Q2 under I/O interference (the Figure 2
# box at every refresh, ending at 100 %), EXPLAIN ANALYZE of Q1 (the
# annotated plan, then the per-segment table), the metrics snapshot.
pgout="$bindir"/pgsh.out
printf '%s\n' '\io 5 60 4' '\paper 2' 'explain analyze select * from lineitem' '\metrics' '\q' |
	"$bindir"/pgsh -scale 0.002 >"$pgout" 2>&1 || { echo "pgsh exited $?:" >&2; cat "$pgout" >&2; exit 1; }
for want in 'SQL name *Query 2' '(100% done)' 'SeqScan lineitem .*actual rows=12000' '^seg  *est U' '^engine_queries_total 2$'; do
	grep -q -- "$want" "$pgout" || { echo "pgsh output lacks /$want/:" >&2; cat "$pgout" >&2; exit 1; }
done
echo "ok"

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

echo "== non-test Go lines (make loc) =="
make -s loc

echo "All checks passed."
