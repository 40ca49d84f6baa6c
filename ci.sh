#!/bin/sh
# ci.sh — the repo's check suite: formatting, vet, build (library +
# every cmd binary, the bench module), the linter, a progressd
# start/stop, a scripted pgsh session, the ledger and a figure through
# experiments, one pass of the root benchmarks, the optimizer benchmark,
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
# ChargeCPU's batch is only cheap while it inlines into every operator.
go build -gcflags=-m ./internal/vclock 2>&1 | grep -q 'can inline (\*Clock).ChargeCPU' || { echo "(*Clock).ChargeCPU no longer inlines" >&2; exit 1; }
# Likewise the record check DecodeInto and FieldOffsets share, per field.
go build -gcflags=-m ./internal/tuple 2>&1 | grep -q 'can inline fieldEnd' || { echo "tuple.fieldEnd no longer inlines" >&2; exit 1; }
# And the cancel countdown every safe point passes, per row.
go build -gcflags=-m ./internal/exec 2>&1 | grep -q 'can inline (\*Env).checkCancel' || { echo "(*Env).checkCancel no longer inlines" >&2; exit 1; }
# And the counter block's per-row adds: a segment input's, a segment
# output's and a multi-stage row's, and an operator's emitted row.
execm=$(go build -gcflags=-m ./internal/exec 2>&1)
for f in '(\*Env).countIn' '(\*Env).countOut' '(\*Env).countExtra' 'counter.emit' 'counter.emitBytes' 'counter.emitPair'; do
	echo "$execm" | grep -q "can inline $f$" || { echo "$f no longer inlines" >&2; exit 1; }
done

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
# The repo's own analyzers (DESIGN.md §7), the two rules that need type
# information: error wrapping, and no blocking under a lock (directly,
# through module calls or through function values). Virtual time and
# the cancel bound are tests (TestEngineImportsNoTime, TestUnwindSweep).
# Exit 1 = findings, 2 = the module failed to load. `go test ./...` runs
# the same suite as TestModuleLintClean; this is the binary's end-to-end
# check.
"$bindir"/progresslint ./...

echo "== fuzz smoke =="
# Short deterministic-budget runs of the fuzz targets; `make fuzz`
# runs them open-ended. FuzzUnwind's points check the cancel bound too.
go test -run FuzzParse -fuzz FuzzParse -fuzztime 10s ./internal/faultinject/
go test -run FuzzParseStatement -fuzz FuzzParseStatement -fuzztime 10s ./internal/sqlparser/
go test -run FuzzDecodeInto -fuzz FuzzDecodeInto -fuzztime 5s ./internal/tuple/
go test -run FuzzDecodeSequence -fuzz FuzzDecodeSequence -fuzztime 5s ./internal/tuple/
go test -run FuzzIntMap -fuzz FuzzIntMap -fuzztime 5s ./internal/exec/
go test -run FuzzSortOrder -fuzz FuzzSortOrder -fuzztime 5s ./internal/exec/
go test -run FuzzScanIndex -fuzz FuzzScanIndex -fuzztime 5s ./internal/exec/
go test -run FuzzUnwind -fuzz FuzzUnwind -fuzztime 10s ./internal/exec/
go test -run FuzzEquivalence -fuzz FuzzEquivalence -fuzztime 20s .
go test -run FuzzGroupStart -fuzz FuzzGroupStart -fuzztime 5s .

echo "== progressd start/stop =="
# The one check that goes through main() itself — flags into Config, the
# workload load, the listener, the SIGTERM drain — which no test can
# reach. It runs on one engine and again on a 2-shard fleet, so main()'s
# fleet wiring is reached too. What the daemon serves is
# internal/server's tests' business.
pdcheck() {
	pdlog="$bindir"/progressd.log
	"$bindir"/progressd -addr 127.0.0.1:0 -scale 0.002 "$@" >"$pdlog" 2>&1 &
	pd=$!
	tries=0
	until grep -q 'listening on' "$pdlog"; do
		tries=$((tries + 1))
		if [ "$tries" -gt 150 ] || ! kill -0 "$pd" 2>/dev/null; then
			kill "$pd" 2>/dev/null || true
			echo "progressd $* did not come up:" >&2
			cat "$pdlog" >&2
			exit 1
		fi
		sleep 0.1
	done
	kill -TERM "$pd"
	wait "$pd" || { echo "progressd $* exited $? on SIGTERM:" >&2; cat "$pdlog" >&2; exit 1; }
	grep 'drain done .*clean=true' "$pdlog" || { cat "$pdlog" >&2; exit 1; }
}
pdcheck
pdcheck -shards 2

echo "== pgsh scripted session =="
# The other binary exercised through main(): one session piped into the
# stdin pgsh reads — the paper's Q2 under I/O interference (the Figure 2
# box at every refresh, ending at 100 %), EXPLAIN ANALYZE of Q1 (the
# annotated plan, its operator times counted from the query's start,
# then the per-segment table), the metrics snapshot.
pgout="$bindir"/pgsh.out
printf '%s\n' '\io 5 60 4' '\paper 2' 'explain analyze select * from lineitem' '\metrics' '\q' |
	"$bindir"/pgsh -scale 0.002 >"$pgout" 2>&1 || { echo "pgsh exited $?:" >&2; cat "$pgout" >&2; exit 1; }
for want in 'SQL name *Query 2' '(100% done)' 'SeqScan lineitem .*actual rows=12000 .*time=0\.0\.\.' '^seg  *est U' '^engine_queries_total 2$'; do
	grep -q -- "$want" "$pgout" || { echo "pgsh output lacks /$want/:" >&2; cat "$pgout" >&2; exit 1; }
done
echo "ok"

echo "== experiments -only table1, -only ledger, -only fig13 =="
# The third binary exercised through main(): flags into the session, the
# -only lookup, the file write. Table 1, the ledger and Figure 13 (Q2
# under I/O interference) all run on progressdb.DB; each file it writes
# must equal the committed one. An unknown id must exit 2, and so must
# plans: the plan golden is testdata/plans.txt, a root test's.
for file in table1.txt ledger.txt fig13.csv; do
	"$bindir"/experiments -quiet -only "${file%.*}" -outdir "$bindir" >/dev/null
	cmp "$bindir/$file" "results/$file" || { echo "experiments -only ${file%.*} differs from results/$file" >&2; exit 1; }
done
for id in nope plans; do
	rc=0
	"$bindir"/experiments -only "$id" -outdir "$bindir" 2>/dev/null || rc=$?
	[ "$rc" -eq 2 ] || { echo "experiments -only $id exited $rc, want 2" >&2; exit 1; }
done
echo "ok"

echo "== root benchmarks, once each =="
# The virtual figures DESIGN.md and EXPERIMENTS.md cite from the root
# bench_test.go (E-SMJ, the window-T ablation, E-CONC); one iteration
# each proves they still run.
go test -run '^$' -bench . -benchtime 1x .

echo "== optimizer benchmark =="
# The planner's layer number: BenchmarkPlan plans the cost-closure
# statements at bench/'s two work_mem settings and reports ns and
# allocations per op, the figures a planner change quotes before and after.
go test -run '^$' -bench Plan -benchtime 100x ./internal/optimizer

echo "== go test -cpu 1 (executor, root and serving) =="
# Tier-1 must pass on any core count. The executor and the root package
# (equivalence, concurrent determinism, the examples) are where a test
# could lean on GOMAXPROCS > 1 without the other lanes noticing; the
# serving packages' tests talk to goroutines they do not own.
go test -count=1 -cpu 1 ./internal/exec . ./internal/server ./internal/fleet ./client

echo "== go test -race, with the serving packages 20x beside it =="
# The serving layers' tests are the ones that talk to goroutines they do
# not own, so an ordering that is only usually right shows here first.
# They run twenty times while the race suite competes for the cores —
# the load under which a terminal event published before its accounting
# was seen to lose 1 run in 8. internal/obs rides along for the
# registry's sorted insert, which every /metrics page and profile reads,
# and the root TestStmt* for a prepared statement's in-use and staleness
# fallbacks, which concurrent runs of one Stmt take.
{ go test -count=20 ./internal/server ./internal/fleet ./client ./internal/obs &&
    go test -count=20 -run 'TestStmt' .; } &
stress=$!
go test -race ./... || { kill $stress 2>/dev/null; exit 1; }
wait $stress

echo "== non-test Go lines (make loc) =="
make -s loc

echo "All checks passed."
