# Developer entry points; `make check` is what CI runs.

.PHONY: check test build vet fmt lint fuzz bench-obs bench-fleet bench-mt chaos dash

check:
	./ci.sh

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

fmt:
	gofmt -w .

# The repo's own go/analysis-style suite (DESIGN.md §7). Exit 1 means
# findings; fix them or add `//lint:ignore <analyzer> <reason>`.
lint:
	go run ./cmd/progresslint ./...

# Open-ended fuzzing of the two engine-boundary parsers and the record decoder. Override the
# budget per target: make fuzz FUZZTIME=5m
FUZZTIME ?= 60s
fuzz:
	go test -run FuzzParse -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/faultinject/
	go test -run FuzzParseStatement -fuzz FuzzParseStatement -fuzztime $(FUZZTIME) ./internal/sqlparser/
	go test -run FuzzDecodeInto -fuzz FuzzDecodeInto -fuzztime $(FUZZTIME) ./internal/tuple/

# Randomized fault-schedule property suite at full depth (DESIGN.md §6):
# hundreds of deterministic random fault schedules under -race, each
# asserting error-or-correct results, zero leaks, and sane progress.
chaos:
	PROGRESSDB_CHAOS_SCHEDULES=500 go test -race -v -run TestChaosRandomFaultSchedules .

# Compare the observability-disabled and -enabled hot paths (the paper's
# "< 1% penalty" budget).
bench-obs:
	go test . -run XXX -bench 'BenchmarkObs(Disabled|Enabled)' -benchtime 50x

# Sharded-serving speedup: modeled query latency (virtual seconds, the
# simulation's own clock) for shards=4 vs shards=1 on a partitioned
# scan and a co-partitioned join.
bench-fleet:
	go test ./internal/fleet -run XXX -bench 'BenchmarkFleet' -benchtime 10x -benchmem

# Multi-worker throughput on one shared engine: wall-clock queries/s at
# workers = 1, 2, 4 over the mixed chaos workload.
bench-mt:
	go test . -run XXX -bench 'BenchmarkConcurrentThroughput' -benchtime 10x -benchmem

# Run the daemon with the embedded dashboard on the default port.
dash:
	go run ./cmd/progressd -addr 127.0.0.1:8080 -debug-addr 127.0.0.1:6060
