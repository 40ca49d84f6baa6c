# Developer entry points; `make check` is what CI runs.

.PHONY: check test build vet fmt lint fuzz chaos loc dash

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

# Open-ended fuzzing of the two engine-boundary parsers, the record decoder,
# the executor's int hash table, sort order, scan page index and unwind points,
# and the equivalence harness's query seeds.
# Override the budget per target:
# make fuzz FUZZTIME=5m
FUZZTIME ?= 60s
fuzz:
	go test -run FuzzParse -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/faultinject/
	go test -run FuzzParseStatement -fuzz FuzzParseStatement -fuzztime $(FUZZTIME) ./internal/sqlparser/
	go test -run FuzzDecodeInto -fuzz FuzzDecodeInto -fuzztime $(FUZZTIME) ./internal/tuple/
	go test -run FuzzDecodeSequence -fuzz FuzzDecodeSequence -fuzztime $(FUZZTIME) ./internal/tuple/
	go test -run FuzzIntMap -fuzz FuzzIntMap -fuzztime $(FUZZTIME) ./internal/exec/
	go test -run FuzzSortOrder -fuzz FuzzSortOrder -fuzztime $(FUZZTIME) ./internal/exec/
	go test -run FuzzScanIndex -fuzz FuzzScanIndex -fuzztime $(FUZZTIME) ./internal/exec/
	go test -run FuzzUnwind -fuzz FuzzUnwind -fuzztime $(FUZZTIME) ./internal/exec/
	go test -run FuzzEquivalence -fuzz FuzzEquivalence -fuzztime $(FUZZTIME) .

# Randomized fault-schedule property suite at full depth (DESIGN.md §6):
# hundreds of deterministic random fault schedules under -race, each
# asserting error-or-correct results, zero leaks, and sane progress.
chaos:
	PROGRESSDB_CHAOS_SCHEDULES=500 go test -race -v -run TestChaosRandomFaultSchedules .

# Non-test Go lines per top-level directory (bench/, its own module, and
# testdata fixtures left out), then the same count over _test.go files —
# the table a deleting PR quotes before and after, so code moved into a
# test file shows up instead of vanishing.
LOCFILES = . -name '*.go' ! -path './bench/*' ! -path './.bench_build/*' ! -path '*/testdata/*'
loc:
	@find $(LOCFILES) ! -name '*_test.go' -exec wc -l {} + \
		| awk '$$2 != "total" { n = split($$2, p, "/"); d = (n > 2) ? p[2] : "."; s[d] += $$1; t += $$1 } \
			END { for (d in s) printf "%-10s %6d\n", d, s[d]; printf "%-10s %6d\n", "total", t }' \
		| sort
	@find $(LOCFILES) -name '*_test.go' -exec cat {} + | wc -l | awk '{ printf "%-10s %6d\n", "tests", $$1 }'

# Run the daemon with the embedded dashboard on the default port.
dash:
	go run ./cmd/progressd -addr 127.0.0.1:8080 -debug-addr 127.0.0.1:6060
