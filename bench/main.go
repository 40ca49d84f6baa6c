// Command bench is progressdb's benchmark: one command, four workloads,
// wall-clock and virtual-clock ledgers kept apart. See README.md.
//
//	go run -C bench . -seed 1             # every workload: end-to-end, then the traced per-layer pass
//	go run -C bench . -runs 3 -trace 0    # self-check: are the end-to-end metrics steady on this host?
//	bash bench/run.sh --workload engine_hot --seed 1 --seconds 12 --trace 0   # BENCHMARK.json's contract
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// provenance is the fingerprint of the machine, toolchain and commit a
// run's numbers belong to — what cmd/benchsnap never recorded, and why
// BENCH_mt.json's "cliff" could not be told from the host it ran on.
type provenance struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"` // "" when /proc/cpuinfo is unreadable
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"` // "" outside a git checkout
	Dirty      bool    `json:"dirty"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Start      string  `json:"start"`
	TotalWallS float64 `json:"total_wall_s"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// gitState returns HEAD and whether the tree is dirty, or "" when the
// benchmark is not running inside a git checkout. The search stops at
// the checkout's parent so it never wanders into an enclosing repository.
func gitState() (commit string, dirty bool) {
	wd, err := os.Getwd()
	if err != nil {
		return "", false
	}
	env := append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(filepath.Dir(wd)))
	run := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Env = env
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	commit, err = run("rev-parse", "HEAD")
	if err != nil {
		return "", false
	}
	status, err := run("status", "--porcelain")
	return commit, err == nil && status != ""
}

func newProvenance(seed int64, seconds int, start time.Time) provenance {
	p := provenance{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(),
		GoVersion: runtime.Version(), Seed: seed, Seconds: seconds, Start: start.UTC().Format(time.RFC3339),
	}
	p.Commit, p.Dirty = gitState()
	return p
}

func (p provenance) print() {
	fmt.Printf("provenance: num_cpu=%d gomaxprocs=%d cpu=%q go=%s commit=%s dirty=%v seed=%d seconds=%d start=%s total_wall=%.1fs\n",
		p.NumCPU, p.GOMAXPROCS, p.CPUModel, p.GoVersion, orDash(p.Commit), p.Dirty, p.Seed, p.Seconds, p.Start, p.TotalWallS)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// report is what a results file holds.
type report struct {
	Provenance provenance `json:"provenance"`
	Results    []*result  `json:"results"`
}

func writeReport(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding results: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	return nil
}

// printResult prints every metric of a run by name, with its unit.
func printResult(r *result) {
	fmt.Printf("\n== %s (seed %d) ==\n", r.Workload, r.Seed)
	classes := make([]string, 0, len(r.Ops))
	for c, n := range r.Ops {
		classes = append(classes, fmt.Sprintf("%s=%d", c, n))
	}
	sort.Strings(classes)
	fmt.Printf("ops: %s\n", strings.Join(classes, " "))
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	leaks := "CheckLeaks ok"
	if r.Leaks != "" {
		leaks = "CheckLeaks FAILED: " + r.Leaks
	}
	fmt.Printf("failed_share %.6f ratio (ops_attempted=%d ops_failed=%d)  %s\n", share, r.Attempted, r.Failed, leaks)
	for _, f := range r.Failures {
		fmt.Printf("  failure: %s\n", f)
	}
	printMetrics := func(defs []metricDef, vals map[string]measured) {
		for _, d := range defs {
			m, ok := vals[d.Name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("%-32s %14.6g %s", d.Name, m.Value, m.Unit)
			if m.N > 0 {
				line += fmt.Sprintf("  (n=%d)", m.N)
			}
			if q, ok := r.Quartiles[d.Name]; ok {
				line += fmt.Sprintf("  (quartiles %.4f–%.4f: reported, not gated)", q[0], q[1])
			}
			fmt.Println(line)
		}
	}
	printMetrics(endToEnd, r.EndToEnd)
	printMetrics(ungated, r.Ungated)
	printMetrics(perLayer, r.PerLayer)
}

// contractLine prints the one JSON object BENCHMARK.json's driver reads
// from the last line of standard output.
func contractLine(r *result, vals map[string]measured) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metric, len(vals))}
	for name, m := range vals {
		out.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encoding the result line: %w", err)
	}
	fmt.Println(string(data))
	return nil
}

// benchmarkDoc is BENCHMARK.json: the contract's description of this
// benchmark, built from the tables the program itself runs on so the two
// cannot drift (bench_test.go compares it with the committed file).
type benchmarkDoc struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"` // name and why only
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // no bounds: Bound is omitted when zero
}

func describe() benchmarkDoc {
	return benchmarkDoc{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: nominalSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "run one workload and end with the contract's JSON line (default: all four)")
	seed := flag.Int64("seed", 1, "seed of the op list: order and lookup keys")
	seconds := flag.Int("seconds", nominalSeconds, "run length the op counts are scaled to")
	trace := flag.Int("trace", -1, "0: end-to-end metrics only; 1: traced per-layer pass only; -1: both")
	runs := flag.Int("runs", 1, "repetitions of each workload; with more than one, print per-metric spread and fail if any end-to-end metric's range exceeds its bound")
	smoke := flag.Bool("smoke", false, "tiny pass (scale 0.005, 20 ops per workload) through the real code path and the oracle")
	outDir := flag.String("out", "results", "directory for result and trace files (\"\" writes none)")
	describeOnly := flag.Bool("describe", false, "print BENCHMARK.json as the program's own tables define it, and exit")
	flag.Parse()
	if *describeOnly {
		data, err := json.MarshalIndent(describe(), "", "  ")
		if err != nil {
			return fmt.Errorf("encoding BENCHMARK.json: %w", err)
		}
		fmt.Println(string(data))
		return nil
	}
	if *seconds < 1 || *runs < 1 || *trace < -1 || *trace > 1 {
		return fmt.Errorf("need -seconds >= 1, -runs >= 1 and -trace in {-1, 0, 1}")
	}
	sz := sizingFor(*seconds)
	if *smoke {
		sz = smokeSizing()
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fmt.Errorf("creating %s: %w", *outDir, err)
		}
	}
	start := time.Now()
	prov := newProvenance(*seed, *seconds, start)

	if *workload != "" {
		w, ok := workloadByName(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		if *trace == -1 {
			*trace = 0
		}
		var res *result
		var err error
		if *trace == 1 {
			res, err = runTraced(w, sz, *seed, *outDir)
		} else {
			res, err = runEndToEnd(w, sz, *seed)
		}
		if err != nil {
			return err
		}
		prov.TotalWallS = time.Since(start).Seconds()
		printResult(res)
		prov.print()
		if *outDir != "" {
			name := fmt.Sprintf("run-%s-seed%d-trace%d.json", w.Name, *seed, *trace)
			if err := writeReport(filepath.Join(*outDir, name), report{Provenance: prov, Results: []*result{res}}); err != nil {
				return err
			}
		}
		if *trace == 1 {
			return contractLine(res, res.PerLayer)
		}
		return contractLine(res, res.EndToEnd)
	}

	all, err := runAll(sz, *seed, *trace, *runs, *outDir)
	prov.TotalWallS = time.Since(start).Seconds()
	prov.print()
	if *outDir != "" && len(all) > 0 {
		name := fmt.Sprintf("run-all-seed%d.json", *seed)
		if werr := writeReport(filepath.Join(*outDir, name), report{Provenance: prov, Results: all}); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// absorb folds the end-to-end run of the same workload into a traced
// run's result, so one record carries both.
func (r *result) absorb(e2e *result) {
	r.Ops, r.EndToEnd, r.Ungated = e2e.Ops, e2e.EndToEnd, e2e.Ungated
	r.Attempted += e2e.Attempted
	r.Failed += e2e.Failed
	r.Failures = append(e2e.Failures, r.Failures...)
	if r.Leaks == "" {
		r.Leaks = e2e.Leaks
	}
}

// runAll runs every workload `runs` times, alternating the workload
// order between repetitions so that no workload always runs on the heap
// its neighbour left behind. It returns every result; the error is
// non-nil if an oracle check failed or, with runs > 1, an end-to-end
// metric's range exceeded its bound or a single-client workload's
// virtual ledger did not repeat exactly.
func runAll(sz sizing, seed int64, trace, runs int, outDir string) ([]*result, error) {
	var all []*result
	series := make(map[string]map[string][]float64) // workload → metric → values
	bad := false
	for rep := 0; rep < runs; rep++ {
		for i := range workloads {
			w := &workloads[i]
			if rep%2 == 1 {
				w = &workloads[len(workloads)-1-i]
			}
			var res *result
			if trace != 1 {
				r, err := runEndToEnd(w, sz, seed)
				if err != nil {
					return all, err
				}
				res = r
			}
			if trace != 0 {
				r, err := runTraced(w, sz, seed, outDir)
				if err != nil {
					return all, err
				}
				if res != nil {
					r.absorb(res)
				}
				res = r
			}
			printResult(res)
			all = append(all, res)
			bad = bad || !res.correct()
			if series[w.Name] == nil {
				series[w.Name] = make(map[string][]float64)
			}
			for _, vals := range []map[string]measured{res.EndToEnd, res.Ungated} {
				for name, m := range vals {
					series[w.Name][name] = append(series[w.Name][name], m.Value)
				}
			}
		}
	}
	if runs > 1 && trace != 1 {
		fmt.Printf("\n== spread over %d runs ==\n", runs)
		fmt.Printf("%-14s %-22s %12s %12s %12s %8s %8s %7s\n", "workload", "metric", "median", "min", "max", "iqr%", "range%", "bound%")
		for i := range workloads {
			w := &workloads[i]
			for _, d := range append(append([]metricDef(nil), endToEnd...), ungated...) {
				s := summarize(series[w.Name][d.Name])
				flag := ""
				switch {
				case d.Bound > 0 && s.RangeShare > d.Bound:
					flag = "  EXCEEDS BOUND"
					bad = true
				case d.Bound == 0 && !w.Serve && s.Min != s.Max:
					// One client, one clock: the virtual ledger is exact.
					flag = "  DOES NOT REPEAT"
					bad = true
				}
				fmt.Printf("%-14s %-22s %12.6g %12.6g %12.6g %8.2f %8.2f %7.1f%s\n",
					w.Name, d.Name, s.Median, s.Min, s.Max, 100*s.IQRShare, 100*s.RangeShare, 100*d.Bound, flag)
			}
		}
	}
	if bad {
		return all, errors.New("an oracle check failed, a metric's range exceeded its bound or the virtual ledger did not repeat: see above")
	}
	return all, nil
}
