package harness

import (
	"fmt"
	"math"
	"strings"

	"progressdb/internal/core"
)

// Series is one named line of a figure.
type Series struct {
	Name string
	X, Y []float64
}

// Figure is the reproduction of one paper figure: series extracted from a
// scenario run, plus vertical event markers (interference start/end).
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Events []Event
}

// Event is a vertical marker.
type Event struct {
	Name string
	X    float64
}

// Experiment maps one paper artifact to a scenario and metric.
type Experiment struct {
	ID     string
	Title  string
	Query  int
	Interf Interference
	// Metric is "cost", "speed", "remaining", or "percent".
	Metric string
}

// IOInterf reproduces the paper's Q2 file copy: start 190 s / end 885 s
// of a 510 s unloaded run.
var IOInterf = Interference{Kind: "io", StartFrac: 190.0 / 510, EndFrac: 885.0 / 510, Factor: 4}

// CPUInterf reproduces the paper's Q5 CPU hog: start 120 s of a 211 s
// unloaded run, running until the query finishes.
var CPUInterf = Interference{Kind: "cpu", StartFrac: 120.0 / 211, EndFrac: -1, Factor: 4}

// Experiments lists every figure of the paper's evaluation section.
var Experiments = []Experiment{
	{ID: "fig04", Title: "Q1 estimated query cost (unloaded)", Query: 1, Metric: "cost"},
	{ID: "fig05", Title: "Q1 execution speed (unloaded)", Query: 1, Metric: "speed"},
	{ID: "fig06", Title: "Q1 remaining time (unloaded)", Query: 1, Metric: "remaining"},
	{ID: "fig07", Title: "Q1 completed percentage (unloaded)", Query: 1, Metric: "percent"},
	{ID: "fig09", Title: "Q2 estimated query cost (unloaded)", Query: 2, Metric: "cost"},
	{ID: "fig10", Title: "Q2 execution speed (unloaded)", Query: 2, Metric: "speed"},
	{ID: "fig11", Title: "Q2 remaining time (unloaded)", Query: 2, Metric: "remaining"},
	{ID: "fig12", Title: "Q2 completed percentage (unloaded)", Query: 2, Metric: "percent"},
	{ID: "fig13", Title: "Q2 estimated query cost (I/O interference)", Query: 2, Interf: IOInterf, Metric: "cost"},
	{ID: "fig14", Title: "Q2 execution speed (I/O interference)", Query: 2, Interf: IOInterf, Metric: "speed"},
	{ID: "fig15", Title: "Q2 remaining time (I/O interference)", Query: 2, Interf: IOInterf, Metric: "remaining"},
	{ID: "fig16", Title: "Q2 completed percentage (I/O interference)", Query: 2, Interf: IOInterf, Metric: "percent"},
	{ID: "fig17", Title: "Q3 estimated query cost (correlation, unloaded)", Query: 3, Metric: "cost"},
	{ID: "fig18", Title: "Q4 estimated query cost (two misestimates, unloaded)", Query: 4, Metric: "cost"},
	{ID: "fig19", Title: "Q5 remaining time (unloaded)", Query: 5, Metric: "remaining"},
	{ID: "fig20", Title: "Q5 remaining time (CPU interference)", Query: 5, Interf: CPUInterf, Metric: "remaining"},
}

// scenarioKey identifies a run shared across figures (F4–F7 all come
// from one Q1 unloaded execution).
func (e Experiment) scenarioKey() string {
	return fmt.Sprintf("q%d-%s", e.Query, scenarioName(&e.Interf))
}

// Session caches scenario runs so that figures sharing a run reuse it.
type Session struct {
	Runner Runner
	cache  map[string]*RunResult
}

// NewSession creates a session over the given runner configuration.
func NewSession(r Runner) *Session {
	return &Session{Runner: r, cache: map[string]*RunResult{}}
}

// Result runs (or reuses) the scenario behind e.
func (s *Session) Result(e Experiment) (*RunResult, error) {
	key := e.scenarioKey()
	if res, ok := s.cache[key]; ok {
		return res, nil
	}
	res, err := s.Runner.Run(e.Query, e.Interf)
	if err != nil {
		return nil, err
	}
	s.cache[key] = res
	return res, nil
}

// ExtractFigure builds the figure series from a run.
func ExtractFigure(e Experiment, res *RunResult) *Figure {
	f := &Figure{
		ID:     e.ID,
		Title:  e.Title,
		XLabel: "time (seconds)",
	}
	if res.InterfStart > 0 {
		f.Events = append(f.Events, Event{Name: "interference start", X: res.InterfStart})
		if res.InterfEnd < res.ActualSeconds {
			f.Events = append(f.Events, Event{Name: "interference end", X: res.InterfEnd})
		}
	}
	snaps := res.Snapshots
	xs := make([]float64, len(snaps))
	for i, s := range snaps {
		xs[i] = s.Elapsed
	}
	switch e.Metric {
	case "cost":
		f.YLabel = "estimated query cost (Us)"
		f.Series = append(f.Series,
			Series{Name: "estimated by progress indicator", X: xs, Y: pick(snaps, func(s core.Snapshot) float64 { return s.EstTotalU })},
			Series{Name: "exact query cost", X: []float64{0, res.ActualSeconds}, Y: []float64{res.ExactCostU, res.ExactCostU}},
		)
	case "speed":
		f.YLabel = "query execution speed (Us per second)"
		f.Series = append(f.Series,
			Series{Name: "monitored speed", X: xs, Y: pick(snaps, func(s core.Snapshot) float64 { return s.SpeedU })})
	case "remaining":
		f.YLabel = "estimated remaining query execution time (seconds)"
		actual := make([]float64, len(snaps))
		for i, s := range snaps {
			actual[i] = math.Max(0, res.ActualSeconds-s.Elapsed)
		}
		f.Series = append(f.Series,
			Series{Name: "estimated by progress indicator", X: xs, Y: pick(snaps, func(s core.Snapshot) float64 { return s.RemainingSeconds })},
			Series{Name: "actual remaining time", X: xs, Y: actual},
			Series{Name: "optimizer estimate", X: xs, Y: pick(snaps, func(s core.Snapshot) float64 { return s.OptimizerRemainingSeconds })},
		)
	case "percent":
		f.YLabel = "estimated completed percentage"
		f.Series = append(f.Series,
			Series{Name: "completed percentage", X: xs, Y: pick(snaps, func(s core.Snapshot) float64 { return s.Percent })})
	}
	return f
}

func pick(snaps []core.Snapshot, fn func(core.Snapshot) float64) []float64 {
	out := make([]float64, len(snaps))
	for i, s := range snaps {
		out[i] = fn(s)
	}
	return out
}

// CSV renders the figure as comma-separated series (long form: series,
// x, y).
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString("series,x,y\n")
	for _, s := range f.Series {
		for i := range s.X {
			fmt.Fprintf(&b, "%q,%.4f,%.4f\n", s.Name, s.X[i], s.Y[i])
		}
	}
	return b.String()
}

// ASCII renders the figure as a text plot (width×height characters).
func (f *Figure) ASCII(width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 5 {
		height = 5
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		for i := range s.X {
			if math.IsInf(s.Y[i], 0) || math.IsNaN(s.Y[i]) {
				continue
			}
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if minX > maxX || minY > maxY {
		return f.Title + ": (no data)\n"
	}
	if maxY == minY {
		maxY = minY + 1
	}
	if maxX == minX {
		maxX = minX + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	marks := "*o+x#@"
	for si, s := range f.Series {
		m := marks[si%len(marks)]
		for i := range s.X {
			if math.IsInf(s.Y[i], 0) || math.IsNaN(s.Y[i]) {
				continue
			}
			cx := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			cy := height - 1 - int((s.Y[i]-minY)/(maxY-minY)*float64(height-1))
			grid[cy][cx] = m
		}
	}
	for _, ev := range f.Events {
		cx := int((ev.X - minX) / (maxX - minX) * float64(width-1))
		if cx < 0 || cx >= width {
			continue
		}
		for r := 0; r < height; r++ {
			if grid[r][cx] == ' ' {
				grid[r][cx] = '|'
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "y: %s  [%.4g .. %.4g]\n", f.YLabel, minY, maxY)
	for _, row := range grid {
		b.WriteString(string(row))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "x: %s  [%.4g .. %.4g]\n", f.XLabel, minX, maxX)
	for si, s := range f.Series {
		fmt.Fprintf(&b, "  %c %s\n", marks[si%len(marks)], s.Name)
	}
	for _, ev := range f.Events {
		fmt.Fprintf(&b, "  | %s at %.1fs\n", ev.Name, ev.X)
	}
	return b.String()
}

// ExperimentByID looks up a registered experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Table1ID and PlansID name the two artefacts of results/ that are not
// figures.
const (
	Table1ID = "table1"
	PlansID  = "plans"
)

// IDs lists every artefact of results/ in the order cmd/experiments
// writes them: Table 1, the plan golden, then the figures.
func IDs() []string {
	ids := []string{Table1ID, PlansID}
	for _, e := range Experiments {
		ids = append(ids, e.ID)
	}
	return ids
}

// Artifact is one regenerated file of results/: its name there and its
// exact bytes, plus — for a figure — the run and series it was rendered
// from (Exp carries only ID and Title otherwise).
type Artifact struct {
	File, Text string
	Exp        Experiment
	Run        *RunResult // nil unless a figure
	Fig        *Figure    // nil unless a figure
}

// Render regenerates one artefact of results/. cmd/experiments writes
// what this returns and the golden test compares it with what is
// committed, so the two cannot drift apart.
func (s *Session) Render(id string) (*Artifact, error) {
	switch id {
	case Table1ID:
		text, err := s.Runner.Table1()
		return &Artifact{File: "table1.txt", Text: text, Exp: Experiment{ID: id, Title: "Table 1. Test data set"}}, err
	case PlansID:
		text, err := s.Runner.Plans()
		return &Artifact{File: "plans.txt", Text: text, Exp: Experiment{ID: id, Title: "Plans and segments of Q1–Q5 by forced join algorithm and work_mem"}}, err
	}
	e, ok := ExperimentByID(id)
	if !ok {
		return nil, fmt.Errorf("harness: no experiment %q (valid: %s)", id, strings.Join(IDs(), " "))
	}
	res, err := s.Result(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	fig := ExtractFigure(e, res)
	return &Artifact{File: id + ".csv", Text: fig.CSV(), Exp: e, Run: res, Fig: fig}, nil
}
