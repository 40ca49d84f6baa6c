package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestSpanTree(t *testing.T) {
	root := &Span{Name: "select 1", Kind: "query", Start: 0, End: 100}
	seg := root.AddChild(&Span{Name: "S0", Kind: "segment", Start: 0, End: 60})
	seg.AddChild(&Span{Name: "SeqScan t", Kind: "operator", Start: 0, End: 60,
		Attrs: map[string]float64{"rows_actual": 42, "rows_est": 40}})
	tr := &Trace{Root: root}

	if tr.SpanCount() != 3 {
		t.Fatalf("span count = %d, want 3", tr.SpanCount())
	}
	if root.Duration() != 100 {
		t.Fatalf("duration = %g", root.Duration())
	}
	s := tr.String()
	for _, want := range []string{"[query] select 1", "[segment] S0", "[operator] SeqScan t", "rows_actual=42"} {
		if !strings.Contains(s, want) {
			t.Fatalf("trace text missing %q:\n%s", want, s)
		}
	}
	// Children must be indented deeper than parents.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[1], "  ") || !strings.HasPrefix(lines[2], "    ") {
		t.Fatalf("unexpected indentation:\n%s", s)
	}

	data, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.SpanCount() != 3 || back.Root.Children[0].Children[0].Attrs["rows_actual"] != 42 {
		t.Fatalf("JSON round-trip lost spans: %s", data)
	}
}

func TestEventWriterJSONL(t *testing.T) {
	var sb strings.Builder
	ew := NewEventWriter(&sb)
	ew.Emit("progress", 10, map[string]any{"percent": 12.5, "segment": 1})
	ew.Emit("progress", 20, map[string]any{"percent": 25.0, "segment": 1, "note": "spill"})
	if ew.Events() != 2 || ew.Err() != nil {
		t.Fatalf("events=%d err=%v", ew.Events(), ew.Err())
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), sb.String())
	}
	// Each line is standalone JSON with type and t first.
	for _, ln := range lines {
		if !strings.HasPrefix(ln, `{"type":"progress","t":`) {
			t.Fatalf("line does not lead with type/t: %s", ln)
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %q: %v", ln, err)
		}
	}
	// Field keys are sorted for determinism.
	if !strings.Contains(lines[1], `"note":"spill","percent":25,"segment":1`) {
		t.Fatalf("fields not in sorted order: %s", lines[1])
	}
}

func TestEventWriterNilAndNaN(t *testing.T) {
	var ew *EventWriter
	ew.Emit("x", 0, nil) // must not panic
	if ew.Events() != 0 || ew.Err() != nil {
		t.Fatal("nil writer recorded events")
	}
	if NewEventWriter(nil) != nil {
		t.Fatal("NewEventWriter(nil) should be nil")
	}
	var sb strings.Builder
	w := NewEventWriter(&sb)
	w.Emit("p", 5, map[string]any{"remaining": math.Inf(1)})
	if !strings.Contains(sb.String(), `"remaining":null`) {
		t.Fatalf("Inf not encoded as null: %s", sb.String())
	}
}
