package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Span is one timed node of a query trace: the whole query, one segment,
// or one plan operator. Times are virtual seconds on the engine clock.
type Span struct {
	// Name labels the span (SQL text, "S2", or an operator label).
	Name string `json:"name"`
	// Kind is "query", "segment", or "operator".
	Kind string `json:"kind"`
	// Start and End are virtual times; End < Start means "never closed".
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Attrs carry numeric span attributes (u_done, rows_est, rows_actual,
	// loops, ...). Keys are snake_case.
	Attrs map[string]float64 `json:"attrs,omitempty"`
	// Notes are free-form annotations ("spilled 4 partitions", ...).
	Notes []string `json:"notes,omitempty"`
	// Children are sub-spans in execution order.
	Children []*Span `json:"children,omitempty"`
}

// Duration returns End - Start (0 if the span never closed).
func (s *Span) Duration() float64 {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// AddChild appends a sub-span and returns it.
func (s *Span) AddChild(c *Span) *Span {
	s.Children = append(s.Children, c)
	return c
}

// Trace is one query's span tree.
type Trace struct {
	Root *Span `json:"root"`
}

// JSON renders the trace as indented JSON.
func (t *Trace) JSON() ([]byte, error) {
	return json.MarshalIndent(t, "", "  ")
}

// String renders the span tree as an indented text outline, attributes
// sorted by key for determinism.
func (t *Trace) String() string {
	if t == nil || t.Root == nil {
		return ""
	}
	var b strings.Builder
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		fmt.Fprintf(&b, "%s[%s] %s (%.1fs..%.1fs", strings.Repeat("  ", depth), s.Kind, s.Name, s.Start, s.End)
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%.6g", k, s.Attrs[k])
		}
		b.WriteString(")")
		for _, n := range s.Notes {
			fmt.Fprintf(&b, " [%s]", n)
		}
		b.WriteString("\n")
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	walk(t.Root, 0)
	return b.String()
}

// SpanCount returns the total number of spans in the trace.
func (t *Trace) SpanCount() int {
	if t == nil || t.Root == nil {
		return 0
	}
	n := 0
	var walk func(*Span)
	walk = func(s *Span) {
		n++
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return n
}

// EventWriter emits a JSONL structured event log: one JSON object per
// line, each with at least {"type": ..., "t": <virtual seconds>}. It is
// nil-safe (a nil writer drops events) and safe for concurrent use.
type EventWriter struct {
	mu  sync.Mutex
	w   io.Writer
	err error
	n   int64
}

// NewEventWriter wraps w. A nil w yields a writer that drops everything,
// so callers can emit unconditionally.
func NewEventWriter(w io.Writer) *EventWriter {
	if w == nil {
		return nil
	}
	return &EventWriter{w: w}
}

// Emit writes one event line. Field keys are emitted in sorted order
// after "type" and "t", so the output is byte-deterministic. The first
// write error sticks and suppresses further output.
func (ew *EventWriter) Emit(typ string, t float64, fields map[string]any) {
	if ew == nil {
		return
	}
	ew.mu.Lock()
	defer ew.mu.Unlock()
	if ew.err != nil {
		return
	}
	var b strings.Builder
	b.WriteString("{\"type\":")
	b.Write(mustJSON(typ))
	fmt.Fprintf(&b, ",\"t\":%s", mustJSON(t))
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteString(",")
		b.Write(mustJSON(k))
		b.WriteString(":")
		b.Write(mustJSON(fields[k]))
	}
	b.WriteString("}\n")
	_, ew.err = io.WriteString(ew.w, b.String())
	if ew.err == nil {
		ew.n++
	}
}

// Events returns the number of events successfully written.
func (ew *EventWriter) Events() int64 {
	if ew == nil {
		return 0
	}
	ew.mu.Lock()
	defer ew.mu.Unlock()
	return ew.n
}

// Err returns the first write error, if any.
func (ew *EventWriter) Err() error {
	if ew == nil {
		return nil
	}
	ew.mu.Lock()
	defer ew.mu.Unlock()
	return ew.err
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Only reachable with exotic values (NaN/Inf floats); encode as null.
		return []byte("null")
	}
	return b
}
