// Package client is the Go SDK for progressd, the progressdb network
// query service: submit queries over HTTP, stream their live progress
// indicator over Server-Sent Events, fetch results, and cancel.
//
// This file defines the wire schema shared by the server
// (internal/server) and the daemon (cmd/progressd). Every progress
// refresh travels as one ProgressEvent JSON object — the paper's Figure
// 2 fields (percent done, estimated remaining seconds, execution speed,
// cost in U) plus the current segment's estimator internals.
package client

import (
	"encoding/json"
	"math"

	"progressdb"
)

// State is a query's lifecycle state on the server.
type State string

// Lifecycle states. A query moves queued → running → one of the three
// terminal states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// SubmitRequest is the body of POST /queries.
type SubmitRequest struct {
	// SQL is the SELECT to run (required).
	SQL string `json:"sql"`
	// Name labels the query in listings and progress displays.
	Name string `json:"name,omitempty"`
	// KeepRows materializes result rows for GET /queries/{id}/result.
	// Off by default: servers streaming progress for large queries
	// usually only need the indicator.
	KeepRows bool `json:"keep_rows,omitempty"`
	// PaceMS throttles execution to at least this many real
	// milliseconds per progress refresh. The engine's clock is virtual —
	// a query that "runs" for 900 virtual seconds executes in
	// milliseconds of real time — so pacing is how a human (or a test)
	// watches the progress bar advance and has time to cancel. 0 runs
	// at full speed.
	PaceMS int `json:"pace_ms,omitempty"`
	// DeadlineMS, when > 0, is the client's completion deadline in real
	// milliseconds from submission. The server fails fast at admission
	// (429, reason "deadline") when the queue's estimated drain time
	// plus this query's estimated cost already exceeds the deadline —
	// rejecting in microseconds what would otherwise time out after
	// seconds of queueing.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SubmitResponse is the 202 body of POST /queries.
type SubmitResponse struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// QueuePosition is the 1-based position among queued queries (0
	// when the query was handed to a worker immediately).
	QueuePosition int `json:"queue_position,omitempty"`
}

// Shed reasons carried on 429/503 rejection bodies.
const (
	// ShedQueueFull: the bounded admission queue is at capacity.
	ShedQueueFull = "queue_full"
	// ShedBudget: admitting the query would push the in-flight
	// remaining-work estimate past the server's -max-inflight-u budget.
	ShedBudget = "budget"
	// ShedDeadline: the query's estimated completion time already
	// exceeds its deadline_ms.
	ShedDeadline = "deadline"
	// ShedDraining: the server is draining for shutdown and admits
	// nothing new.
	ShedDraining = "draining"
)

// ErrorResponse is the JSON body of a non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// QueueDepth is set on 429 responses: the admission queue's
	// capacity, all of it in use.
	QueueDepth int `json:"queue_depth,omitempty"`
	// Reason classifies a shed (429/503) response: one of the Shed*
	// constants.
	Reason string `json:"reason,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on 429 responses
	// with sub-second precision: the server's estimate of when capacity
	// frees up, derived from the remaining-time estimate of the
	// cheapest in-flight query.
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
}

// SegmentDetail is the executing segment's Section 4.5 estimator state.
type SegmentDetail struct {
	// Index is the segment's execution-order index.
	Index int `json:"index"`
	// P is the dominant-input fraction processed.
	P float64 `json:"p"`
	// E1 is the optimizer's output estimate fixed at segment start and
	// E the refined blend E = p·E2 + (1−p)·E1, in rows.
	E1 float64 `json:"e1"`
	E  float64 `json:"e"`
}

// ProgressEvent is one progress-indicator refresh on the wire: the SSE
// stream's data payload. Non-finite numbers (an unknown remaining time
// is NaN or +Inf early on) are encoded as -1, since JSON cannot carry
// them.
type ProgressEvent struct {
	// QueryID identifies the query.
	QueryID string `json:"query_id,omitempty"`
	// Seq numbers the query's events from 1, strictly increasing; the
	// terminal event has the highest Seq.
	Seq int `json:"seq"`
	// State is set on terminal events (done/failed/canceled) and on the
	// first event of a running query; empty on ordinary refreshes.
	State State `json:"state,omitempty"`
	// ElapsedSeconds is virtual time since the query started.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// EstTotalU is the refined total cost and DoneU the completed work,
	// both in U (pages).
	EstTotalU float64 `json:"est_total_u"`
	DoneU     float64 `json:"done_u"`
	// Percent is estimated percent done, 0–100.
	Percent float64 `json:"percent"`
	// SpeedU is the monitored speed in U/second.
	SpeedU float64 `json:"speed_u"`
	// RemainingSeconds is the estimated remaining time (-1 = unknown).
	RemainingSeconds float64 `json:"remaining_seconds"`
	// CurrentSegment is the executing segment index (-1 when done) and
	// SegmentsDone the number of completed segments.
	CurrentSegment int `json:"current_segment"`
	SegmentsDone   int `json:"segments_done"`
	// StepPercent is the trivial step-counting baseline.
	StepPercent float64 `json:"step_percent"`
	// Segment carries the current segment's estimator detail, when a
	// segment is mid-execution.
	Segment *SegmentDetail `json:"segment,omitempty"`
	// Finished marks the indicator's final refresh.
	Finished bool `json:"finished,omitempty"`
	// Error carries the failure message on failed/canceled terminal
	// events.
	Error string `json:"error,omitempty"`
	// Shards carries the per-shard breakdown when the server fronts a
	// sharded fleet; absent on single-engine deployments.
	Shards []ShardProgress `json:"shards,omitempty"`
}

// ShardProgress is one shard's slice of a fleet query's progress, as
// embedded in a fleet deployment's ProgressEvents.
type ShardProgress struct {
	// Shard is the shard id (0-based).
	Shard int `json:"shard"`
	// Percent is the shard subquery's own progress estimate, 0-100.
	Percent float64 `json:"percent"`
	// DoneU / EstTotalU are the shard's completed work and refined total
	// cost in U.
	DoneU     float64 `json:"done_u"`
	EstTotalU float64 `json:"est_total_u"`
	// SpeedU is the shard's monitored speed in U/second.
	SpeedU float64 `json:"speed_u"`
	// ElapsedSeconds is the shard's own virtual elapsed time.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Finished marks a shard whose subquery has completed.
	Finished bool `json:"finished,omitempty"`
}

// Terminal reports whether the event closes the stream.
func (e ProgressEvent) Terminal() bool { return e.State.Terminal() }

// finite maps NaN and ±Inf to -1 for JSON transport.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

// EventFromReport converts an engine progress report to the wire form.
// Seq is left 0; the publisher assigns it.
func EventFromReport(queryID string, r progressdb.Report) ProgressEvent {
	ev := ProgressEvent{
		QueryID:          queryID,
		ElapsedSeconds:   finite(r.ElapsedSeconds),
		EstTotalU:        finite(r.EstimatedCostU),
		DoneU:            finite(r.DoneU),
		Percent:          finite(r.Percent),
		SpeedU:           finite(r.SpeedU),
		RemainingSeconds: finite(r.RemainingSeconds),
		CurrentSegment:   r.CurrentSegment,
		SegmentsDone:     r.SegmentsDone,
		StepPercent:      finite(r.StepPercent),
		Finished:         r.Finished,
	}
	if r.CurrentSegment >= 0 && !r.Finished {
		ev.Segment = &SegmentDetail{
			Index: r.CurrentSegment,
			P:     finite(r.CurrentP),
			E1:    finite(r.CurrentE1),
			E:     finite(r.CurrentE),
		}
	}
	return ev
}

// ShardProgressFromReport converts one shard's progress report to the
// wire form, under EventFromReport's rule for non-finite numbers.
func ShardProgressFromReport(shard int, r progressdb.Report) ShardProgress {
	return ShardProgress{
		Shard:          shard,
		Percent:        finite(r.Percent),
		DoneU:          finite(r.DoneU),
		EstTotalU:      finite(r.EstimatedCostU),
		SpeedU:         finite(r.SpeedU),
		ElapsedSeconds: finite(r.ElapsedSeconds),
		Finished:       r.Finished,
	}
}

// QueryInfo is one query's snapshot: GET /queries/{id} and the elements
// of GET /queries.
type QueryInfo struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	SQL   string `json:"sql"`
	State State  `json:"state"`
	// QueuePosition is the 1-based position among queued queries; 0
	// otherwise.
	QueuePosition int `json:"queue_position,omitempty"`
	// SubmittedAtMS / StartedAtMS / FinishedAtMS are Unix milliseconds
	// (real time); zero when the phase has not been reached.
	SubmittedAtMS int64 `json:"submitted_at_ms"`
	StartedAtMS   int64 `json:"started_at_ms,omitempty"`
	FinishedAtMS  int64 `json:"finished_at_ms,omitempty"`
	// Progress is the latest progress event, when any was taken.
	Progress *ProgressEvent `json:"progress,omitempty"`
	// Error is the failure (or cancellation) message on terminal states.
	Error string `json:"error,omitempty"`
	// VirtualSeconds and RowCount summarize a done query's result.
	VirtualSeconds float64 `json:"virtual_seconds,omitempty"`
	RowCount       int     `json:"row_count,omitempty"`
}

// ResultResponse is GET /queries/{id}/result: the completed query's
// rows. Rows is null when the query was submitted without keep_rows.
// JSON decoding turns integer values into float64, per encoding/json.
type ResultResponse struct {
	ID             string          `json:"id"`
	Columns        []string        `json:"columns"`
	Rows           [][]interface{} `json:"rows"`
	RowCount       int             `json:"row_count"`
	VirtualSeconds float64         `json:"virtual_seconds"`
	// Refreshes is how many progress reports the indicator took.
	Refreshes int `json:"refreshes"`
}

// HealthResponse is GET /healthz.
type HealthResponse struct {
	// Status is "ok", or "draining" once shutdown has begun.
	Status  string `json:"status"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
	Workers int    `json:"workers"`
	// InflightU is the admission controller's current remaining-work
	// estimate across admitted queries (sum of est_total_u − done_u, in
	// U) and InflightQueries how many queries it covers.
	InflightU       float64 `json:"inflight_u"`
	InflightQueries int     `json:"inflight_queries"`
	// MaxInflightU echoes the configured budget (0 = unlimited).
	MaxInflightU float64 `json:"max_inflight_u,omitempty"`
}

// DrainResponse is POST /admin/drain: the outcome of a graceful drain.
type DrainResponse struct {
	// Drained is true when every in-flight query finished inside the
	// drain deadline; false when the deadline forced cancellations.
	Drained bool `json:"drained"`
	// ForcedCancels is how many queries were canceled at the deadline.
	ForcedCancels int `json:"forced_cancels"`
	// WaitedMS is how long the drain waited, in real milliseconds.
	WaitedMS int64 `json:"waited_ms"`
}

// ---- observability plane: /api/timeseries, /api/history -------------

// TSPoint is one timestamped sample in a timeseries window. T is
// seconds — wall-clock Unix seconds on a live daemon, virtual seconds
// when a test drives the sampler off the engine clock.
type TSPoint struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// TimeseriesSeries is one metric's windowed, downsampled point list.
type TimeseriesSeries struct {
	// Name is the series identity: the metric name, plus its label for
	// labeled families (e.g. `vclock_units{kind="cpu"}`) and a _count /
	// _sum suffix for histogram-derived series.
	Name string `json:"name"`
	// Kind is the underlying instrument kind (counter/gauge/histogram).
	Kind string `json:"kind"`
	// Help is the instrument's registration help text.
	Help   string    `json:"help,omitempty"`
	Points []TSPoint `json:"points"`
}

// TimeseriesResponse is GET /api/timeseries.
type TimeseriesResponse struct {
	// Now is the server's current sample-clock reading in seconds.
	Now float64 `json:"now"`
	// WindowSeconds echoes the effective query window.
	WindowSeconds float64 `json:"window_seconds"`
	// SampleIntervalMS is the sampler's configured cadence (0 when the
	// sampler is disabled and samples are driven externally).
	SampleIntervalMS int                `json:"sample_interval_ms"`
	Series           []TimeseriesSeries `json:"series"`
}

// SegmentProfile is one segment's estimated-vs-actual record in a
// completed query's profile.
type SegmentProfile struct {
	Index int    `json:"index"`
	Root  string `json:"root"`
	// EstCostU / ActualCostU compare the optimizer's initial segment
	// cost with the work actually done, in U.
	EstCostU    float64 `json:"est_cost_u"`
	ActualCostU float64 `json:"actual_cost_u"`
	// EstRows is the optimizer's E1; ActualRows the observed output
	// (-1 for the final segment, whose output is the result set).
	EstRows    float64 `json:"est_rows"`
	ActualRows float64 `json:"actual_rows"`
	// QError is max(est/actual, actual/est) for the row estimates
	// (-1 when undefined, e.g. the final segment).
	QError float64 `json:"q_error"`
	// StartSeconds / EndSeconds bound the segment in virtual time.
	StartSeconds float64 `json:"start_seconds"`
	EndSeconds   float64 `json:"end_seconds"`
	Done         bool    `json:"done"`
}

// QueryProfile is GET /api/history/{id}: everything the server retained
// about one terminal query — the judge-the-estimator record König et
// al. need (the full progress-vs-time trajectory), plus the paper's
// Section 6 per-segment tuning ledger.
type QueryProfile struct {
	// Query is the final lifecycle snapshot.
	Query QueryInfo `json:"query"`
	// Events is the complete progress-event ledger in publish order,
	// terminal event last — byte-for-byte what SSE subscribers saw.
	Events []ProgressEvent `json:"events"`
	// Segments is the per-segment ledger (only available for queries
	// that ran to completion).
	Segments []SegmentProfile `json:"segments,omitempty"`
	// RemainingQError scores the remaining-time estimate at each
	// non-terminal refresh against what actually remained:
	// max(est/actual, actual/est), -1 where undefined. Parallel to the
	// non-terminal prefix of Events; only filled for done queries.
	RemainingQError []float64 `json:"remaining_q_error,omitempty"`
	// Counters are engine counter deltas attributable to this query's
	// execution (I/O retries, injected faults); absent when the engine
	// registry is disabled or the counters never moved.
	Counters map[string]float64 `json:"counters,omitempty"`
	// Trace is the query → segment → operator span tree when the engine
	// ran with tracing enabled.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// HistorySummary is one element of GET /api/history's ranked listing.
type HistorySummary struct {
	ID           string  `json:"id"`
	Name         string  `json:"name,omitempty"`
	State        State   `json:"state"`
	FinishedAtMS int64   `json:"finished_at_ms"`
	VirtualSecs  float64 `json:"virtual_seconds"`
	Events       int     `json:"events"`
	Segments     int     `json:"segments"`
	// MeanRemainingQError averages RemainingQError's defined entries
	// (-1 when the profile has none) — the listing's estimator score.
	MeanRemainingQError float64 `json:"mean_remaining_q_error"`
	Error               string  `json:"error,omitempty"`
}

// HistoryResponse is GET /api/history.
type HistoryResponse struct {
	// Capacity is the store's bound and Retained how many profiles it
	// currently holds (retained ≤ capacity; oldest evicted first).
	Capacity int `json:"capacity"`
	Retained int `json:"retained"`
	// Profiles are ranked per the request's sort order (default:
	// newest-terminal-first).
	Profiles []HistorySummary `json:"profiles"`
}

// DashboardConfig is GET /api/dashboard/config: what the embedded
// dashboard needs to render without hard-coding server settings.
type DashboardConfig struct {
	// SparklineSeries are the series IDs the dashboard's metric panel
	// plots (lint-checked against the module's registrations).
	SparklineSeries  []string `json:"sparkline_series"`
	SampleIntervalMS int      `json:"sample_interval_ms"`
	KeepAliveMS      int      `json:"keepalive_ms"`
	HistoryCapacity  int      `json:"history_capacity"`
	// Shards is the serving engine's shard count; values > 1 switch the
	// dashboard into fleet mode (per-shard heatmap panel).
	Shards int `json:"shards,omitempty"`
}
