package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"progressdb"
	"progressdb/client"
	"progressdb/internal/core"
)

// job is one submitted query's lifecycle record: its state machine
// (queued → running → done/failed/canceled), its progress-event history,
// and its fan-out subscriber set.
//
// Each event is encoded once, into the SSE frame that every subscriber
// and every replay is sent as it is.
//
// Locking: j.mu guards every mutable field. publish and the ledger's
// terminal transition assign event sequence numbers and append to
// history under the lock, then push to each subscriber's private buffer
// — so a subscriber that replays history at subscribe time and then
// drains its buffer sees every event exactly once, in order, with
// exactly one terminal event. The push into a subscriber's buffer nests
// its lock inside the job's, so the order is job.mu before
// subscriber.mu: nothing takes job.mu while holding a subscriber's lock.
type job struct {
	n        int // submission sequence number; id is "q<n>"
	id       string
	name     string
	sql      string
	keepRows bool
	pace     time.Duration
	// costU is the optimizer's price at admission, in U: stmt's CostU,
	// or < 0 when the query could not be planned.
	costU float64
	// stmt is the statement the engine prepared at admission, and
	// prepErr why it could not (stmt is nil then). Both are under mu: the
	// worker takes them (take), and a job that ends without a worker
	// drops them, so a retained job pins no plan.
	stmt    Stmt
	prepErr error

	// ctx is canceled by DELETE /queries/{id} or server shutdown; the
	// executor observes it at its safe points.
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     client.State
	err       error
	res       *progressdb.Result
	seq       int
	history   []client.ProgressEvent
	frames    []frame // history's events as sent, one frame each
	subs      map[int]*subscriber
	nextSub   int
	submitted time.Time
	started   time.Time
	finished  time.Time

	// profile is what /api/history serves of a finished job; nil while
	// the job is live. The ledger's terminal transition writes it once,
	// holding both the ledger's lock and mu, and nothing changes it or
	// what it points to afterwards, so a holder of either lock may read
	// it and every reader may share it.
	profile *client.QueryProfile
}

func newJob(n int, req client.SubmitRequest, stmt Stmt, prepErr error, costU float64, now time.Time) *job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		n: n, id: fmt.Sprintf("q%d", n), name: req.Name, sql: req.SQL, keepRows: req.KeepRows,
		pace: time.Duration(req.PaceMS) * time.Millisecond, costU: costU, stmt: stmt, prepErr: prepErr,
		ctx: ctx, cancel: cancel,
		state: client.StateQueued, subs: make(map[int]*subscriber),
		submitted: now,
	}
	if j.name == "" {
		j.name = j.id
	}
	return j
}

// publish appends one progress event (assigning its sequence number)
// and fans it out. Events published after the terminal event are
// dropped — the terminal event is always last.
func (j *job) publish(ev client.ProgressEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.fanOutLocked(j.appendLocked(ev))
}

// appendLocked gives ev the next sequence number, records it in the
// history and returns its frame.
func (j *job) appendLocked(ev client.ProgressEvent) frame {
	j.seq++
	ev.Seq = j.seq
	ev.QueryID = j.id
	j.history = append(j.history, ev)
	f := newFrame(ev)
	j.frames = append(j.frames, f)
	return f
}

func (j *job) fanOutLocked(f frame) {
	for _, sub := range j.subs {
		sub.push(f)
	}
}

// frame is one event as the SSE stream sends it: the id, event and data
// lines, encoded once. seq and terminal are the event's, for the
// Last-Event-ID filter and the stream's end.
type frame struct {
	seq      int
	terminal bool
	data     []byte
}

// newFrame encodes ev. Every number on an event has passed through
// client's finite, so encoding cannot fail.
func newFrame(ev client.ProgressEvent) frame {
	name := "progress"
	if ev.Terminal() {
		name = string(ev.State)
	}
	data, _ := json.Marshal(ev)
	b := make([]byte, 0, len(data)+len(name)+40)
	b = append(b, "id: "...)
	b = strconv.AppendInt(b, int64(ev.Seq), 10)
	b = append(b, "\nevent: "...)
	b = append(b, name...)
	b = append(b, "\ndata: "...)
	b = append(b, data...)
	b = append(b, "\n\n"...)
	return frame{seq: ev.Seq, terminal: ev.Terminal(), data: b}
}

// setRunning marks the job handed to a worker. Called by the ledger,
// which only hands out jobs that are still queued.
func (j *job) setRunning(now time.Time) {
	j.mu.Lock()
	j.state = client.StateRunning
	j.started = now
	j.mu.Unlock()
}

// take hands the job's statement, or the error that kept it from being
// planned, to the worker running the job; the job keeps neither.
func (j *job) take() (Stmt, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	stmt, err := j.stmt, j.prepErr
	j.stmt, j.prepErr = nil, nil
	return stmt, err
}

// endLocked records the outcome and appends the terminal event to the
// history, returning its frame for the ledger to fan out once the job is
// accounted for. Called exactly once, with j.mu held.
func (j *job) endLocked(state client.State, err error, res *progressdb.Result, now time.Time) frame {
	j.state = state
	j.err = err
	j.res = res
	j.finished = now
	j.stmt, j.prepErr = nil, nil

	// Terminal event: carry the last refresh's figures forward so late
	// subscribers still see how far the query got.
	var ev client.ProgressEvent
	if n := len(j.history); n > 0 {
		ev = j.history[n-1]
		ev.Segment = nil
	}
	ev.State = state
	if state == client.StateDone {
		ev.Percent = 100
		ev.RemainingSeconds = 0
		ev.Finished = true
		if res != nil {
			ev.ElapsedSeconds = res.VirtualSeconds
		}
	}
	if err != nil {
		ev.Error = err.Error()
	}
	return j.appendLocked(ev)
}

// remainingU is the job's outstanding work in U: the admission price,
// refined by the latest progress refresh. A query that could not be
// priced charges nothing until a refresh prices it.
func (j *job) remainingU() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	est, done := j.costU, 0.0
	if n := len(j.history); n > 0 {
		ev := j.history[n-1]
		if ev.EstTotalU > 0 {
			est = ev.EstTotalU
		}
		done = ev.DoneU
	}
	if est < 0 {
		return 0
	}
	return math.Max(est-done, 0)
}

// remainingWall is the job's remaining-time estimate in wall seconds:
// the indicator's virtual estimate scaled by the job's own observed
// virtual-to-wall rate (paced queries run virtual seconds in wall
// seconds; unpaced ones in microseconds). ok=false until a refresh has
// produced an estimate.
func (j *job) remainingWall(now time.Time) (rem float64, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := len(j.history)
	if n == 0 {
		return 0, false
	}
	ev, wall := j.history[n-1], now.Sub(j.started).Seconds()
	if ev.ElapsedSeconds <= 0 || ev.RemainingSeconds < 0 || wall <= 0 {
		return 0, false
	}
	return ev.RemainingSeconds * (wall / ev.ElapsedSeconds), true
}

// subscribe registers a new subscriber and atomically returns the frames
// of the event history so far; the subscriber's buffer receives
// everything published afterwards. If the job is already terminal the
// replay ends with the terminal event and the buffer stays silent.
func (j *job) subscribe() (replay []frame, sub *subscriber, id int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = j.frames[:len(j.frames):len(j.frames)]
	sub = &subscriber{wake: make(chan struct{}, 1)}
	id = j.nextSub
	j.nextSub++
	j.subs[id] = sub
	return replay, sub, id
}

func (j *job) unsubscribe(id int) {
	j.mu.Lock()
	delete(j.subs, id)
	j.mu.Unlock()
}

// info snapshots the job for the REST surface. queuePos is computed by
// the ledger (0 when not queued).
func (j *job) info(queuePos int) client.QueryInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	qi := client.QueryInfo{
		ID:            j.id,
		Name:          j.name,
		SQL:           j.sql,
		State:         j.state,
		SubmittedAtMS: j.submitted.UnixMilli(),
	}
	if j.state == client.StateQueued {
		qi.QueuePosition = queuePos
	}
	if !j.started.IsZero() {
		qi.StartedAtMS = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		qi.FinishedAtMS = j.finished.UnixMilli()
	}
	if n := len(j.history); n > 0 {
		ev := j.history[n-1]
		qi.Progress = &ev
	}
	if j.err != nil {
		qi.Error = j.err.Error()
	}
	if j.res != nil {
		qi.VirtualSeconds = j.res.VirtualSeconds
		qi.RowCount = j.res.RowCount()
	}
	return qi
}

// profileLocked freezes the terminal job into its history record: the final
// lifecycle snapshot, the complete progress-event ledger, the storage
// events of any query that ran, and — for queries that ran to completion —
// the plan report and the remaining-time q-error trajectory. The event
// ledger, the counts and the plan report are the job's own, not copies:
// the terminal event is in the ledger and publish appends nothing after
// that one, and a finished Result is not written.
func (j *job) profileLocked() *client.QueryProfile {
	p := &client.QueryProfile{
		Query: client.QueryInfo{
			ID:            j.id,
			Name:          j.name,
			SQL:           j.sql,
			State:         j.state,
			SubmittedAtMS: j.submitted.UnixMilli(),
		},
		Events: j.history[:len(j.history):len(j.history)],
	}
	if !j.started.IsZero() {
		p.Query.StartedAtMS = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		p.Query.FinishedAtMS = j.finished.UnixMilli()
	}
	if j.err != nil {
		p.Query.Error = j.err.Error()
	}
	if j.res == nil {
		return p
	}
	res := j.res
	p.IO = &res.Plan.IO
	if j.state != client.StateDone {
		return p
	}
	p.Query.VirtualSeconds = res.VirtualSeconds
	p.Query.RowCount = res.RowCount()
	if len(res.Plan.Segments) > 0 {
		p.Plan = &res.Plan
	}
	// Score the remaining-time estimate at each non-terminal refresh
	// against what actually remained — computable only now that the true
	// total virtual duration is known.
	for _, ev := range p.Events {
		if ev.Terminal() {
			break
		}
		actual := res.VirtualSeconds - ev.ElapsedSeconds
		p.RemainingQError = append(p.RemainingQError, core.QError(ev.RemainingSeconds, actual))
	}
	return p
}

// state returns the current lifecycle state.
func (j *job) currentState() client.State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// result returns the completed result (nil unless done).
func (j *job) result() (*progressdb.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != client.StateDone {
		return nil, false
	}
	return j.res, true
}

// subscriber is one SSE connection's private event queue: an unbounded
// buffer plus a wake signal. Unbounded is safe because a query's event
// count is bounded by its refresh count, and each event is small; it is
// what guarantees a slow reader never forces the publisher to drop a
// terminal event.
type subscriber struct {
	mu   sync.Mutex
	buf  []frame
	wake chan struct{}
}

func (s *subscriber) push(f frame) {
	s.mu.Lock()
	s.buf = append(s.buf, f)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// drain returns and clears the buffered events.
func (s *subscriber) drain() []frame {
	s.mu.Lock()
	evs := s.buf
	s.buf = nil
	s.mu.Unlock()
	return evs
}

// wait blocks until events are buffered or ctx ends; ok=false means the
// context ended.
func (s *subscriber) wait(ctx context.Context) (evs []frame, ok bool) {
	for {
		if evs := s.drain(); len(evs) > 0 {
			return evs, true
		}
		select {
		case <-s.wake:
		case <-ctx.Done():
			return nil, false
		}
	}
}

// waitKeepAlive is wait with an idle bound: if no event arrives within d
// it returns (nil, true, true), telling the SSE handler to emit a
// keep-alive comment and wait again. ok=false still means the context
// ended.
func (s *subscriber) waitKeepAlive(ctx context.Context, d time.Duration) (evs []frame, ok, ping bool) {
	t := time.NewTimer(d)
	defer t.Stop()
	for {
		if evs := s.drain(); len(evs) > 0 {
			return evs, true, false
		}
		select {
		case <-s.wake:
		case <-t.C:
			return nil, true, true
		case <-ctx.Done():
			return nil, false, false
		}
	}
}
