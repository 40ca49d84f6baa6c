// The job ledger: every submitted query's life — admission decision,
// wait for a worker, execution, terminal transition, retention — is a
// method on one structure under one mutex.
//
// Admission is progress-aware (the paper's §6 put to work): the server
// plans every query once (Engine.Prepare) and prices it with that plan's
// initial cost estimate (Stmt.CostU) — the plan its worker later runs.
// Each live job's outstanding work is that price refined by what its
// progress indicator last reported (EstTotalU − DoneU). The sum across
// live jobs is the server's remaining-work budget; a submit that would
// push it past Config.MaxInflightU is shed with 429 before any work is
// queued, so overload decisions are cost-based, not count-based — ten
// cheap index probes admit where one 40M-page join would not.
//
// The same live jobs answer two time questions. Retry-After on a shed
// is the remaining-time estimate of the cheapest running query (its
// virtual estimate scaled by the query's own observed virtual-to-wall
// rate). Deadline fail-fast converts the in-flight remaining U plus the
// newcomer's own cost into wall seconds via an EWMA of the observed
// drain rate (U per wall second), and rejects a query whose deadline_ms
// the estimate already overshoots — in microseconds, instead of letting
// it time out after queueing.
package server

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"time"

	"progressdb"
	"progressdb/client"
	"progressdb/internal/exec"
)

// registry is the ledger. A live job is in exactly one of queued and
// running, and whoever takes it out ends it: that membership, read and
// written under mu, is what makes the terminal transition happen once.
// Terminal jobs stay addressable until retain newer ones have ended,
// and each carries its own profile, so the retired ring is also the
// store behind /api/history: a job and its profile go together.
//
// mu is the package's outermost lock and nothing blocks under it: the
// order is registry.mu before job.mu, never the reverse.
type registry struct {
	queueDepth   int
	maxInflightU float64 // 0 = unlimited
	retain       int
	met          *metrics

	// ready carries a wake token per queued job. A send that finds it
	// full is dropped: it then already holds a token for every job the
	// queue can hold.
	ready chan struct{}

	mu       sync.Mutex
	nextID   int
	jobs     map[string]*job // live and retained terminal jobs
	queued   []*job          // waiting for a worker, FIFO
	running  []*job
	retired  []*job // the newest retain terminal jobs, oldest first
	draining bool
	// idle is made by the first drain and closed once no job is live:
	// admission has stopped, so the live set only shrinks from then on.
	idle chan struct{}
	// uPerWallSec is the EWMA drain rate observed from progress reports
	// and completions; 0 until the first observation.
	uPerWallSec float64
}

const admissionRateAlpha = 0.3 // EWMA weight of the newest rate sample

func newRegistry(cfg Config, met *metrics) *registry {
	return &registry{
		queueDepth:   cfg.QueueDepth,
		maxInflightU: cfg.MaxInflightU,
		retain:       cfg.HistoryDepth,
		met:          met,
		ready:        make(chan struct{}, cfg.QueueDepth),
		jobs:         make(map[string]*job),
	}
}

// verdict is the outcome of one admission decision.
type verdict struct {
	// reason is empty when admitted, else one of the client.Shed*
	// constants.
	reason string
	// retryAfter is the capacity estimate attached to budget and
	// queue-full sheds, in wall seconds.
	retryAfter float64
	// estimatedMS is the completion estimate that tripped a deadline
	// shed.
	estimatedMS float64
	// inflightU is the remaining work in flight when the budget was
	// found short, and costU the price of the query it was short for.
	inflightU, costU float64
}

// admit is the one admission decision: draining, the U budget, the
// deadline, the queue bound — then ID allocation and insert, all in one
// critical section, so racing submits can neither overshoot a bound nor
// leave anything to undo. stmt is what Engine.Prepare made of req.SQL,
// priced at its CostU; a CostU < 0, or a prepErr in place of stmt, means
// the query could not be priced, and it is admitted uncharged.
func (r *registry) admit(req client.SubmitRequest, stmt Stmt, prepErr error, now time.Time) (*job, verdict) {
	costU := -1.0
	if prepErr == nil {
		costU = stmt.CostU()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.draining {
		return nil, verdict{reason: client.ShedDraining}
	}
	inflight := r.inflightULocked()
	if r.maxInflightU > 0 && costU > 0 && inflight+costU > r.maxInflightU {
		return nil, verdict{reason: client.ShedBudget, retryAfter: r.retryAfterLocked(now), inflightU: inflight, costU: costU}
	}
	if req.DeadlineMS > 0 && costU >= 0 && r.uPerWallSec > 0 {
		if estMS := (inflight + costU) / r.uPerWallSec * 1000; estMS > float64(req.DeadlineMS) {
			return nil, verdict{reason: client.ShedDeadline, estimatedMS: estMS}
		}
	}
	if len(r.queued) >= r.queueDepth {
		return nil, verdict{reason: client.ShedQueueFull, retryAfter: r.retryAfterLocked(now)}
	}

	r.nextID++
	j := newJob(r.nextID, req, stmt, prepErr, costU, now)
	r.jobs[j.id] = j
	r.queued = append(r.queued, j)
	r.met.admitted.Inc()
	r.syncGaugesLocked()
	select {
	case r.ready <- struct{}{}:
	default:
	}
	return j, verdict{}
}

// next hands the longest-waiting job to a worker, already running; nil
// when the token that woke the worker outlived its job (canceled while
// queued).
func (r *registry) next(now time.Time) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.queued) == 0 {
		return nil
	}
	j := r.queued[0]
	r.queued = slices.Delete(r.queued, 0, 1)
	r.running = append(r.running, j)
	j.setRunning(now)
	r.syncGaugesLocked()
	return j
}

// cancel stops j: a job still waiting for a worker ends here and now; a
// running one unwinds at the executor's next safe point and its worker
// ends it.
func (r *registry) cancel(j *job, why string) {
	j.cancel()
	r.mu.Lock()
	defer r.mu.Unlock()
	if slices.Contains(r.queued, j) {
		r.finishLocked(j, client.StateCanceled, errors.New(why), nil)
	}
}

// finish is the terminal transition of a job its caller took out of the
// queue (a worker, through next).
func (r *registry) finish(j *job, state client.State, err error, res *progressdb.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finishLocked(j, state, err, res)
}

// finishLocked is the only place a job ends. Everything a client can
// ask about afterwards — the ledger, the gauges, the outcome counters,
// the history profile — is settled before the terminal state and event
// become visible, which is the last thing it does: whoever has seen a
// query end finds it fully accounted.
func (r *registry) finishLocked(j *job, state client.State, err error, res *progressdb.Result) {
	if i := slices.Index(r.running, j); i >= 0 {
		r.running = slices.Delete(r.running, i, i+1)
	} else if i := slices.Index(r.queued, j); i >= 0 {
		r.queued = slices.Delete(r.queued, i, i+1)
	} else {
		return // not live: already ended
	}
	r.retired = append(r.retired, j)
	if len(r.retired) > r.retain {
		delete(r.jobs, r.retired[0].id)
		r.retired = slices.Delete(r.retired, 0, 1)
	}
	now := time.Now()
	if state == client.StateDone && len(res.History) > 0 {
		r.observeRateLocked(res.History[len(res.History)-1].DoneU, now.Sub(j.started).Seconds())
	}
	r.syncGaugesLocked()

	switch state {
	case client.StateDone:
		r.met.completed.Inc()
	case client.StateCanceled:
		r.met.canceled.Inc()
	case client.StateFailed:
		r.met.failed.Inc()
		var internal *exec.InternalError
		if errors.Is(err, context.DeadlineExceeded) {
			r.met.timedout.Inc()
		} else if errors.As(err, &internal) {
			r.met.panicked.Inc()
		}
	}

	j.mu.Lock()
	ev := j.endLocked(state, err, res, now)
	j.profile = j.profileLocked()
	r.met.profiles.Inc()
	r.met.retained.Set(float64(len(r.retired)))
	j.fanOutLocked(ev)
	j.mu.Unlock()
	r.closeIfIdleLocked()
}

// closeIfIdleLocked signals Drain once the last live job has ended,
// after its terminal event is out.
func (r *registry) closeIfIdleLocked() {
	if r.draining && len(r.queued)+len(r.running) == 0 {
		close(r.idle)
	}
}

// observeRate feeds the drain-rate EWMA with doneU units of work seen
// to take wallSeconds.
func (r *registry) observeRate(doneU, wallSeconds float64) {
	r.mu.Lock()
	r.observeRateLocked(doneU, wallSeconds)
	r.mu.Unlock()
}

func (r *registry) observeRateLocked(doneU, wallSeconds float64) {
	rate := doneU / wallSeconds
	if doneU <= 0 || wallSeconds <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return
	}
	if r.uPerWallSec <= 0 {
		r.uPerWallSec = rate
		return
	}
	r.uPerWallSec = admissionRateAlpha*rate + (1-admissionRateAlpha)*r.uPerWallSec
}

// drain stops admission for good. It reports whether this call was the
// one that did, and returns a channel closed once no job is live.
func (r *registry) drain() (first bool, idle <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.draining {
		first, r.draining, r.idle = true, true, make(chan struct{})
		r.closeIfIdleLocked()
	}
	return first, r.idle
}

// load is the ledger's occupancy at one instant.
type load struct {
	queued, running int
	inflightU       float64
	draining        bool
}

func (r *registry) load() load {
	r.mu.Lock()
	defer r.mu.Unlock()
	return load{len(r.queued), len(r.running), r.inflightULocked(), r.draining}
}

// syncGauges refreshes the occupancy gauges. The ledger does so itself
// at every admit, start and end; readers of the gauges call it first so
// server_inflight_u also follows the work running queries have
// reported done since.
func (r *registry) syncGauges() {
	r.mu.Lock()
	r.syncGaugesLocked()
	r.mu.Unlock()
}

func (r *registry) syncGaugesLocked() {
	r.met.queueDepth.Set(float64(len(r.queued)))
	r.met.running.Set(float64(len(r.running)))
	r.met.inflightQ.Set(float64(len(r.queued) + len(r.running)))
	r.met.inflightU.Set(r.inflightULocked())
	r.met.drainRate.Set(r.uPerWallSec)
}

// inflightULocked is the remaining-work estimate across live jobs, in U.
func (r *registry) inflightULocked() float64 {
	var sum float64
	for _, j := range r.queued {
		sum += j.remainingU()
	}
	for _, j := range r.running {
		sum += j.remainingU()
	}
	return sum
}

// retryAfterLocked estimates when capacity frees up: the smallest
// wall-clock remaining-time estimate across running queries, clamped to
// [1, 600] seconds — Retry-After is advice, not a contract.
func (r *registry) retryAfterLocked(now time.Time) float64 {
	best := math.Inf(1)
	for _, j := range r.running {
		if rem, ok := j.remainingWall(now); ok && rem < best {
			best = rem
		}
	}
	if math.IsInf(best, 1) {
		return 1
	}
	return math.Min(math.Max(best, 1), 600)
}

func (r *registry) get(id string) (*job, bool) {
	r.mu.Lock()
	j, ok := r.jobs[id]
	r.mu.Unlock()
	return j, ok
}

// profile returns the retained profile of the finished query id, if any.
func (r *registry) profile(id string) (*client.QueryProfile, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	if !ok || j.profile == nil {
		return nil, false
	}
	return j.profile, true
}

// profiles returns the retained profiles, newest terminal first.
func (r *registry) profiles() []*client.QueryProfile {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*client.QueryProfile, 0, len(r.retired))
	for i := len(r.retired) - 1; i >= 0; i-- {
		out = append(out, r.retired[i].profile)
	}
	return out
}

// list returns the live and retained jobs in submission order.
func (r *registry) list() []*job {
	r.mu.Lock()
	out := make([]*job, 0, len(r.jobs))
	for _, j := range r.jobs {
		out = append(out, j)
	}
	r.mu.Unlock()
	slices.SortFunc(out, func(a, b *job) int { return a.n - b.n })
	return out
}

// live returns the jobs that have not ended, running ones first.
func (r *registry) live() []*job {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(slices.Clone(r.running), r.queued...)
}

// queuePosition returns j's 1-based position among the jobs waiting for
// a worker (0 if j is not waiting).
func (r *registry) queuePosition(j *job) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Index(r.queued, j) + 1
}
