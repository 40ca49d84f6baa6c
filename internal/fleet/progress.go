// Global progress aggregation: N per-shard indicator streams merged into
// one monotone fleet-level stream.
//
// The merge rule, in the paper's terms: work U is additive across
// partitions, so global DoneU and the global total estimate are sums of
// the latest per-shard figures; speed is the sum of the speeds of shards
// still running; elapsed time is the max across shards (parallel
// execution — the vclock barrier merge); remaining time is the max of
// the per-shard remaining estimates, because the fleet finishes when its
// slowest shard does. Percent is clamped monotone: per-shard DoneU never
// decreases, but per-shard total estimates are refined both up and down,
// so the raw ratio can regress — the coordinator publishes its running
// maximum, the same "don't walk backwards" discipline the single-engine
// indicator applies within a segment.
package fleet

import (
	"math"
	"sync"

	"progressdb"
)

// ShardReport is one shard's latest indicator refresh, tagged with the
// shard id.
type ShardReport struct {
	Shard  int
	Report progressdb.Report
}

// Report is one aggregated fleet-level progress refresh: the global
// figures plus the per-shard breakdown they were derived from.
type Report struct {
	progressdb.Report
	// Shards holds the latest refresh of every shard heard from so far,
	// in shard order.
	Shards []ShardReport
}

// aggregator folds per-shard refreshes into global reports. All merge
// state is guarded by mu; reports are built (and sequenced) under it,
// then handed to the observer outside it. Publishing used to happen
// under mu directly, which meant a slow observer — the server's paced
// subscriber fan-out sleeps between refreshes — stalled every shard
// goroutine trying to ingest an update; progresslint's lockdisc
// analyzer flagged the callback-under-mutex and the split below is the
// fix.
type aggregator struct {
	f          *Fleet
	onProgress func(Report)

	// pubMu serializes observer delivery, outside mu. pubSeq is the
	// sequence number of the newest report delivered: a report overtaken
	// while waiting for the observer is dropped, never delivered out of
	// order.
	//
	//lint:lockcoarse delivery lock: the observer callback paces/blocks by design
	pubMu  sync.Mutex
	pubSeq uint64

	mu         sync.Mutex
	seq        uint64
	latest     []progressdb.Report
	seen       []bool
	maxPercent float64
	history    []Report
	finished   bool
}

func newAggregator(f *Fleet, onProgress func(Report)) *aggregator {
	n := len(f.shards)
	return &aggregator{
		f:          f,
		onProgress: onProgress,
		latest:     make([]progressdb.Report, n),
		seen:       make([]bool, n),
	}
}

// shardUpdate ingests one shard refresh and publishes the new global
// report.
func (a *aggregator) shardUpdate(id int, r progressdb.Report) {
	rep, seq, ok := a.ingestUpdate(id, r)
	if ok {
		a.deliver(rep, seq)
	}
}

// ingestUpdate folds one refresh into the merge state and builds the
// resulting global report, entirely under mu.
func (a *aggregator) ingestUpdate(id int, r progressdb.Report) (Report, uint64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.finished {
		return Report{}, 0, false // terminal report already built; late stragglers are dropped
	}
	a.latest[id] = r
	a.seen[id] = true
	a.f.met.shardPercent[id].Set(r.Percent)
	a.f.met.shardDone[id].Set(r.DoneU)
	rep, seq := a.buildLocked(false)
	return rep, seq, true
}

// finish publishes the exactly-once terminal report. Only the success
// path calls it: like the single engine, a failed or canceled query ends
// without a Finished refresh and the error is the terminal signal.
func (a *aggregator) finish() {
	rep, seq, ok := a.ingestFinish()
	if ok {
		a.deliver(rep, seq)
	}
}

func (a *aggregator) ingestFinish() (Report, uint64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.finished {
		return Report{}, 0, false
	}
	a.finished = true
	rep, seq := a.buildLocked(true)
	return rep, seq, true
}

// deliver hands one built report to the observer. Delivery runs outside
// mu so a paced or otherwise slow observer never stalls shard
// goroutines; pubMu keeps observers single-file, and the sequence check
// drops a report that a newer one overtook while it waited. finished is
// set before the terminal report is sequenced, so that report carries
// the run's highest seq: it is never dropped and still arrives exactly
// once.
func (a *aggregator) deliver(rep Report, seq uint64) {
	if a.onProgress == nil {
		return
	}
	a.pubMu.Lock()
	defer a.pubMu.Unlock()
	if seq <= a.pubSeq {
		return
	}
	a.pubSeq = seq
	a.onProgress(rep)
}

// buildLocked merges the per-shard latest reports into the next global
// report, records it in the history, and assigns it the next sequence
// number. Callers hold mu.
func (a *aggregator) buildLocked(final bool) (Report, uint64) {
	g := progressdb.Report{CurrentSegment: -1, RemainingSeconds: math.NaN()}
	for i := range a.latest {
		if !a.seen[i] {
			continue
		}
		r := a.latest[i]
		g.DoneU += r.DoneU
		g.EstimatedCostU += r.EstimatedCostU
		g.SegmentsDone += r.SegmentsDone
		if r.ElapsedSeconds > g.ElapsedSeconds {
			g.ElapsedSeconds = r.ElapsedSeconds
		}
		g.StepPercent += r.StepPercent / float64(len(a.latest))
		if !r.Finished {
			g.SpeedU += r.SpeedU
			if rem := r.RemainingSeconds; !math.IsNaN(rem) && !math.IsInf(rem, 0) {
				if math.IsNaN(g.RemainingSeconds) || rem > g.RemainingSeconds {
					g.RemainingSeconds = rem
				}
			}
		}
	}
	if g.EstimatedCostU > 0 {
		if pct := math.Min(100*g.DoneU/g.EstimatedCostU, 100); pct > a.maxPercent {
			a.maxPercent = pct
		}
	}
	if final {
		a.maxPercent = 100
		g.Finished = true
		g.RemainingSeconds = 0
		g.SpeedU = 0
	}
	g.Percent = a.maxPercent

	rep := Report{Report: g, Shards: make([]ShardReport, 0, len(a.latest))}
	for i := range a.latest {
		if a.seen[i] {
			rep.Shards = append(rep.Shards, ShardReport{Shard: i, Report: a.latest[i]})
		}
	}
	a.history = append(a.history, rep)
	a.f.met.events.Inc()
	a.seq++
	return rep, a.seq
}
