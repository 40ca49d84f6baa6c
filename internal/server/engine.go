// Engine abstraction: the server fronts either a single progressdb.DB
// or an internal/fleet sharded deployment through one interface, so the
// HTTP surface — admission control, SSE fan-out, metrics, history — is
// identical for both.
package server

import (
	"context"

	"progressdb"
	"progressdb/client"
	"progressdb/internal/fleet"
	"progressdb/internal/obs"
)

// Progress is one engine progress refresh as the server publishes it:
// the global report plus, for sharded engines, the per-shard breakdown
// already converted to wire form.
type Progress struct {
	Report progressdb.Report
	Shards []client.ShardProgress
}

// Engine is the execution backend behind a Server.
type Engine interface {
	// ExecQuery runs sql under ctx, materializing rows only when
	// keepRows is set, and invokes onProgress (if non-nil) at every
	// progress refresh.
	ExecQuery(ctx context.Context, sql string, keepRows bool, onProgress func(Progress)) (*progressdb.Result, error)
	// Metrics snapshots the engine-side instruments (empty when
	// disabled). Safe to call while queries run: instruments are
	// atomic and clock gauges read the engine's shared clock group.
	Metrics() []obs.Sample
	// Shards returns the engine's shard count: 1 for a single DB, N for
	// a fleet.
	Shards() int
	// EstimateCostU prices sql with the optimizer's initial total-cost
	// estimate in U, without executing it — a pure catalog/plan read,
	// safe to call concurrently with a running query.
	EstimateCostU(sql string) (float64, error)
}

// dbEngine adapts a single progressdb.DB.
type dbEngine struct{ db *progressdb.DB }

func (e dbEngine) ExecQuery(ctx context.Context, sql string, keepRows bool, onProgress func(Progress)) (*progressdb.Result, error) {
	var cb func(progressdb.Report)
	if onProgress != nil {
		cb = func(r progressdb.Report) { onProgress(Progress{Report: r}) }
	}
	if keepRows {
		return e.db.ExecContext(ctx, sql, cb)
	}
	return e.db.ExecDiscardContext(ctx, sql, cb)
}

func (e dbEngine) Metrics() []obs.Sample { return e.db.Metrics() }
func (e dbEngine) Shards() int           { return 1 }

func (e dbEngine) EstimateCostU(sql string) (float64, error) { return e.db.EstimateCostU(sql) }

// fleetEngine adapts an internal/fleet deployment. The fleet's own
// coordinator handles fan-out, merge, and progress aggregation; the
// adapter converts its report/result shapes to the single-engine ones
// the server publishes.
type fleetEngine struct{ f *fleet.Fleet }

func (e fleetEngine) ExecQuery(ctx context.Context, sql string, keepRows bool, onProgress func(Progress)) (*progressdb.Result, error) {
	var cb func(fleet.Report)
	if onProgress != nil {
		cb = func(r fleet.Report) {
			onProgress(Progress{Report: r.Report, Shards: shardBreakdown(r.Shards)})
		}
	}
	var res *fleet.Result
	var err error
	if keepRows {
		res, err = e.f.ExecContext(ctx, sql, cb)
	} else {
		res, err = e.f.ExecDiscardContext(ctx, sql, cb)
	}
	if err != nil {
		return nil, err
	}
	out := &progressdb.Result{
		Columns:        res.Columns,
		Rows:           res.Rows,
		VirtualSeconds: res.VirtualSeconds,
		History:        make([]progressdb.Report, 0, len(res.History)),
	}
	for _, rep := range res.History {
		out.History = append(out.History, rep.Report)
	}
	return out, nil
}

func (e fleetEngine) Metrics() []obs.Sample { return e.f.Metrics() }
func (e fleetEngine) Shards() int           { return e.f.Shards() }

func (e fleetEngine) EstimateCostU(sql string) (float64, error) { return e.f.EstimateCostU(sql) }

// shardBreakdown converts a fleet report's per-shard slice to wire form.
func shardBreakdown(shards []fleet.ShardReport) []client.ShardProgress {
	if len(shards) == 0 {
		return nil
	}
	out := make([]client.ShardProgress, 0, len(shards))
	for _, sr := range shards {
		out = append(out, client.ShardProgressFromReport(sr.Shard, sr.Report))
	}
	return out
}
