// Fixture for the obsnames analyzer. The assumed import path is
// arbitrary (the rule applies module-wide); what matters is that the
// registrations target *progressdb/internal/obs.Registry.
package fixture

import "progressdb/internal/obs"

func register(reg *obs.Registry, dynamic string) {
	// Well-formed names.
	reg.Counter("storage_io_retries_total", "retried page accesses")
	reg.Gauge("server_queue_depth", "waiting queries")
	reg.Histogram("progress_refresh_u", "estimate at refresh", []float64{1, 10})
	reg.LabeledCounter("exec_rows_out_total", "op", "scan", "rows by operator")
	// Labeled families may be registered from several sites.
	reg.LabeledCounter("exec_rows_out_total", "op", "sort", "rows by operator")
	// Coordinator metrics: the fleet subsystem covers both plain
	// counters and the per-shard labeled gauges behind the heatmap.
	reg.Counter("fleet_subqueries_total", "per-shard subqueries launched")
	reg.LabeledGauge("fleet_shard_percent", "shard", "0", "per-shard progress")
	reg.LabeledGauge("fleet_shard_percent", "shard", "1", "per-shard progress")
	// Resilience metrics: shed reasons are a labeled counter family,
	// per-shard work a labeled gauge, propagated cancels a plain counter.
	reg.LabeledCounter("server_shed_total", "reason", "budget", "sheds by reason")
	reg.LabeledCounter("server_shed_total", "reason", "draining", "sheds by reason")
	reg.LabeledGauge("fleet_shard_done_u", "shard", "0", "per-shard completed work")
	reg.Counter("fleet_cancels_propagated_total", "shard failures that canceled siblings")

	reg.Counter(dynamic, "computed name")                   // want `must be a literal string`
	reg.Counter("storageIoRetries", "camel case")           // want `not snake_case`
	reg.Counter("exec_", "dangling underscore")             // want `not snake_case`
	reg.Counter("query_wall_seconds", "bad subsystem")      // want `unknown subsystem prefix "query"`
	reg.Gauge("server_queue_depth", "duplicate meaning")    // want `already registered at`
	reg.Counter("exec_rows_out_total", "labeled collision") // want `already registered at`

	//lint:ignore obsnames fixture: legacy dashboard series kept during migration
	reg.Counter("legacy_scan_rate", "grandfathered name")
}
