// Fixture for the obsnames analyzer's tsdb.Ref resolution: every
// Ref-marked series name must resolve to a registration somewhere in
// the analyzed set (here: metrics.go's registrations), directly or as a
// histogram's derived _count/_sum series. Unresolvable references are
// reported at the End hook — note the valid forward reference below to
// a metric registered in the *other* fixture file.
package fixture

import "progressdb/internal/obs/tsdb"

func dashboardLists(dynamic string) []string {
	return []string{
		// Registered directly in metrics.go.
		tsdb.Ref("storage_io_retries_total"),
		tsdb.Ref("server_queue_depth"),
		// Labeled family: the label selector is stripped before lookup.
		tsdb.Ref(`exec_rows_out_total{op="scan"}`),
		// The heatmap's per-shard selector resolves the same way.
		tsdb.Ref(`fleet_shard_percent{shard="0"}`),
		// Resilience series: shed-reason and per-shard selectors
		// resolve against their labeled family registrations.
		tsdb.Ref(`server_shed_total{reason="budget"}`),
		tsdb.Ref(`fleet_shard_done_u{shard="0"}`),
		tsdb.Ref("fleet_cancels_propagated_total"),
		// Histogram-derived series resolve via their base registration.
		tsdb.Ref("progress_refresh_u_count"),
		tsdb.Ref("progress_refresh_u_sum"),

		tsdb.Ref(dynamic),                     // want `must be a literal string`
		tsdb.Ref("storage_io_reties_total"),   // want `nothing in the module registers`
		tsdb.Ref("progress_refresh_u_counts"), // want `nothing in the module registers`
	}
}
