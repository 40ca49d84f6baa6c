package fleet

import (
	"fmt"
	"strings"
	"testing"

	"progressdb"
)

// benchConfig mirrors the smoke configuration: a small buffer pool so
// repeated scans stay I/O-bound in the engine's virtual cost model,
// and a large refresh period so indicator callbacks are rare.
func benchConfig() progressdb.Config {
	return progressdb.Config{
		ProgressUpdateSeconds: 1000,
		BufferPoolPages:       64,
	}
}

// benchFleet builds an n-shard fleet holding one hash-partitioned fact
// table of rows synthetic tuples plus a small dimension table
// co-partitioned on the same key for the join benchmark.
func benchFleet(b *testing.B, shards, rows int) *Fleet {
	b.Helper()
	f, err := New(Config{Shards: shards, Shard: benchConfig()})
	if err != nil {
		b.Fatal(err)
	}
	if err := f.CreateTable("fact", "k",
		progressdb.Col("k", progressdb.Int), progressdb.Col("pad", progressdb.Text)); err != nil {
		b.Fatal(err)
	}
	if err := f.CreateTable("dim", "k",
		progressdb.Col("k", progressdb.Int), progressdb.Col("tag", progressdb.Text)); err != nil {
		b.Fatal(err)
	}
	pad := strings.Repeat("x", 100)
	for i := 0; i < rows; i++ {
		if err := f.Insert("fact", int64(i), pad); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < rows/10; i++ {
		if err := f.Insert("dim", int64(i), fmt.Sprintf("tag%d", i%7)); err != nil {
			b.Fatal(err)
		}
	}
	if err := f.Analyze(); err != nil {
		b.Fatal(err)
	}
	return f
}

// runBench executes sql b.N times and reports the engine's modeled
// query latency as the headline ns/op. progressdb is a virtual-time
// simulation (DESIGN.md §1): a query's duration is the virtual seconds
// its I/O and CPU cost model accumulates, and a fleet's duration is the
// slowest shard's — each shard owns 1/N of the pages, so sharding
// divides the modeled latency. That division is what this benchmark
// shows. Wall-clock nanoseconds stay visible as wall_ns/op; on a
// single-core host they measure allocator throughput, not the modeled
// system, so they are the footnote rather than the headline.
func runBench(b *testing.B, f *Fleet, sql string) {
	b.ResetTimer()
	var virtual float64
	for i := 0; i < b.N; i++ {
		res, err := f.ExecDiscard(sql, nil)
		if err != nil {
			b.Fatal(err)
		}
		virtual += res.VirtualSeconds
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "wall_ns/op")
	b.ReportMetric(virtual*1e9/float64(b.N), "ns/op")
}

// The scan pair is the headline: every shard scans its partition
// concurrently, so modeled latency drops by the shard count.
func benchScan(b *testing.B, shards int) {
	f := benchFleet(b, shards, 40000)
	runBench(b, f, "select * from fact")
}

// The join pair exercises the partition-wise path: fact.k = dim.k is
// co-partitioned, so each shard joins locally and the coordinator
// re-aggregates.
func benchJoin(b *testing.B, shards int) {
	f := benchFleet(b, shards, 40000)
	runBench(b, f, "select dim.tag, count(*) from fact, dim where fact.k = dim.k group by dim.tag")
}

func BenchmarkFleetScanShards1(b *testing.B) { benchScan(b, 1) }
func BenchmarkFleetScanShards4(b *testing.B) { benchScan(b, 4) }
func BenchmarkFleetJoinShards1(b *testing.B) { benchJoin(b, 1) }
func BenchmarkFleetJoinShards4(b *testing.B) { benchJoin(b, 4) }
