// Package fleet serves one logical database from N independent engine
// shards. Tables are hash-partitioned across the shards on a designated
// partition-key column; a coordinator rewrites each incoming query into
// per-shard subqueries, fans them out concurrently, merges the result
// streams, and aggregates per-shard progress reports into one global,
// monotone progress stream.
//
// Each shard is a complete progressdb.DB — its own buffer pool, virtual
// clock, statistics, and fault schedule. The paper's progress model
// composes across partitions: total work is the sum of per-shard U, speed
// is the sum of per-shard observed speeds, and elapsed/remaining time is
// the max across shards (shards run in parallel, so the fleet finishes
// when its slowest shard does — a max-merge of the per-shard vclocks at
// every barrier). Per-shard estimate ledgers are deliberately kept
// separate (König et al. motivate per-partition estimator selection);
// only the coordinator's own fleet_* instruments live on the fleet
// registry.
//
// A single-threaded engine shard admits one subquery at a time, enforced
// by a per-shard mutex. Distinct fleet queries interleave across shards;
// one fleet query's fan-out holds each shard's mutex exactly once, so
// there is no lock-ordering hazard.
package fleet

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"progressdb"
	"progressdb/internal/obs"
	"progressdb/internal/tuple"
	"progressdb/internal/workload"
)

// Config configures a fleet.
type Config struct {
	// Shards is the number of engine shards (>= 1).
	Shards int
	// Shard is the per-shard engine configuration. Every shard gets an
	// identical copy (own buffer pool, own virtual clock, and its own
	// injector armed with Shard.FaultSpec; SetShardFaultSpec re-arms one).
	Shard progressdb.Config
}

// Fleet is a sharded serving layer over N engine shards.
type Fleet struct {
	shards []*shard
	reg    *obs.Registry
	met    metrics

	mu     sync.Mutex // guards tables
	tables map[string]*tableInfo
}

// tableInfo records how a table is partitioned.
type tableInfo struct {
	key    string // partition-key column name
	keyIdx int    // its position in the schema
}

// shard is one engine plus the mutex serializing subqueries onto it (a
// progressdb.DB is single-threaded by contract).
// A shard's engine invokes its progress callback mid-execution — i.e.
// with shard.mu held — and the callback feeds the aggregator, so the
// shard lock always sits above the aggregator's state and delivery
// locks. The callback edge is a function value the analyzer cannot see
// through, so the hierarchy is declared rather than inferred:
//
//lint:lockorder shard.mu < aggregator.mu
//lint:lockorder shard.mu < aggregator.pubMu

type shard struct {
	id int
	// mu serializes work onto the shard's embedded engine: one subquery
	// (or partition load, or fault-spec install) at a time, exactly like
	// a single-session database. The critical sections deliberately span
	// engine execution and storage I/O — blocking under this lock IS the
	// serialization.
	//
	//lint:lockcoarse a shard admits one subquery at a time; engine execution and storage I/O block under it by design
	mu sync.Mutex
	db *progressdb.DB
}

// metrics is the coordinator's own instrument set, registered on the
// fleet registry (not on any shard's).
type metrics struct {
	queries     *obs.Counter
	unsupported *obs.Counter
	failed      *obs.Counter
	subqueries  *obs.Counter
	cancels     *obs.Counter
	events      *obs.Counter
	rowsMerged  *obs.Counter
	shardsGauge *obs.Gauge

	shardBusy    []*obs.Gauge
	shardPercent []*obs.Gauge
	shardDone    []*obs.Gauge
	shardQueries []*obs.Counter
}

// New creates a fleet of cfg.Shards engine shards.
func New(cfg Config) (*Fleet, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fleet: shard count %d < 1", cfg.Shards)
	}
	f := &Fleet{reg: obs.NewRegistry(), tables: make(map[string]*tableInfo)}
	for i := 0; i < cfg.Shards; i++ {
		sc := cfg.Shard
		sc.FaultSpec = "" // installed via SetFaultSpec below so a bad spec errors instead of panicking
		db := progressdb.Open(sc)
		if spec := cfg.Shard.FaultSpec; spec != "" {
			if err := db.SetFaultSpec(spec); err != nil {
				return nil, fmt.Errorf("fleet: shard %d fault spec: %w", i, err)
			}
		}
		f.shards = append(f.shards, &shard{id: i, db: db})
	}
	f.wireMetrics()
	return f, nil
}

func (f *Fleet) wireMetrics() {
	r := f.reg
	m := &f.met
	m.queries = r.Counter("fleet_queries_total", "queries submitted to the fleet coordinator")
	m.unsupported = r.Counter("fleet_queries_unsupported_total", "queries rejected as not shard-distributable")
	m.failed = r.Counter("fleet_queries_failed_total", "fleet queries that returned an error")
	m.subqueries = r.Counter("fleet_subqueries_total", "per-shard subqueries fanned out by the coordinator")
	m.cancels = r.Counter("fleet_cancels_propagated_total", "shard failures that triggered cancellation of sibling shards")
	m.events = r.Counter("fleet_progress_events_total", "aggregated global progress reports published")
	m.rowsMerged = r.Counter("fleet_rows_merged_total", "result rows merged by the coordinator across all shards")
	m.shardsGauge = r.Gauge("fleet_shards", "configured shard count")
	m.shardsGauge.Set(float64(len(f.shards)))
	for i := range f.shards {
		lv := strconv.Itoa(i)
		m.shardBusy = append(m.shardBusy, r.LabeledGauge("fleet_shard_busy", "shard", lv, "1 while the shard executes a subquery"))
		m.shardPercent = append(m.shardPercent, r.LabeledGauge("fleet_shard_percent", "shard", lv, "latest per-shard subquery progress percent"))
		m.shardDone = append(m.shardDone, r.LabeledGauge("fleet_shard_done_u", "shard", lv, "latest per-shard completed work in U"))
		m.shardQueries = append(m.shardQueries, r.LabeledCounter("fleet_shard_subqueries_total", "shard", lv, "subqueries executed by this shard"))
	}
}

// Shards returns the shard count.
func (f *Fleet) Shards() int { return len(f.shards) }

// Metrics snapshots the coordinator instruments (fleet_* series), sorted
// by series ID. Shard-internal engine instruments stay on their own
// registries.
func (f *Fleet) Metrics() []obs.Sample { return f.reg.Snapshot() }

// ---- placement & routing ---------------------------------------------

// CreateTable creates the table on every shard and records its partition
// key. Rows subsequently Inserted route to the shard their key value
// hashes to.
func (f *Fleet) CreateTable(name, partitionKey string, cols ...progressdb.Column) error {
	keyIdx := -1
	for i, c := range cols {
		if strings.EqualFold(c.Name, partitionKey) {
			keyIdx = i
			break
		}
	}
	if keyIdx < 0 {
		return fmt.Errorf("fleet: partition key %q is not a column of table %q", partitionKey, name)
	}
	for _, sh := range f.shards {
		sh.mu.Lock()
		err := sh.db.CreateTable(name, cols...)
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("fleet: shard %d: %w", sh.id, err)
		}
	}
	f.mu.Lock()
	f.tables[strings.ToLower(name)] = &tableInfo{key: partitionKey, keyIdx: keyIdx}
	f.mu.Unlock()
	return nil
}

// Insert routes one row to the shard owning its partition-key value.
func (f *Fleet) Insert(table string, values ...interface{}) error {
	ti := f.table(table)
	if ti == nil {
		return fmt.Errorf("fleet: table %q has no partition key registered", table)
	}
	if ti.keyIdx >= len(values) {
		return fmt.Errorf("fleet: insert into %q has %d values, partition key is column %d", table, len(values), ti.keyIdx)
	}
	key, ok := cellValue(values[ti.keyIdx])
	if !ok {
		v := values[ti.keyIdx]
		return fmt.Errorf("fleet: insert into %q: partition key value %v has unsupported type %T", table, v, v)
	}
	sh := f.shards[workload.PartitionOfValue(key, len(f.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.db.Insert(table, values...)
}

func (f *Fleet) table(name string) *tableInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tables[strings.ToLower(name)]
}

// ---- fleet-wide admin -------------------------------------------------

// Analyze collects optimizer statistics on every shard.
func (f *Fleet) Analyze() error {
	return f.eachShard(func(sh *shard) error { return sh.db.Analyze() })
}

// ColdRestart empties every shard's buffer pool.
func (f *Fleet) ColdRestart() error {
	return f.eachShard(func(sh *shard) error { return sh.db.ColdRestart() })
}

// SetShardFaultSpec installs (or clears, with an empty spec) one shard's
// fault schedule at runtime — after bootstrap, so the faults hit queries
// rather than the load path. Chaos tests drive this.
func (f *Fleet) SetShardFaultSpec(shard int, spec string) error {
	if shard < 0 || shard >= len(f.shards) {
		return fmt.Errorf("fleet: no shard %d (have %d)", shard, len(f.shards))
	}
	sh := f.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.db.SetFaultSpec(spec)
}

// CheckLeaks verifies no shard holds leaked temp files or orphaned
// pages; errors from all shards are joined.
func (f *Fleet) CheckLeaks() error {
	var errs []error
	for _, sh := range f.shards {
		sh.mu.Lock()
		if err := sh.db.CheckLeaks(); err != nil {
			errs = append(errs, fmt.Errorf("fleet: shard %d: %w", sh.id, err))
		}
		sh.mu.Unlock()
	}
	return errors.Join(errs...)
}

func (f *Fleet) eachShard(fn func(*shard) error) error {
	for _, sh := range f.shards {
		sh.mu.Lock()
		err := fn(sh)
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("fleet: shard %d: %w", sh.id, err)
		}
	}
	return nil
}

// ---- bootstrap --------------------------------------------------------

// LoadPaperWorkload loads hash partition i of the paper's Table 1 data
// set into shard i, concurrently, and registers the paper tables'
// partition keys. The union across shards is exactly the data set a
// single engine's LoadPaperWorkload produces.
func (f *Fleet) LoadPaperWorkload(scale float64, correlated bool) error {
	errs := make([]error, len(f.shards))
	var wg sync.WaitGroup
	for _, sh := range f.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			sh.mu.Lock()
			defer sh.mu.Unlock()
			errs[sh.id] = sh.db.LoadPaperWorkloadPartition(scale, correlated, sh.id, len(f.shards))
		}(sh)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("fleet: shard %d load: %w", i, err)
		}
	}
	f.registerPaperTables()
	return nil
}

func (f *Fleet) registerPaperTables() {
	schemaOf := map[string]*tuple.Schema{
		"customer":         workload.CustomerSchema(),
		"orders":           workload.OrdersSchema(),
		"lineitem":         workload.LineitemSchema(),
		"customer_subset1": workload.CustomerSchema(),
		"customer_subset2": workload.CustomerSchema(),
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for t, k := range workload.PartitionKeys() {
		f.tables[t] = &tableInfo{key: k, keyIdx: schemaOf[t].ColIndex(k)}
	}
}
