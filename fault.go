package progressdb

import (
	"fmt"

	"progressdb/internal/faultinject"
	"progressdb/internal/storage"
)

// This file is the engine's failure-model surface: fault injection for
// chaos testing and the resource-leak checks that the randomized
// fault-schedule suite asserts after every failed query. Deadlines are
// the caller's: they arrive on the context of ExecContext,
// ExecDiscardContext or GroupQuery.Ctx.

// SetFaultSpec installs (or, with an empty spec, removes) a storage
// fault injector. The spec grammar is internal/faultinject's compact
// form, e.g.
//
//	seed=7,readerr=0.01,writeerr=0.02,transient=0.5,latency=0.1:0.005,target=temp
//
// Faults injected under a running query surface through the normal
// error path: transient errors may be absorbed by the buffer pool's
// bounded retry, permanent errors fail the query (cleanly — see
// CheckLeaks), and injected panics are converted to *exec.InternalError
// at the engine boundary. When Config.Metrics is on, injector activity
// is exported as the faultinject_* series.
func (db *DB) SetFaultSpec(spec string) error {
	cfg, err := faultinject.Parse(spec)
	if err != nil {
		return err
	}
	disk := db.cat.Pool().Disk()
	if cfg == (faultinject.Config{}) {
		db.inj = nil
		disk.SetFaultInjector(nil)
		return nil
	}
	in := faultinject.New(cfg)
	in.SetMetrics(faultinject.NewMetrics(db.reg))
	db.inj = in
	disk.SetFaultInjector(in)
	return nil
}

// FaultStats reports what the installed fault injector has done (the
// zero value when no injector is installed).
type FaultStats struct {
	// Reads and Writes count targeted physical page accesses inspected.
	Reads, Writes int64
	// ReadFaults and WriteFaults count injected I/O errors by direction.
	ReadFaults, WriteFaults int64
	// TransientFaults is how many injected errors were retryable.
	TransientFaults int64
	// LatencyEvents counts accesses stretched with injected latency.
	LatencyEvents int64
	// Panics counts injected executor crashes.
	Panics int64
}

// FaultStats snapshots the installed injector's accounting.
func (db *DB) FaultStats() FaultStats {
	if db.inj == nil {
		return FaultStats{}
	}
	s := db.inj.Stats()
	return FaultStats{
		Reads: s.Reads, Writes: s.Writes,
		ReadFaults: s.ReadFaults, WriteFaults: s.WriteFaults,
		TransientFaults: s.TransientFaults,
		LatencyEvents:   s.LatencyEvents,
		Panics:          s.Panics,
	}
}

// CheckLeaks verifies the engine's cleanup invariants between queries:
// no temp/spill files are left on the simulated disk and the buffer
// pool holds no pages of removed files. It is meant to be called when
// no query is executing — the chaos suite calls it after every
// schedule, including ones that ended in injected errors, panics, or
// cancellation.
func (db *DB) CheckLeaks() error {
	pool := db.cat.Pool()
	if temps := pool.Disk().OpenFilesOfClass(storage.ClassTemp); len(temps) > 0 {
		return fmt.Errorf("progressdb: %d temp file(s) leaked: %v", len(temps), temps)
	}
	if orphans := pool.OrphanedPages(); len(orphans) > 0 {
		return fmt.Errorf("progressdb: buffer pool holds %d page(s) of removed files: %v",
			len(orphans), orphans)
	}
	if pins := pool.PinnedFrames(); pins != 0 {
		return fmt.Errorf("progressdb: buffer pool holds %d leaked frame pin(s)", pins)
	}
	return nil
}
