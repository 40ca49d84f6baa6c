package server

import (
	"context"
	"sync"
	"testing"

	"progressdb"
	"progressdb/client"
	"progressdb/internal/fleet"
	"progressdb/internal/workload"
)

// planCounter is an Engine that records what it plans and what it runs:
// each Prepare's statement or error, and each statement ExecQuery is
// handed.
type planCounter struct {
	Engine
	mu       sync.Mutex
	prepared []Stmt
	prepErrs []error
	ran      []Stmt
}

func (c *planCounter) Prepare(sql string) (Stmt, error) {
	st, err := c.Engine.Prepare(sql)
	c.mu.Lock()
	c.prepared = append(c.prepared, st)
	c.prepErrs = append(c.prepErrs, err)
	c.mu.Unlock()
	return st, err
}

func (c *planCounter) ExecQuery(ctx context.Context, stmt Stmt, keepRows bool, onProgress func(Progress)) (*progressdb.Result, error) {
	c.mu.Lock()
	c.ran = append(c.ran, stmt)
	c.mu.Unlock()
	return c.Engine.ExecQuery(ctx, stmt, keepRows, onProgress)
}

// TestOnePlanPerServedQuery serves every bench statement on an engine
// and on a 2-shard fleet: each submit is planned exactly once, the
// worker runs that very statement, and admission charged its CostU. A
// statement the fleet cannot distribute is planned once too, and its
// worker fails it with the planner's error without running anything.
func TestOnePlanPerServedQuery(t *testing.T) {
	db := progressdb.Open(progressdb.Config{ProgressUpdateSeconds: 1})
	if err := db.LoadPaperWorkload(0.002, false); err != nil {
		t.Fatal(err)
	}
	for _, ix := range workload.BenchIndexes {
		if err := db.CreateIndex(ix[0], ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	f, err := fleet.New(fleet.Config{Shards: 2, Shard: progressdb.Config{ProgressUpdateSeconds: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.LoadPaperWorkload(0.002, false); err != nil {
		t.Fatal(err)
	}

	for _, eng := range []struct {
		name string
		eng  Engine
	}{{"engine", dbEngine{db}}, {"fleet", fleetEngine{f}}} {
		c := &planCounter{Engine: eng.eng}
		s := NewEngine(c, Config{Workers: 1, SampleInterval: -1, KeepAlive: -1})
		ran := 0
		for i, st := range workload.BenchStatements {
			j := submitStub(t, s, st.SQL)
			settle(t, s, 0, 0)
			at := eng.name + " " + st.Name
			c.mu.Lock()
			prepared, prepErr := c.prepared[i], c.prepErrs[i]
			nPrepared, nRan := len(c.prepared), len(c.ran)
			c.mu.Unlock()
			if nPrepared != i+1 {
				t.Fatalf("%s: %d Prepare calls after %d submits, want one per submit", at, nPrepared, i+1)
			}
			info := j.info(0)
			if prepErr != nil {
				if j.costU != -1 || info.State != client.StateFailed || info.Error != prepErr.Error() || nRan != ran {
					t.Errorf("%s: unplannable: cost %g, state %s, error %q, %d runs; want -1, failed, %q, %d",
						at, j.costU, info.State, info.Error, nRan, prepErr, ran)
				}
				continue
			}
			if info.State != client.StateDone {
				t.Fatalf("%s: state %s (%s)", at, info.State, info.Error)
			}
			if ran++; nRan != ran {
				t.Fatalf("%s: %d ExecQuery calls after %d plannable submits", at, nRan, ran)
			}
			c.mu.Lock()
			got := c.ran[ran-1]
			c.mu.Unlock()
			if got != prepared {
				t.Errorf("%s: ExecQuery ran a statement other than the one Prepare made", at)
			}
			if j.costU != prepared.CostU() {
				t.Errorf("%s: admission charged %g U, the statement's CostU is %g", at, j.costU, prepared.CostU())
			}
			if stmt, err := j.take(); stmt != nil || err != nil {
				t.Errorf("%s: the finished job still holds its statement", at)
			}
		}
		if ran == 0 || eng.name == "engine" && ran != len(workload.BenchStatements) {
			t.Errorf("%s: %d of %d statements ran", eng.name, ran, len(workload.BenchStatements))
		}
		s.Close()
	}
}

// TestQueuedJobDropsStmt: a job canceled while it waits for a worker
// lets go of its statement at once, so the retained window pins no plan.
func TestQueuedJobDropsStmt(t *testing.T) {
	s, eng := stubServer(t, Config{Workers: 1, QueueDepth: 4})
	held := submitStub(t, s, "hold")
	settle(t, s, 0, 1)
	queued := submitStub(t, s, "ok")
	s.reg.cancel(queued, "canceled while queued")
	if stmt, err := queued.take(); stmt != nil || err != nil {
		t.Fatalf("a job canceled while queued holds %v, %v", stmt, err)
	}
	eng.release <- struct{}{}
	settle(t, s, 0, 0)
	if held.currentState() != client.StateDone {
		t.Fatalf("held job ended %s", held.currentState())
	}
}

// TestAdmissionChargeIsPlanCost: on an engine, every bench statement's
// admission charge is, exactly, the initial cost of the plan that ran —
// the sum of the served profile's segment estimates, which the
// indicator starts from. Its first SSE report need not show it: by the
// first refresh the indicator may have refined the total from what the
// finished segments counted (q3, q4 and semi do at this period).
func TestAdmissionChargeIsPlanCost(t *testing.T) {
	db := progressdb.Open(progressdb.Config{ProgressUpdateSeconds: 1})
	if err := db.LoadPaperWorkload(0.002, false); err != nil {
		t.Fatal(err)
	}
	for _, ix := range workload.BenchIndexes {
		if err := db.CreateIndex(ix[0], ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	s, cl := testServer(t, db, Config{SampleInterval: -1, KeepAlive: -1})
	ctx := context.Background()
	for _, st := range workload.BenchStatements {
		sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: st.SQL, Name: st.Name})
		if err != nil {
			t.Fatalf("%s: %v", st.Name, err)
		}
		j, ok := s.reg.get(sub.ID)
		if !ok {
			t.Fatalf("%s: %s not registered", st.Name, sub.ID)
		}
		waitState(t, cl, sub.ID, client.StateDone)
		prof, err := cl.HistoryProfile(ctx, sub.ID)
		if err != nil || prof.Plan == nil {
			t.Fatalf("%s: profile %+v, %v", st.Name, prof, err)
		}
		planned := 0.0
		for _, seg := range prof.Plan.Segments {
			planned += seg.EstCostU
		}
		if j.costU != planned {
			t.Errorf("%s: admission charged %v U, the plan that ran starts from %v U", st.Name, j.costU, planned)
		}
	}
}
