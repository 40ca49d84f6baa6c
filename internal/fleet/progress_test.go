package fleet

import (
	"sync"
	"testing"
	"time"

	"progressdb"
)

// Regression suite for the publish-under-mutex bug progresslint's
// lockdisc analyzer found: the aggregator used to invoke its onProgress
// callback while holding the state mutex, so the server's paced
// subscriber fan-out (which sleeps between refreshes) stalled every
// shard goroutine trying to ingest an update. Delivery now runs outside
// the state lock, serialized by pubMu with sequence-numbered stale-drop.

func testAggregator(t *testing.T, onProgress func(Report)) *aggregator {
	t.Helper()
	f, err := New(Config{Shards: 2, Shard: shardCfg})
	if err != nil {
		t.Fatal(err)
	}
	return newAggregator(f, onProgress)
}

// TestAggregatorParkedObserverDoesNotStallState parks the observer
// inside a delivery and proves the merge state stays live underneath:
// further ingest from every shard must proceed.
func TestAggregatorParkedObserverDoesNotStallState(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	a := testAggregator(t, func(Report) {
		entered <- struct{}{}
		<-release
	})
	defer close(release)

	go a.shardUpdate(0, progressdb.Report{DoneU: 1, EstimatedCostU: 10})
	<-entered // the observer is now parked mid-delivery

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, id := range []int{1, 0} {
			if _, _, ok := a.ingestUpdate(id, progressdb.Report{DoneU: 2, EstimatedCostU: 10}); !ok {
				t.Error("ingest refused while the observer was parked")
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("aggregator state stalled behind a parked observer callback (publish-under-mutex regression)")
	}
}

// TestAggregatorDeliveryDropsOvertakenReports pins the stale-drop rule:
// a report whose sequence number was overtaken while it waited for the
// delivery lock is dropped, never delivered out of order.
func TestAggregatorDeliveryDropsOvertakenReports(t *testing.T) {
	var got []float64
	a := testAggregator(t, func(r Report) { got = append(got, r.Percent) })
	for _, seq := range []uint64{2, 1, 3, 3} {
		a.deliver(Report{Report: progressdb.Report{Percent: float64(seq)}}, seq)
	}
	want := []float64{2, 3}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
}

// TestAggregatorConcurrentStreamMonotoneTerminalOnce hammers the
// aggregator from two shard goroutines and checks the delivered stream
// keeps the old under-one-lock guarantees: percent never walks
// backwards, and the terminal report arrives exactly once, last, at
// 100%. Run under -race this also exercises the ingest/delivery split.
func TestAggregatorConcurrentStreamMonotoneTerminalOnce(t *testing.T) {
	var percents []float64
	finals := 0
	a := testAggregator(t, func(r Report) {
		percents = append(percents, r.Percent)
		if r.Finished {
			finals++
		}
	})

	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 1; i <= 50; i++ {
				a.shardUpdate(id, progressdb.Report{DoneU: float64(i), EstimatedCostU: 50})
			}
		}(id)
	}
	wg.Wait()
	a.finish()
	a.finish() // idempotent: must not publish a second terminal report

	if finals != 1 {
		t.Fatalf("terminal report delivered %d times, want exactly once", finals)
	}
	if len(percents) == 0 || percents[len(percents)-1] != 100 {
		t.Fatalf("last delivered percent = %v, want 100 (terminal last)", percents[len(percents)-1:])
	}
	for i := 1; i < len(percents); i++ {
		if percents[i] < percents[i-1] {
			t.Fatalf("delivered percent regressed: %v -> %v at %d", percents[i-1], percents[i], i)
		}
	}
}
