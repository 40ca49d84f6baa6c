package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"progressdb/client"
)

// chokeTransport wraps the server handler and violently closes the first
// progress-stream connection after a fixed number of SSE events have
// been flushed — the network fault the client's reconnect-with-resume
// path exists for.
type chokeTransport struct {
	inner      http.Handler
	mu         sync.Mutex
	killed     bool
	afterBytes int
}

func (c *chokeTransport) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasSuffix(r.URL.Path, "/progress") {
		c.inner.ServeHTTP(w, r)
		return
	}
	c.mu.Lock()
	alreadyKilled := c.killed
	c.killed = true
	c.mu.Unlock()
	if alreadyKilled {
		// Later connections (the resume) pass through untouched.
		c.inner.ServeHTTP(w, r)
		return
	}
	c.inner.ServeHTTP(&chokingWriter{ResponseWriter: w, budget: c.afterBytes}, r)
}

// chokingWriter aborts the connection once budget bytes have been
// written. http.ErrAbortHandler makes net/http sever the TCP connection
// without a graceful close, so the client sees a mid-stream drop.
type chokingWriter struct {
	http.ResponseWriter
	written int
	budget  int
}

func (cw *chokingWriter) Write(p []byte) (int, error) {
	if cw.written >= cw.budget {
		panic(http.ErrAbortHandler)
	}
	cw.written += len(p)
	return cw.ResponseWriter.Write(p)
}

func (cw *chokingWriter) Flush() {
	if fl, ok := cw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// flushWriter is a ResponseWriter that counts flushes. With flushed set,
// each Flush hands the test the body so far and waits on resume, so what
// the test publishes meanwhile reaches the handler in one wake.
type flushWriter struct {
	header  http.Header
	body    strings.Builder
	flushes int
	flushed chan string
	resume  chan struct{}
}

func (w *flushWriter) Header() http.Header         { return w.header }
func (w *flushWriter) WriteHeader(int)             {}
func (w *flushWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

func (w *flushWriter) Flush() {
	w.flushes++
	if w.flushed != nil {
		w.flushed <- w.body.String()
		<-w.resume
	}
}

// TestProgressFlushesOncePerBatch: the SSE handler flushes once for the
// header and the whole replay, then once per wake however many events
// the wake delivers — with the same bytes a flush per event would send.
func TestProgressFlushesOncePerBatch(t *testing.T) {
	s, _ := stubServer(t, Config{Workers: 1, KeepAlive: -1})
	submitStub(t, s, "hold") // holds the one worker, so the next jobs stay queued
	settle(t, s, 0, 1)
	events := func(body string) int { return strings.Count(body, "\n\n") }
	publish := func(j *job, n int) {
		for i := 0; i < n; i++ {
			j.publish(client.ProgressEvent{DoneU: float64(i)})
		}
	}

	// Subscribing after the terminal event: one flush for everything.
	j := submitStub(t, s, "hold")
	publish(j, 3)
	s.reg.cancel(j, "canceled by test")
	w := &flushWriter{header: http.Header{}}
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/queries/"+j.id+"/progress", nil))
	want := ""
	for _, ev := range j.history {
		name := "progress"
		if ev.Terminal() {
			name = string(ev.State)
		}
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		want += fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, name, data)
	}
	if w.flushes != 1 || w.body.String() != want {
		t.Fatalf("replay of 4 events: %d flushes, body\n%s\nwant 1 flush, body\n%s", w.flushes, w.body.String(), want)
	}

	// Live: the header alone, then one flush per wake.
	j = submitStub(t, s, "hold")
	w = &flushWriter{header: http.Header{}, flushed: make(chan string), resume: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/queries/"+j.id+"/progress", nil))
	}()
	for i, step := range []func(){
		func() { publish(j, 3) },
		func() { publish(j, 2); s.reg.cancel(j, "canceled by test") },
		nil,
	} {
		body := <-w.flushed
		if got := events(body); got != []int{0, 3, 6}[i] {
			t.Fatalf("flush %d: %d events written so far, want %d:\n%s", i+1, got, []int{0, 3, 6}[i], body)
		}
		if step != nil {
			step() // the handler is inside Flush: everything lands in one wake
		}
		w.resume <- struct{}{}
	}
	<-done
	if w.flushes != 3 {
		t.Fatalf("%d flushes, want 3: the header, then one per wake", w.flushes)
	}
}

// TestStreamResumeAfterDrop kills the SSE connection mid-query and
// verifies the client transparently reconnects with Last-Event-ID: the
// callback sees every event exactly once, in order, with no duplicates,
// no gaps, and exactly one terminal event.
func TestStreamResumeAfterDrop(t *testing.T) {
	db := syntheticDB(t)
	s := New(db, Config{Workers: 1, QueueDepth: 4, SampleInterval: -1})
	choke := &chokeTransport{inner: s.Handler(), afterBytes: 600}
	ts := httptest.NewServer(choke)
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	cl := client.New(ts.URL)

	ctx := context.Background()
	// Paced so the query is still running when the first connection dies.
	sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select * from t", PaceMS: 5})
	if err != nil {
		t.Fatal(err)
	}

	var seqs []int
	terminals := 0
	err = cl.Stream(ctx, sub.ID, func(ev client.ProgressEvent) error {
		seqs = append(seqs, ev.Seq)
		if ev.Terminal() {
			terminals++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream did not survive the drop: %v", err)
	}

	choke.mu.Lock()
	killed := choke.killed
	choke.mu.Unlock()
	if !killed {
		t.Fatal("test harness never killed a connection — nothing was exercised")
	}
	if len(seqs) < 3 {
		t.Fatalf("only %d events delivered", len(seqs))
	}
	for i, seq := range seqs {
		if seq != i+1 {
			t.Fatalf("event %d has seq %d — duplicates or gaps across the reconnect (all: %v)", i, seq, seqs)
		}
	}
	if terminals != 1 {
		t.Fatalf("%d terminal events, want exactly 1", terminals)
	}
	info, err := cl.Get(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != client.StateDone {
		t.Fatalf("query ended %s: %s", info.State, info.Error)
	}
}

// TestStreamResumeFiltersReplay checks the server side in isolation: a
// raw request with Last-Event-ID must replay only events after it.
func TestStreamResumeFiltersReplay(t *testing.T) {
	db := syntheticDB(t)
	_, cl := testServer(t, db, Config{Workers: 1, QueueDepth: 4, SampleInterval: -1})
	ctx := context.Background()

	sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select count(*) from t"})
	if err != nil {
		t.Fatal(err)
	}
	// Run to completion so the full history is known.
	total := 0
	if err := cl.Stream(ctx, sub.ID, func(ev client.ProgressEvent) error {
		total = ev.Seq
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total < 2 {
		t.Skipf("query took only %d events; nothing to filter", total)
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.BaseURL()+"/queries/"+sub.ID+"/progress", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if strings.Contains(body, "id: 1\n") {
		t.Fatal("replay included event 1 despite Last-Event-ID: 1")
	}
	if !strings.Contains(body, "id: 2\n") {
		t.Fatalf("replay missing event 2:\n%s", body)
	}

	// A malformed Last-Event-ID is rejected, not ignored.
	req2, _ := http.NewRequestWithContext(ctx, http.MethodGet, cl.BaseURL()+"/queries/"+sub.ID+"/progress", nil)
	req2.Header.Set("Last-Event-ID", "bogus")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus Last-Event-ID got status %d, want 400", resp2.StatusCode)
	}
}
