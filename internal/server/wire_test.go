package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"progressdb"
	"progressdb/client"
)

// rewriteGolden makes each golden test run write its file instead of
// comparing with it: go test -run <test> ./internal/server -args -rewrite
var rewriteGolden = flag.Bool("rewrite", false, "rewrite the golden file of each test run (testdata/wire.txt, ../../BENCH_served.json)")

// wireFile pins what progressd sends about one query.
const wireFile = "testdata/wire.txt"

// wallClock matches the wire's wall-clock fields, which TestWireGolden
// masks.
var wallClock = regexp.MustCompile(`"(submitted_at_ms|started_at_ms|finished_at_ms)":\d+`)

// TestWireGolden pins progressd's wire byte for byte: the raw SSE
// stream of the paper's Q2 under I/O interference, then the query's
// /api/history/{id} body, indented, with its wall-clock fields masked.
// Everything else on it is virtual, so it repeats exactly.
func TestWireGolden(t *testing.T) {
	db := progressdb.Open(progressdb.Config{
		WorkMemPages:          16,
		BufferPoolPages:       128,
		ProgressUpdateSeconds: 10,
		SeqPageCost:           0.8e-3 / 0.01,
		RandPageCost:          6.4e-3 / 0.01,
		Metrics:               true,
	})
	if err := db.LoadPaperWorkload(0.01, false); err != nil {
		t.Fatal(err)
	}
	if err := db.ColdRestart(); err != nil {
		t.Fatal(err)
	}
	now := db.Now()
	if err := db.SetInterference("io", now+5, now+60, 4); err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{Workers: 1, SampleInterval: -1, KeepAlive: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	q2, err := progressdb.PaperQuery(2)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := client.New(ts.URL).Submit(ctx, client.SubmitRequest{SQL: q2, Name: "Q2"})
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) []byte {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v\n%s", path, resp.StatusCode, err, body)
		}
		return body
	}
	stream := get("/queries/" + sub.ID + "/progress")
	var profile bytes.Buffer
	if err := json.Indent(&profile, wallClock.ReplaceAll(get("/api/history/"+sub.ID), []byte(`"$1":0`)), "", " "); err != nil {
		t.Fatal(err)
	}
	got := "# GET /queries/" + sub.ID + "/progress\n" + string(stream) +
		"# GET /api/history/" + sub.ID + ", wall-clock fields masked\n" + profile.String()
	checkGolden(t, wireFile, got)
}

// checkGolden compares got with the committed file, byte for byte, and
// names the first line that differs; under -rewrite it writes got there
// instead.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	rewrite := "go test -run " + t.Name() + " ./internal/server -args -rewrite"
	if *rewriteGolden {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v; rewrite with: %s", err, rewrite)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	n := 0
	for n < len(gl) && n < len(wl) && gl[n] == wl[n] {
		n++
	}
	line := func(ls []string) string {
		if n < len(ls) {
			return ls[n]
		}
		return "<end of file>"
	}
	t.Fatalf("%s differs at line %d:\n  generated: %s\n  committed: %s\nif the change is intended, rewrite with: %s",
		file, n+1, line(gl), line(wl), rewrite)
}
