package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client talks to a progressd server.
type Client struct {
	base string
	hc   *http.Client
}

// New creates a client for a server base URL, e.g.
// "http://127.0.0.1:8080". The underlying http.Client has no timeout:
// progress streams are long-lived; bound calls with a context instead.
func New(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// BaseURL returns the server base URL the client was built with,
// normalized (no trailing slash).
func (c *Client) BaseURL() string { return c.base }

// APIError is a non-2xx server response.
type APIError struct {
	// Status is the HTTP status code (429 = shed by admission control).
	Status int
	// Msg is the server's error message.
	Msg string
	// QueueDepth accompanies queue-full sheds: the full queue's capacity.
	QueueDepth int
	// Reason is the shed reason on 429/503 admission rejections: one of
	// the Shed* constants ("" on older servers and non-admission errors).
	Reason string
	// RetryAfterSeconds is the server's capacity estimate on a shed, from
	// the response body (sub-second precision) or the Retry-After header;
	// 0 when the server attached none.
	RetryAfterSeconds float64
}

func (e *APIError) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("progressd: %d (shed: %s): %s", e.Status, e.Reason, e.Msg)
	}
	return fmt.Sprintf("progressd: %d: %s", e.Status, e.Msg)
}

// IsQueueFull reports whether err is a 429 admission rejection.
func IsQueueFull(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests
}

// ShedReason extracts the admission shed reason from err ("" when err is
// not a shed rejection).
func ShedReason(err error) string {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Reason
	}
	return ""
}

// CloseIdleConnections closes keep-alive connections the client is no
// longer using. Mostly useful in tests that account for goroutines.
func (c *Client) CloseIdleConnections() {
	c.hc.CloseIdleConnections()
}

// do performs one JSON request/response round trip.
func (c *Client) do(ctx context.Context, method, path string, in, out interface{}) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return apiError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func apiError(resp *http.Response) error {
	ae := &APIError{Status: resp.StatusCode}
	var er ErrorResponse
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if json.Unmarshal(data, &er) == nil && er.Error != "" {
		ae.Msg, ae.QueueDepth = er.Error, er.QueueDepth
		ae.Reason, ae.RetryAfterSeconds = er.Reason, er.RetryAfterSeconds
	} else {
		ae.Msg = strings.TrimSpace(string(data))
	}
	if ae.RetryAfterSeconds == 0 {
		// Fall back to the standard header (whole seconds).
		if v := resp.Header.Get("Retry-After"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				ae.RetryAfterSeconds = float64(n)
			}
		}
	}
	return ae
}

// Submit enqueues a query; the server answers immediately with the
// query ID and admission state. A full queue returns an *APIError with
// Status 429 (see IsQueueFull).
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (SubmitResponse, error) {
	var out SubmitResponse
	err := c.do(ctx, http.MethodPost, "/queries", req, &out)
	return out, err
}

// RetryPolicy shapes SubmitWithRetry's backoff. The zero value means
// the documented defaults.
type RetryPolicy struct {
	// MaxAttempts bounds total submit attempts (default 8).
	MaxAttempts int
	// BaseBackoff seeds the exponential fallback delay used when the
	// server attaches no Retry-After estimate (default 100ms, doubling).
	BaseBackoff time.Duration
	// MaxBackoff caps any single wait, server-advised or not (default 5s).
	MaxBackoff time.Duration
	// NoJitter disables the random up-to-+20% spread added to each wait.
	// Leave it false in production — jitter is what keeps a crowd of
	// shed clients from re-stampeding the server in lockstep.
	NoJitter bool
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 100 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 5 * time.Second
	}
	return p
}

// retryableShed reports whether a shed is worth retrying: capacity sheds
// (queue full, budget exhausted) clear as in-flight work drains; a
// deadline shed will fail the same way every time, and a draining server
// is going away.
func retryableShed(ae *APIError) bool {
	if ae.Status != http.StatusTooManyRequests {
		return false
	}
	switch ae.Reason {
	case ShedQueueFull, ShedBudget:
		return true
	case "":
		return true // older servers shed without a reason; 429 is capacity
	}
	return false
}

// SubmitWithRetry submits a query, absorbing capacity sheds (429 with
// reason "queue_full" or "budget") by waiting and resubmitting. The wait
// honors the server's Retry-After estimate when present — that figure is
// derived from the remaining-time estimate of the cheapest in-flight
// query, so it approximates when budget actually frees — and falls back
// to exponential backoff otherwise; every wait is jittered (up to +20%)
// and capped by the policy. Non-capacity errors (including deadline and
// draining sheds) are returned immediately.
func (c *Client) SubmitWithRetry(ctx context.Context, req SubmitRequest, policy RetryPolicy) (SubmitResponse, error) {
	policy = policy.withDefaults()
	fallback := policy.BaseBackoff
	var lastErr error
	for attempt := 1; attempt <= policy.MaxAttempts; attempt++ {
		out, err := c.Submit(ctx, req)
		if err == nil {
			return out, nil
		}
		lastErr = err
		var ae *APIError
		if !errors.As(err, &ae) || !retryableShed(ae) {
			return SubmitResponse{}, err
		}
		wait := fallback
		fallback *= 2
		if ae.RetryAfterSeconds > 0 {
			wait = time.Duration(ae.RetryAfterSeconds * float64(time.Second))
		}
		if !policy.NoJitter {
			wait += time.Duration(rand.Int63n(int64(wait)/5 + 1))
		}
		if wait > policy.MaxBackoff {
			wait = policy.MaxBackoff
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return SubmitResponse{}, ctx.Err()
		}
	}
	return SubmitResponse{}, fmt.Errorf("client: submit shed %d times, giving up: %w", policy.MaxAttempts, lastErr)
}

// Drain asks the server to drain (POST /admin/drain): stop admitting,
// wait up to timeout for in-flight queries, then force-cancel stragglers.
// timeout <= 0 uses the server's configured default. The call blocks
// until the drain resolves.
func (c *Client) Drain(ctx context.Context, timeout time.Duration) (DrainResponse, error) {
	path := "/admin/drain"
	if timeout > 0 {
		path += "?timeout_ms=" + strconv.FormatInt(timeout.Milliseconds(), 10)
	}
	var out DrainResponse
	err := c.do(ctx, http.MethodPost, path, nil, &out)
	return out, err
}

// Get fetches one query's lifecycle snapshot.
func (c *Client) Get(ctx context.Context, id string) (QueryInfo, error) {
	var out QueryInfo
	err := c.do(ctx, http.MethodGet, "/queries/"+id, nil, &out)
	return out, err
}

// List fetches all queries in submission order.
func (c *Client) List(ctx context.Context) ([]QueryInfo, error) {
	var out []QueryInfo
	err := c.do(ctx, http.MethodGet, "/queries", nil, &out)
	return out, err
}

// Cancel requests cancellation. Queued queries transition to canceled
// immediately; running queries unwind at the executor's next safe point
// and transition shortly after (poll Get to observe it). Canceling a
// query already in a terminal state is a no-op. The returned snapshot
// is taken after the request is registered.
func (c *Client) Cancel(ctx context.Context, id string) (QueryInfo, error) {
	var out QueryInfo
	err := c.do(ctx, http.MethodDelete, "/queries/"+id, nil, &out)
	return out, err
}

// Result fetches a completed query's rows (404 until the query is done).
func (c *Client) Result(ctx context.Context, id string) (ResultResponse, error) {
	var out ResultResponse
	err := c.do(ctx, http.MethodGet, "/queries/"+id+"/result", nil, &out)
	return out, err
}

// Health fetches the server's health summary.
func (c *Client) Health(ctx context.Context) (HealthResponse, error) {
	var out HealthResponse
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}

// MetricsText fetches the Prometheus exposition page.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", apiError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// TimeseriesRequest parameterizes Timeseries. The zero value asks for
// every series over the server's default window at its default point
// budget.
type TimeseriesRequest struct {
	// Metrics restricts the response to these series IDs (empty = all).
	Metrics []string
	// WindowSeconds bounds the window ending now (0 = server default).
	WindowSeconds float64
	// MaxPoints caps points per series after downsampling (0 = server
	// default).
	MaxPoints int
}

// Timeseries fetches windowed, downsampled metric series from
// GET /api/timeseries.
func (c *Client) Timeseries(ctx context.Context, req TimeseriesRequest) (TimeseriesResponse, error) {
	q := url.Values{}
	if len(req.Metrics) > 0 {
		q.Set("metrics", strings.Join(req.Metrics, ","))
	}
	if req.WindowSeconds > 0 {
		q.Set("window", strconv.FormatFloat(req.WindowSeconds, 'g', -1, 64))
	}
	if req.MaxPoints > 0 {
		q.Set("points", strconv.Itoa(req.MaxPoints))
	}
	path := "/api/timeseries"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out TimeseriesResponse
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// History fetches the completed-query listing from GET /api/history.
// sort is "finished" (newest-terminal-first, the default when empty),
// "duration", or "qerror"; limit caps the number of summaries (0 = all
// retained).
func (c *Client) History(ctx context.Context, sort string, limit int) (HistoryResponse, error) {
	q := url.Values{}
	if sort != "" {
		q.Set("sort", sort)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	path := "/api/history"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out HistoryResponse
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// HistoryProfile fetches one terminal query's full retained profile
// from GET /api/history/{id} (404 once evicted or never terminal).
func (c *Client) HistoryProfile(ctx context.Context, id string) (QueryProfile, error) {
	var out QueryProfile
	err := c.do(ctx, http.MethodGet, "/api/history/"+id, nil, &out)
	return out, err
}

// ErrStop stops a Stream early from inside the callback without
// reporting an error.
var ErrStop = errors.New("client: stop streaming")

// streamMaxRetries bounds consecutive reconnection attempts after a
// dropped SSE connection; the counter resets whenever an event arrives.
const streamMaxRetries = 5

// Stream subscribes to a query's live progress (GET
// /queries/{id}/progress, Server-Sent Events) and invokes fn for every
// event, including a replay of refreshes that happened before the
// subscription. It returns nil after the terminal event (which fn also
// sees), when fn returns ErrStop, or with the first error otherwise.
//
// A dropped connection is transparently resumed: the client reconnects
// with the standard Last-Event-ID header carrying the highest sequence
// number it has seen, the server filters its replay accordingly, and fn
// observes every event exactly once, in order, terminal event last.
// Reconnection is retried with exponential backoff up to
// streamMaxRetries consecutive failures (any delivered event resets the
// budget); an HTTP-level error (404, 400, …) is never retried.
func (c *Client) Stream(ctx context.Context, id string, fn func(ProgressEvent) error) error {
	lastSeq := 0
	retries := 0
	for {
		prev := lastSeq
		done, err := c.streamOnce(ctx, id, &lastSeq, fn)
		if done || err == nil {
			return err
		}
		if lastSeq > prev {
			retries = 0 // the connection made progress before dropping
		}
		var ae *APIError
		if errors.As(err, &ae) || ctx.Err() != nil {
			return err // server rejected the subscription, or caller gave up
		}
		// Transport-level drop: resume from lastSeq after a backoff.
		if retries++; retries > streamMaxRetries {
			return fmt.Errorf("client: progress stream for %s dropped %d times, giving up: %w", id, retries-1, err)
		}
		backoff := time.Duration(50<<uint(retries-1)) * time.Millisecond
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// streamOnce runs a single SSE connection. It updates *lastSeq as events
// are delivered (deduplicating anything at or below it, so an
// over-generous server replay cannot double-deliver) and reports
// done=true when the stream ended for good: terminal event, ErrStop, fn
// error, or caller cancellation.
func (c *Client) streamOnce(ctx context.Context, id string, lastSeq *int, fn func(ProgressEvent) error) (done bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/queries/"+id+"/progress", nil)
	if err != nil {
		return true, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if *lastSeq > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(*lastSeq))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return true, ctx.Err()
		}
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return true, apiError(resp)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		case line == "" && len(data) > 0:
			var ev ProgressEvent
			if err := json.Unmarshal(data, &ev); err != nil {
				return true, fmt.Errorf("client: bad SSE payload: %w", err)
			}
			data = data[:0]
			if ev.Seq <= *lastSeq {
				continue // duplicate from a replay overlap
			}
			*lastSeq = ev.Seq
			if err := fn(ev); err != nil {
				if errors.Is(err, ErrStop) {
					return true, nil
				}
				return true, err
			}
			if ev.Terminal() {
				return true, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return true, ctx.Err()
		}
		return false, err
	}
	return false, io.ErrUnexpectedEOF
}
