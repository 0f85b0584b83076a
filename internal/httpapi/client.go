package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// Client talks to a network manager served by Server.
//
// Requests that are safe to repeat — every GET, and any mutating request
// carrying an idempotency key — are retried with jittered exponential
// backoff on connection errors and transient server statuses (500, 502,
// 503, 504). Mutating requests without a key are never retried: a timed-out
// allocate may have committed server-side, and repeating it would
// double-reserve.
//
// A client built with WithEndpoints is failover-aware: a transient
// failure rotates it to the next endpoint before the retry, so a write
// that raced a primary crash is re-driven — under its idempotency key —
// against the promoted standby. An acked admission is therefore neither
// lost nor duplicated by a failover. A call tries each endpoint once
// before it backs off, so one whose endpoints all fail hits each back to back.
type Client struct {
	mu      sync.Mutex
	bases   []string
	active  int
	hc      *http.Client
	retries int
	backoff time.Duration
	cap     time.Duration
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithRetries sets how many attempts a retryable request may make after
// its first failure (default 3). Every attempt counts, the free ones of
// the first pass over the endpoints too. Zero disables retries.
func WithRetries(n int) ClientOption {
	return func(c *Client) {
		if n >= 0 {
			c.retries = n
		}
	}
}

// WithBackoff sets the exponential backoff's base delay and cap
// (defaults 100ms and 2s). A failed attempt k sleeps a jittered base*2^k,
// never more than cap, or the server's Retry-After when longer — except
// on the first pass: with n endpoints, attempts 0..n-2 move on to an
// untried endpoint without sleeping, skipping the n-1 shortest sleeps.
func WithBackoff(base, cap time.Duration) ClientOption {
	return func(c *Client) {
		if base > 0 {
			c.backoff = base
		}
		if cap > 0 {
			c.cap = cap
		}
	}
}

// WithEndpoints adds alternate service endpoints. The client sticks to
// one endpoint until a transient failure (connection error or 500/502/
// 503/504), then rotates to the next for the retry and every request
// after it. A retry to an endpoint the call has not tried goes at once,
// past the backoff and any Retry-After (a standby's 503 carries one), so
// a call whose endpoints all fail hits each of them back to back.
func WithEndpoints(alternates ...string) ClientOption {
	return func(c *Client) {
		for _, a := range alternates {
			if a != "" {
				c.bases = append(c.bases, a)
			}
		}
	}
}

// NewClient returns a client for the API at base (e.g.
// "http://127.0.0.1:8080"). httpClient may be nil for http.DefaultClient.
func NewClient(base string, httpClient *http.Client, opts ...ClientOption) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{
		bases:   []string{base},
		hc:      httpClient,
		retries: 3,
		backoff: 100 * time.Millisecond,
		cap:     2 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Endpoint returns the endpoint the client is currently directing
// requests at.
func (c *Client) Endpoint() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bases[c.active]
}

// currentBase returns the active endpoint and its index; the index lets
// a failed attempt rotate away from exactly the endpoint it used.
func (c *Client) currentBase() (string, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bases[c.active], c.active
}

// rotateFrom advances to the next endpoint, but only if the client is
// still on the one that just failed — concurrent failures on the same
// endpoint rotate once, not once each.
func (c *Client) rotateFrom(used int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.active == used && len(c.bases) > 1 {
		c.active = (c.active + 1) % len(c.bases)
	}
}

// ReqOption configures one request.
type ReqOption func(*reqConfig)

type reqConfig struct {
	idemKey string
}

// WithIdempotencyKey attaches an idempotency key to a mutating request.
// The server replays the original outcome for a repeated key instead of
// re-executing, which makes the request safe for the client to retry.
func WithIdempotencyKey(key string) ReqOption {
	return func(rc *reqConfig) { rc.idemKey = key }
}

// APIError is a non-2xx response from the service.
type APIError struct {
	StatusCode int
	Message    string
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("httpapi: status %d: %s", e.StatusCode, e.Message)
}

// IsNoCapacity reports whether the error is a capacity rejection (HTTP 409).
func IsNoCapacity(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusConflict
}

// Allocate admits a request and returns its placement.
func (c *Client) Allocate(ctx context.Context, req AllocationRequest, opts ...ReqOption) (AllocationResponse, error) {
	var resp AllocationResponse
	err := c.do(ctx, http.MethodPost, "/v1/allocations", req, &resp, http.StatusCreated, opts...)
	return resp, err
}

// Release frees an admitted allocation.
func (c *Client) Release(ctx context.Context, id int64, opts ...ReqOption) error {
	return c.do(ctx, http.MethodDelete, fmt.Sprintf("/v1/allocations/%d", id), nil, nil, http.StatusNoContent, opts...)
}

// DryRun reports whether a request would currently be admitted.
func (c *Client) DryRun(ctx context.Context, req AllocationRequest) (bool, error) {
	var resp DryRunResponse
	if err := c.do(ctx, http.MethodPost, "/v1/dryrun", req, &resp, http.StatusOK); err != nil {
		return false, err
	}
	return resp.Feasible, nil
}

// Headroom asks how many copies of a homogeneous request currently fit.
func (c *Client) Headroom(ctx context.Context, req HeadroomRequest) (int, error) {
	var resp HeadroomResponse
	if err := c.do(ctx, http.MethodPost, "/v1/headroom", req, &resp, http.StatusOK); err != nil {
		return 0, err
	}
	return resp.Fits, nil
}

// Status fetches datacenter-wide counters.
func (c *Client) Status(ctx context.Context) (Status, error) {
	var resp Status
	err := c.do(ctx, http.MethodGet, "/v1/status", nil, &resp, http.StatusOK)
	return resp, err
}

// Links fetches per-link state, most loaded first; limit 0 fetches all.
func (c *Client) Links(ctx context.Context, limit int) ([]LinkStatus, error) {
	path := "/v1/links"
	if limit > 0 {
		path = fmt.Sprintf("/v1/links?limit=%d", limit)
	}
	var resp []LinkStatus
	err := c.do(ctx, http.MethodGet, path, nil, &resp, http.StatusOK)
	return resp, err
}

// Fault fails or restores a machine or link and returns the jobs the
// current fault set displaces.
func (c *Client) Fault(ctx context.Context, req FaultRequest, opts ...ReqOption) ([]int64, error) {
	var resp FaultResponse
	if err := c.do(ctx, http.MethodPost, "/v1/faults", req, &resp, http.StatusOK, opts...); err != nil {
		return nil, err
	}
	return resp.AffectedJobs, nil
}

// Repair re-places one displaced job.
func (c *Client) Repair(ctx context.Context, job int64) (RepairResult, error) {
	var resp []RepairResult
	if err := c.do(ctx, http.MethodPost, "/v1/repairs", RepairRequest{Job: &job}, &resp, http.StatusOK); err != nil {
		return RepairResult{}, err
	}
	if len(resp) != 1 {
		return RepairResult{}, fmt.Errorf("httpapi: repair returned %d results, want 1", len(resp))
	}
	return resp[0], nil
}

// RepairAll re-places every displaced job.
func (c *Client) RepairAll(ctx context.Context) ([]RepairResult, error) {
	var resp []RepairResult
	err := c.do(ctx, http.MethodPost, "/v1/repairs", RepairRequest{}, &resp, http.StatusOK)
	return resp, err
}

// State fetches the manager's full exported state (see core.ManagerState).
// Floats survive the JSON round trip bit-exactly, so the result compares
// equal to an offline manager that executed the same mutation sequence.
func (c *Client) State(ctx context.Context) (core.ManagerState, error) {
	var resp core.ManagerState
	err := c.do(ctx, http.MethodGet, "/v1/state", nil, &resp, http.StatusOK)
	return resp, err
}

// Failures fetches the fault and repair counters.
func (c *Client) Failures(ctx context.Context) (core.FailureStats, error) {
	var resp core.FailureStats
	err := c.do(ctx, http.MethodGet, "/v1/failures", nil, &resp, http.StatusOK)
	return resp, err
}

// WALTail fetches one chunk of the primary's replication log. It is a
// single attempt against one explicit endpoint — the standby's follow
// loop owns retry and failover policy, not the client.
func (c *Client) WALTail(ctx context.Context, cur wal.Cursor, maxBytes int, wait time.Duration) (wal.TailChunk, error) {
	path := fmt.Sprintf("/v1/wal?gen=%d&off=%d&wait_ms=%d&max_bytes=%d",
		cur.Gen, cur.Off, wait/time.Millisecond, maxBytes)
	var chunk wal.TailChunk
	base, _ := c.currentBase()
	err, _, _ := c.attempt(ctx, base, http.MethodGet, path, nil, false, "", &chunk, http.StatusOK)
	return chunk, err
}

// Promote asks a standby to take over as primary. Single attempt: a
// repeated promote against an already promoted node would 501.
func (c *Client) Promote(ctx context.Context) (PromoteResponse, error) {
	var resp PromoteResponse
	base, _ := c.currentBase()
	err, _, _ := c.attempt(ctx, base, http.MethodPost, "/v1/promote", nil, false, "", &resp, http.StatusOK)
	return resp, err
}

// Fence tells a (possibly deposed) primary that epoch supersedes it,
// vetoing every commit it might still try. Single attempt: fencing a
// dead node is a no-op, and the journal veto is what promotion's safety
// rests on.
func (c *Client) Fence(ctx context.Context, epoch uint64) error {
	body, err := json.Marshal(FenceRequest{Epoch: epoch})
	if err != nil {
		return fmt.Errorf("httpapi: encode fence request: %w", err)
	}
	base, _ := c.currentBase()
	err, _, _ = c.attempt(ctx, base, http.MethodPost, "/v1/fence", body, true, "", nil, http.StatusNoContent)
	return err
}

// retryableStatus reports whether a response status indicates a transient
// server-side failure worth retrying.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// do performs one request/response cycle with JSON bodies, retrying
// transient failures when the request is idempotent.
func (c *Client) do(ctx context.Context, method, path string, in, out any, wantStatus int, opts ...ReqOption) error {
	var rc reqConfig
	for _, o := range opts {
		o(&rc)
	}
	var buf []byte
	if in != nil {
		var err error
		if buf, err = json.Marshal(in); err != nil {
			return fmt.Errorf("httpapi: encode request: %w", err)
		}
	}
	retryable := method == http.MethodGet || rc.idemKey != ""
	attempts := 1
	if retryable {
		attempts += c.retries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		base, used := c.currentBase()
		err, hint, transient := c.attempt(ctx, base, method, path, buf, in != nil, rc.idemKey, out, wantStatus)
		if err == nil {
			return nil
		}
		lastErr = err
		if !transient || attempt == attempts-1 {
			return err
		}
		// Try the next endpoint: if this one is a dead or deposed
		// primary, the retry should land on the promoted standby, at
		// once while this call has an endpoint it has not tried.
		c.rotateFrom(used)
		if attempt+1 < len(c.bases) {
			continue
		}
		if err := c.sleep(ctx, attempt, hint); err != nil {
			return lastErr
		}
	}
	return lastErr
}

// attempt runs one request. hint carries the server's Retry-After (0 when
// absent); transient reports whether the failure is worth retrying.
func (c *Client) attempt(ctx context.Context, base, method, path string, body []byte, hasBody bool, idemKey string, out any, wantStatus int) (err error, hint time.Duration, transient bool) {
	var rd io.Reader
	if hasBody {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return fmt.Errorf("httpapi: build request: %w", err), 0, false
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	if idemKey != "" {
		req.Header.Set(IdempotencyHeader, idemKey)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// Connection-level failure. The context being done means the
		// caller gave up; everything else (refused, reset, the
		// http.Client's Timeout) is transient.
		return fmt.Errorf("httpapi: %s %s: %w", method, path, err), 0, ctx.Err() == nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var eb errorBody
		msg := resp.Status
		if err := json.NewDecoder(resp.Body).Decode(&eb); err == nil && eb.Error != "" {
			msg = eb.Error
		}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			hint = time.Duration(secs) * time.Second
		}
		return &APIError{StatusCode: resp.StatusCode, Message: msg}, hint, retryableStatus(resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("httpapi: decode response: %w", err), 0, false
		}
	}
	return nil, 0, false
}

// sleep blocks for the attempt's jittered exponential backoff — or the
// server's Retry-After hint when longer — honoring context cancellation.
func (c *Client) sleep(ctx context.Context, attempt int, hint time.Duration) error {
	d := c.backoff << uint(attempt)
	if d > c.cap || d <= 0 {
		d = c.cap
	}
	// Full jitter in [d/2, d) decorrelates clients retrying in lockstep.
	d = d/2 + rand.N(d/2+1)
	if hint > d {
		d = hint
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
