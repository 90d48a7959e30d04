package cluster

// Worker pool state: each registered greencelld daemon is tracked with a
// readiness flag (fed by the /readyz heartbeat loop), a consecutive-failure
// count shared between heartbeats and job RPCs, and a circuit breaker —
// after BreakerThreshold straight failures the worker is evicted for
// BreakerCooldown, during which no leases are placed on it and its leases
// expire onto healthy workers. A successful probe after the cooldown
// re-admits it, so a flapping worker oscillates between short eviction
// windows instead of absorbing and losing leases.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"context"
)

// WorkerState is a worker's scheduling eligibility.
type WorkerState string

// Worker states: ready (schedulable), down (failing probes/RPCs but circuit
// still closed), evicted (circuit open, cooling down).
const (
	WorkerReady   WorkerState = "ready"
	WorkerDown    WorkerState = "down"
	WorkerEvicted WorkerState = "evicted"
)

// WorkerStatus is the API rendering of one worker.
type WorkerStatus struct {
	ID       int         `json:"id"`
	BaseURL  string      `json:"base_url"`
	State    WorkerState `json:"state"`
	Inflight int         `json:"inflight"`
	LastErr  string      `json:"last_error,omitempty"`
}

type worker struct {
	id   int
	base string // normalized base URL, no trailing slash

	mu          sync.Mutex
	ready       bool
	consecFails int
	openUntil   time.Time
	inflight    int
	lastErr     string
}

func newWorker(id int, base string) *worker {
	return &worker{id: id, base: strings.TrimSuffix(base, "/")}
}

// schedulable reports whether new leases may be placed on the worker.
func (w *worker) schedulable(t time.Time) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ready && (w.openUntil.IsZero() || !t.Before(w.openUntil))
}

// probeDue reports whether the circuit allows contacting the worker at all
// (closed, or open but past its cooldown — the half-open probe).
func (w *worker) probeDue(t time.Time) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.openUntil.IsZero() || !t.Before(w.openUntil)
}

// succeed records a successful probe or RPC: failures reset, circuit
// closes, readiness set.
func (w *worker) succeed() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.consecFails = 0
	w.openUntil = time.Time{}
	w.ready = true
	w.lastErr = ""
}

// fail records a failed probe or RPC; it reports whether this failure
// tripped the breaker (so the caller counts the eviction exactly once per
// open). threshold ≥ 1.
func (w *worker) fail(err error, threshold int, cooldown time.Duration, t time.Time) (evicted bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ready = false
	w.consecFails++
	if err != nil {
		w.lastErr = err.Error()
	}
	if w.consecFails >= threshold && w.openUntil.IsZero() {
		w.openUntil = t.Add(cooldown)
		return true
	}
	if !w.openUntil.IsZero() && !t.Before(w.openUntil) {
		// Half-open probe failed: re-open for another cooldown.
		w.openUntil = t.Add(cooldown)
	}
	return false
}

func (w *worker) status() WorkerStatus {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := WorkerStatus{ID: w.id, BaseURL: w.base, Inflight: w.inflight, LastErr: w.lastErr}
	switch {
	case !w.openUntil.IsZero():
		st.State = WorkerEvicted
	case w.ready:
		st.State = WorkerReady
	default:
		st.State = WorkerDown
	}
	return st
}

func (w *worker) addInflight(d int) {
	w.mu.Lock()
	w.inflight += d
	w.mu.Unlock()
}

func (w *worker) inflightNow() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inflight
}

// DoJSON performs one JSON API exchange — coordinator to worker, or a
// client (greencellsim -submit, sweep -coord) to a daemon or coordinator:
// non-wantCode responses become *HTTPError (carrying the status and any
// Retry-After hint) so RetryPolicy.Do retries exactly the transient ones;
// transport failures pass through as-is. hc nil uses http.DefaultClient.
func DoJSON(ctx context.Context, hc *http.Client, method, url string, body []byte, wantCode int, out any) error {
	if hc == nil {
		hc = http.DefaultClient
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != wantCode {
		return &HTTPError{
			Status:     resp.StatusCode,
			Msg:        fmt.Sprintf("%s %s: %s", method, url, strings.TrimSpace(string(data))),
			RetryAfter: retryAfterSeconds(resp),
		}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// maxStreamBytes caps one cell's metrics stream fetch. A stream past the
// cap must fail loudly: a silently truncated blob would be cached,
// journaled, and merged as a complete cell, corrupting the merged stream
// for that key permanently.
const maxStreamBytes = 256 << 20

// GetBytes performs one GET returning the raw body (a metrics stream),
// with the same error classification as DoJSON.
func GetBytes(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxStreamBytes+1))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &HTTPError{
			Status:     resp.StatusCode,
			Msg:        fmt.Sprintf("GET %s: %s", url, strings.TrimSpace(string(data))),
			RetryAfter: retryAfterSeconds(resp),
		}
	}
	if len(data) > maxStreamBytes {
		return nil, fmt.Errorf("GET %s: stream exceeds the %d MiB cap", url, maxStreamBytes>>20)
	}
	return data, nil
}

// retryAfterSeconds parses a response's Retry-After header (seconds form
// only; HTTP-date values are ignored as no server here emits them).
func retryAfterSeconds(resp *http.Response) int {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0
	}
	return n
}
