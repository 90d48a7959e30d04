package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// APIError is an API failure with its HTTP status; handlers render it as
// the {"error": ...} body with that status. Other errors are 500s.
// RetryAfter > 0 adds a Retry-After header (seconds) — the backpressure
// hint on 503 queue-full responses.
type APIError struct {
	Status     int
	Msg        string
	RetryAfter int
}

func (e *APIError) Error() string { return e.Msg }

// maxRequestBody bounds POST bodies; a job request is a small spec.
const maxRequestBody = 1 << 20

// JobService is the job table behind the HTTP API: the daemon's Server and
// the cluster's Coordinator. Methods report client mistakes and missing
// jobs as *APIError.
type JobService interface {
	Submit(req JobRequest) (JobStatus, error)
	Job(id string) (JobStatus, error)
	Jobs() []JobStatus
	Cancel(id string) (JobStatus, error)
	// Stream copies the job's NDJSON metrics stream (slot records from
	// fromSlot on) into w, following it live until the job ends or ctx is
	// cancelled. It returns an *APIError only before writing anything.
	Stream(ctx context.Context, id string, w io.Writer, fromSlot int) error
	// Draining reports whether a drain has begun (the /readyz signal).
	Draining() bool
	WriteMetrics(w io.Writer) error
}

// NewHandler returns the job API over svc:
//
//	POST   /v1/jobs              submit a job (JobRequest body) → 202 JobStatus
//	GET    /v1/jobs              list jobs in submission order
//	GET    /v1/jobs/{id}         one job's status, progress, and result
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET    /v1/jobs/{id}/metrics live NDJSON metrics stream (?from_slot=N)
//	GET    /healthz              liveness probe (always 200 while serving)
//	GET    /readyz               readiness probe (503 while draining)
//	GET    /metrics              Prometheus text exposition
//
// /healthz is pure liveness, 200 even mid-drain: restarting a deliberately
// draining process would defeat the drain. The pre-replay window is covered
// by ListenAndServe's bootstrap handler, so a probing coordinator never
// routes leases at a daemon still recovering.
func NewHandler(svc JobService) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
		if err != nil {
			writeErr(w, &APIError{Status: 400, Msg: fmt.Sprintf("reading body: %v", err)})
			return
		}
		if len(body) > maxRequestBody {
			writeErr(w, &APIError{Status: 413, Msg: "request body exceeds 1 MiB"})
			return
		}
		var req JobRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeErr(w, &APIError{Status: 400, Msg: fmt.Sprintf("decoding job request: %v", err)})
			return
		}
		st, err := svc.Submit(req)
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+st.ID)
		WriteJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{"jobs": svc.Jobs()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := svc.Job(r.PathValue("id"))
		writeStatus(w, st, err)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := svc.Cancel(r.PathValue("id"))
		writeStatus(w, st, err)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/metrics", func(w http.ResponseWriter, r *http.Request) {
		fromSlot := 0
		if v := r.URL.Query().Get("from_slot"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				writeErr(w, &APIError{Status: 400, Msg: fmt.Sprintf("from_slot: want a non-negative integer, got %q", v)})
				return
			}
			fromSlot = n
		}
		// Headers go out with the first streamed byte; an *APIError comes
		// before it and replaces them. Later failures (client gone, ctx
		// done) can only end the stream early.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Cache-Control", "no-store")
		var ae *APIError
		if err := svc.Stream(r.Context(), r.PathValue("id"), w, fromSlot); errors.As(err, &ae) {
			writeErr(w, ae)
		}
	})
	mux.HandleFunc("GET /healthz", healthz)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if svc.Draining() {
			WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := svc.WriteMetrics(w); err != nil {
			return // client went away mid-write
		}
	})
	return mux
}

func healthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// writeJSON renders v with a status code; encoding failures are logged by
// the http server via the returned write error path (nothing to recover).
func WriteJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(append(data, '\n')); err != nil {
		return // client went away; nothing useful to do
	}
}

// writeErr renders err as the API error body.
func writeErr(w http.ResponseWriter, err error) {
	var ae *APIError
	if !errors.As(err, &ae) {
		ae = &APIError{Status: http.StatusInternalServerError, Msg: err.Error()}
	}
	if ae.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ae.RetryAfter))
	}
	WriteJSON(w, ae.Status, map[string]string{"error": ae.Msg})
}

// writeStatus renders a job lookup: the status with 200, or the error.
func writeStatus(w http.ResponseWriter, st JobStatus, err error) {
	if err != nil {
		writeErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}
