package server

// Daemon-side journal replay robustness (the coordinator twin lives in
// internal/cluster/journal_test.go): a journal cut at EVERY byte offset
// must replay without panicking and re-queue exactly the jobs whose last
// complete lifecycle event is non-terminal. Plus the /readyz–/healthz
// split and the queue-full Retry-After backpressure hint.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"greencell/internal/sim"
)

// TestJournalReplaysRemovedSpecField replays a journal written before the
// warm_start_lp spec field was removed: replay decodes leniently, so the
// old submission comes back with the field dropped instead of failing the
// daemon's recovery.
func TestJournalReplaysRemovedSpecField(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	line := `{"event":"submitted","id":"job-000001","req":{"spec":{"slots":2,"seed":3,"warm_start_lp":true}}}` + "\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := LoadJournal[journalEntry](path)
	if err != nil {
		t.Fatalf("LoadJournal: %v", err)
	}
	if len(entries) != 1 || entries[0].Req == nil ||
		entries[0].Req.Spec.Slots != 2 || entries[0].Req.Spec.Seed != 3 {
		t.Fatalf("replayed entries %+v", entries)
	}
}

// TestDaemonJournalTruncationEveryByte sweeps every crash-mid-append
// outcome of a journal holding one job per lifecycle state.
func TestDaemonJournalTruncationEveryByte(t *testing.T) {
	req := JobRequest{Spec: sim.ScenarioSpec{Slots: 2, Seed: 3}}
	var full bytes.Buffer
	for _, e := range []journalEntry{
		{Event: "submitted", ID: "job-000001", Req: &req},
		{Event: "started", ID: "job-000001"},
		{Event: "done", ID: "job-000001"},
		{Event: "submitted", ID: "job-000002", Req: &req},
		{Event: "started", ID: "job-000002"},
		{Event: "submitted", ID: "job-000003", Req: &req},
		{Event: "started", ID: "job-000003"},
		{Event: "cancelled", ID: "job-000003"},
		{Event: "submitted", ID: "job-000004", Req: &req},
		{Event: "started", ID: "job-000004"},
		{Event: "failed", ID: "job-000004", Error: "boom"},
	} {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		full.Write(append(b, '\n'))
	}

	data := full.Bytes()
	path := filepath.Join(t.TempDir(), "trunc.jsonl")
	for cut := 0; cut <= len(data); cut++ {
		prefix := data[:cut]
		if err := os.WriteFile(path, prefix, 0o644); err != nil {
			t.Fatalf("cut %d: write: %v", cut, err)
		}

		// Fold the complete lines of the prefix the way recovery does.
		last := map[string]string{}
		for _, line := range strings.Split(string(prefix), "\n") {
			var e journalEntry
			if json.Unmarshal([]byte(line), &e) != nil {
				continue
			}
			last[e.ID] = e.Event
		}

		s, err := New(Config{JournalPath: path})
		if err != nil {
			t.Fatalf("cut %d: New: %v", cut, err)
		}
		for id, ev := range last {
			st, err := s.Job(id)
			if err != nil {
				t.Fatalf("cut %d: job %s lost in replay: %v", cut, id, err)
			}
			switch ev {
			case "submitted", "started":
				if !st.Recovered {
					t.Fatalf("cut %d: job %s not flagged recovered", cut, id)
				}
				// Re-queued, running, or already re-done (the 2-slot job can
				// finish between New and this check) — never a replayed
				// failure or cancellation.
				if st.State == JobFailed || st.State == JobCancelled {
					t.Fatalf("cut %d: recoverable job %s replayed terminal %s", cut, id, st.State)
				}
			default:
				if string(st.State) != ev {
					t.Fatalf("cut %d: job %s replayed as %s, want %s", cut, id, st.State, ev)
				}
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
	}
}

// TestReadyzHealthzSplit: liveness stays 200 across a drain while
// readiness flips to 503 — the signal load balancers and the cluster
// coordinator's heartbeat key on.
func TestReadyzHealthzSplit(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatalf("closing %s: %v", path, err)
		}
		return resp
	}
	if resp := get("/readyz"); resp.StatusCode != 200 {
		t.Fatalf("readyz before drain: %d", resp.StatusCode)
	}
	if resp := get("/healthz"); resp.StatusCode != 200 {
		t.Fatalf("healthz before drain: %d", resp.StatusCode)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if resp := get("/readyz"); resp.StatusCode != 503 {
		t.Fatalf("readyz after drain: %d, want 503", resp.StatusCode)
	}
	if resp := get("/healthz"); resp.StatusCode != 200 {
		t.Fatalf("healthz after drain: %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}
}

// TestQueueFullRetryAfter: a 503 for a full queue carries the Retry-After
// hint the shared retry helper stretches its backoff to.
func TestQueueFullRetryAfter(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the single worker, then fill the one queue slot.
	st1, err := s.Submit(JobRequest{Spec: slowSpec(1)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, st1.ID, func(st JobStatus) bool { return st.State == JobRunning }, "running")
	if _, err := s.Submit(JobRequest{Spec: tinySpec(2)}); err != nil {
		t.Fatalf("Submit (queued): %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"spec":{"slots":8,"seed":3}}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatalf("closing body: %v", err)
	}
	if resp.StatusCode != 503 || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("queue-full: status %d Retry-After %q, want 503 / 1",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}
