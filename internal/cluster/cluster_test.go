package cluster

// Coordinator end-to-end tests against real in-process greencelld workers
// (httptest servers over internal/server handlers). The load-bearing
// assertions are the ISSUE-8 acceptance criteria: the merged stream is
// byte-identical to a local run no matter which workers ran which cells,
// a killed worker's leases re-dispatch and the stream still matches, a
// drained coordinator resumes from its journal, and a resubmitted job is
// served entirely from the content-addressed cache with zero dispatches.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"greencell/internal/metrics"
	"greencell/internal/server"
	"greencell/internal/sim"
)

// tinySpec is the fast test scenario: the paper preset cut to 8 slots.
func tinySpec(seed int64) sim.ScenarioSpec {
	return sim.ScenarioSpec{Slots: 8, Seed: seed}
}

// slowishSpec runs long enough per seed that a test can reliably observe
// a lease in flight and interrupt it.
func slowishSpec(seed int64) sim.ScenarioSpec {
	return sim.ScenarioSpec{Slots: 120, Seed: seed}
}

// startWorkers launches n in-process greencelld workers and returns their
// base URLs plus the test servers (for mid-test kills).
func startWorkers(t *testing.T, n int) ([]string, []*httptest.Server) {
	t.Helper()
	var urls []string
	var tss []*httptest.Server
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Config{Workers: 2})
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			if err := srv.Close(); err != nil {
				t.Logf("worker close: %v", err)
			}
		})
		urls = append(urls, ts.URL)
		tss = append(tss, ts)
	}
	return urls, tss
}

// fastCfg is the test coordinator configuration: tight intervals so
// failures are detected in milliseconds, generous attempt budgets so
// injected faults never exhaust a cell.
func fastCfg(workers []string) Config {
	return Config{
		Workers:           workers,
		PollInterval:      10 * time.Millisecond,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  time.Second,
		BreakerThreshold:  3,
		BreakerCooldown:   250 * time.Millisecond,
		// Generous: these tests never want a lease to expire on its own —
		// the race detector makes worker-side sims ~10x slower, and an
		// expiring lease turns into an interrupted-job requeue loop.
		LeaseTimeout:      10 * time.Minute,
		MaxAttempts:       8,
		PerWorkerInflight: 2,
		RPC: &RetryPolicy{
			MaxAttempts:    4,
			BaseDelay:      10 * time.Millisecond,
			MaxDelay:       100 * time.Millisecond,
			AttemptTimeout: 5 * time.Second,
		},
	}
}

func newTestCoord(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// waitCoord polls a job until pred holds (or the deadline passes).
func waitCoord(t *testing.T, c *Coordinator, id string, pred func(server.JobStatus) bool, what string) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(180 * time.Second)
	for {
		st, err := c.Job(id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s; last status: %+v", id, what, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// referenceStream runs (spec, seed) locally with an attached Recorder —
// the exact bytes a worker streams for a single-seed job.
func referenceStream(t *testing.T, spec sim.ScenarioSpec, seed int64) []byte {
	t.Helper()
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatalf("Scenario: %v", err)
	}
	sc.Seed = seed
	var buf bytes.Buffer
	rec := sim.NewRecorder(metrics.NewJSONLWriter(&buf), sim.HeaderFor(sc, spec.Label()))
	rec.Attach(&sc, false)
	if _, err := sim.Run(sc); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Recorder.Close: %v", err)
	}
	return buf.Bytes()
}

// goldenMerged is the local-run golden for a multi-seed job: each seed's
// reference stream, canonicalized, concatenated in ascending seed order —
// exactly what the coordinator's merged stream must canonicalize to.
func goldenMerged(t *testing.T, spec sim.ScenarioSpec, seeds []int64) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, seed := range seeds {
		c, err := metrics.CanonicalizeJSONL(referenceStream(t, spec, seed))
		if err != nil {
			t.Fatalf("canonicalize reference seed %d: %v", seed, err)
		}
		out.Write(c)
	}
	return out.Bytes()
}

// mergedStream fetches and canonicalizes a job's merged metrics stream.
func mergedStream(t *testing.T, c *Coordinator, id string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Stream(context.Background(), id, &buf, 0); err != nil {
		t.Fatalf("Stream(%s): %v", id, err)
	}
	canon, err := metrics.CanonicalizeJSONL(buf.Bytes())
	if err != nil {
		t.Fatalf("canonicalize merged: %v", err)
	}
	return canon
}

// TestClusterMergesByteIdenticalAndCachesResubmit is the determinism and
// exactly-once contract: a sharded job's merged stream matches the local
// golden byte-for-byte; a resubmit completes entirely from the
// content-addressed cache (zero new dispatches, one hit per seed); and a
// restarted coordinator serves both the history and the cache from its
// journal.
func TestClusterMergesByteIdenticalAndCachesResubmit(t *testing.T) {
	urls, _ := startWorkers(t, 3)
	dir := t.TempDir()
	cfg := fastCfg(urls)
	cfg.JournalPath = filepath.Join(dir, "coord.journal.jsonl")
	cfg.CacheDir = filepath.Join(dir, "cache")
	c := newTestCoord(t, cfg)

	req := server.JobRequest{Spec: tinySpec(5), Replications: 3}
	st, err := c.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if len(st.Seeds) != 3 || st.Seeds[0] != 5 || st.Seeds[2] != 7 {
		t.Fatalf("seeds = %v, want [5 6 7]", st.Seeds)
	}
	st = waitCoord(t, c, st.ID, func(st server.JobStatus) bool { return st.State.Terminal() }, "terminal")
	if st.State != server.JobDone {
		t.Fatalf("job ended %s (%s), want done", st.State, st.Error)
	}
	if st.Result == nil || len(st.Result.Seeds) != 3 || st.Result.Summary == nil {
		t.Fatalf("result incomplete: %+v", st.Result)
	}
	if st.Result.Summary.AvgEnergyCost.N != 3 {
		t.Fatalf("summary over %d seeds, want 3", st.Result.Summary.AvgEnergyCost.N)
	}

	golden := goldenMerged(t, req.Spec, st.Seeds)
	if got := mergedStream(t, c, st.ID); !bytes.Equal(got, golden) {
		t.Fatalf("merged stream differs from local golden (%d vs %d bytes)", len(got), len(golden))
	}

	cv := c.CounterValues()
	if cv["coord_dispatches_total"] != 3 || cv["coord_cache_hits_total"] != 0 {
		t.Fatalf("first run: dispatches %v cache hits %v, want 3 / 0", cv["coord_dispatches_total"], cv["coord_cache_hits_total"])
	}

	// Resubmit: same (spec, seeds) → same keys → served from cache with
	// zero dispatches.
	st2, err := c.Submit(req)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	st2 = waitCoord(t, c, st2.ID, func(st server.JobStatus) bool { return st.State.Terminal() }, "terminal")
	if st2.State != server.JobDone {
		t.Fatalf("resubmit ended %s (%s)", st2.State, st2.Error)
	}
	cv = c.CounterValues()
	if cv["coord_dispatches_total"] != 3 {
		t.Fatalf("resubmit dispatched: %v dispatches, want still 3", cv["coord_dispatches_total"])
	}
	if cv["coord_cache_hits_total"] != 3 {
		t.Fatalf("resubmit cache hits %v, want 3", cv["coord_cache_hits_total"])
	}
	if got := mergedStream(t, c, st2.ID); !bytes.Equal(got, golden) {
		t.Fatalf("cached merged stream differs from golden")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Restart: the journal rebuilds both jobs as history and re-admits the
	// cells; a third submit is again all cache, zero dispatches.
	c2 := newTestCoord(t, cfg)
	defer func() {
		if err := c2.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	hist, err := c2.Job(st.ID)
	if err != nil {
		t.Fatalf("history job missing after restart: %v", err)
	}
	if hist.State != server.JobDone || !hist.Recovered {
		t.Fatalf("history job after restart: %+v", hist)
	}
	if got := mergedStream(t, c2, st.ID); !bytes.Equal(got, golden) {
		t.Fatalf("restarted history stream differs from golden")
	}
	st3, err := c2.Submit(req)
	if err != nil {
		t.Fatalf("post-restart submit: %v", err)
	}
	st3 = waitCoord(t, c2, st3.ID, func(st server.JobStatus) bool { return st.State.Terminal() }, "terminal")
	if st3.State != server.JobDone {
		t.Fatalf("post-restart job ended %s (%s)", st3.State, st3.Error)
	}
	cv = c2.CounterValues()
	if cv["coord_dispatches_total"] != 0 || cv["coord_cache_hits_total"] != 3 {
		t.Fatalf("post-restart: dispatches %v cache hits %v, want 0 / 3", cv["coord_dispatches_total"], cv["coord_cache_hits_total"])
	}
}

// TestClusterKillWorkerMidJob kills a worker that holds a lease and checks
// the full repair path: the breaker evicts it, its cell re-dispatches to a
// healthy peer, the job still finishes, and the merged stream is still
// byte-identical to the local golden.
func TestClusterKillWorkerMidJob(t *testing.T) {
	urls, tss := startWorkers(t, 3)
	c := newTestCoord(t, fastCfg(urls))
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	req := server.JobRequest{Spec: slowishSpec(1), Replications: 4}
	st, err := c.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// Wait for a committed lease, then kill exactly that worker.
	victim := -1
	deadline := time.Now().Add(30 * time.Second)
	for victim < 0 {
		c.mu.Lock()
		j := c.jobs[st.ID]
		for _, seed := range j.Seeds {
			if cl := j.cells[seed]; cl.state == cellLeased {
				victim = cl.workerID
				break
			}
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("no cell was ever leased")
		}
		time.Sleep(2 * time.Millisecond)
	}
	tss[victim].Close()

	st = waitCoord(t, c, st.ID, func(st server.JobStatus) bool { return st.State.Terminal() }, "terminal")
	if st.State != server.JobDone {
		t.Fatalf("job ended %s (%s), want done despite the killed worker", st.State, st.Error)
	}
	cv := c.CounterValues()
	if cv["coord_redispatches_total"] < 1 {
		t.Fatalf("no re-dispatch recorded after killing a leased worker: %v", cv)
	}
	if cv["coord_worker_evictions_total"] < 1 {
		t.Fatalf("the killed worker was never evicted: %v", cv)
	}
	ws := c.WorkerStatuses()
	if ws[victim].State == WorkerReady {
		t.Fatalf("killed worker still reported ready: %+v", ws[victim])
	}

	golden := goldenMerged(t, req.Spec, st.Seeds)
	if got := mergedStream(t, c, st.ID); !bytes.Equal(got, golden) {
		t.Fatalf("merged stream after worker kill differs from golden (%d vs %d bytes)", len(got), len(golden))
	}
}

// TestClusterDrainResumesFromJournal drains a coordinator mid-job and
// checks a successor picks the job up from the journal: finished cells
// come from the cache (counted as hits), only the remainder re-dispatches,
// and the final merged stream still matches the golden.
func TestClusterDrainResumesFromJournal(t *testing.T) {
	urls, _ := startWorkers(t, 2)
	dir := t.TempDir()
	cfg := fastCfg(urls)
	cfg.JournalPath = filepath.Join(dir, "coord.journal.jsonl")
	cfg.CacheDir = filepath.Join(dir, "cache")
	c := newTestCoord(t, cfg)

	req := server.JobRequest{Spec: slowishSpec(2), Replications: 3}
	st, err := c.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitCoord(t, c, st.ID, func(st server.JobStatus) bool {
		for _, p := range st.Progress {
			if p.State == "done" {
				return true
			}
		}
		return false
	}, "first cell done")

	// Zero-grace drain: interrupt immediately, no terminal journal event.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := c.Submit(req); err == nil {
		t.Fatal("Submit after drain succeeded")
	}
	entries, err := server.LoadJournal[journalEntry](cfg.JournalPath)
	if err != nil {
		t.Fatalf("LoadJournal: %v", err)
	}
	last, cells := "", 0
	for _, e := range entries {
		if e.ID != st.ID {
			continue
		}
		if e.Event == "cell" {
			cells++
			continue
		}
		last = e.Event
	}
	if last != "started" {
		t.Fatalf("journal's last lifecycle event is %q, want started (recoverable)", last)
	}
	if cells == 0 {
		t.Fatal("no cell events journaled before the drain")
	}

	// The successor resumes the job: cached cells are hits, the rest run.
	c2 := newTestCoord(t, cfg)
	defer func() {
		if err := c2.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	st2, err := c2.Job(st.ID)
	if err != nil {
		t.Fatalf("resumed job missing: %v", err)
	}
	if !st2.Recovered {
		t.Fatal("resumed job not flagged recovered")
	}
	st2 = waitCoord(t, c2, st.ID, func(st server.JobStatus) bool { return st.State.Terminal() }, "terminal")
	if st2.State != server.JobDone {
		t.Fatalf("resumed job ended %s (%s), want done", st2.State, st2.Error)
	}
	cv := c2.CounterValues()
	if cv["coord_jobs_recovered_total"] != 1 {
		t.Fatalf("recovered counter %v, want 1", cv["coord_jobs_recovered_total"])
	}
	if int(cv["coord_cache_hits_total"]) < cells {
		t.Fatalf("cache hits %v < %d journaled cells", cv["coord_cache_hits_total"], cells)
	}
	golden := goldenMerged(t, req.Spec, st2.Seeds)
	if got := mergedStream(t, c2, st.ID); !bytes.Equal(got, golden) {
		t.Fatalf("resumed merged stream differs from golden (%d vs %d bytes)", len(got), len(golden))
	}
}

// TestCancelAfterDrainRequeue: a zero-grace drain re-queues an interrupted
// job with its dispatcher gone (done already closed). A user DELETE landing
// on that job must still be a real cancel — terminal state, counted — not a
// silent no-op that reports 200 with the job still queued for resumption.
func TestCancelAfterDrainRequeue(t *testing.T) {
	urls, _ := startWorkers(t, 2)
	c := newTestCoord(t, fastCfg(urls))

	req := server.JobRequest{Spec: slowishSpec(3), Replications: 2}
	st, err := c.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	drained, err := c.Job(st.ID)
	if err != nil {
		t.Fatalf("Job after drain: %v", err)
	}
	if drained.State != server.JobQueued {
		t.Fatalf("after drain the job is %s, want queued (the re-queue precondition)", drained.State)
	}

	got, err := c.Cancel(st.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if got.State != server.JobCancelled {
		t.Fatalf("Cancel returned state %s, want cancelled", got.State)
	}
	if after, err := c.Job(st.ID); err != nil || after.State != server.JobCancelled {
		t.Fatalf("job after cancel: %+v, %v — the DELETE did not stick", after, err)
	}
	if cv := c.CounterValues(); cv["coord_jobs_cancelled_total"] != 1 {
		t.Fatalf("cancelled counter %v, want 1", cv["coord_jobs_cancelled_total"])
	}
}

// TestClusterChaosByteIdentity runs a job through the fault-injecting
// transport — every worker RPC, heartbeat included, subject to
// deterministic drops and synthetic 500s — and asserts the retry/breaker
// machinery still converges to the exact golden stream.
func TestClusterChaosByteIdentity(t *testing.T) {
	urls, _ := startWorkers(t, 3)
	ft := NewFaultTransport(nil, 7, 0.15, 0.15)
	cfg := fastCfg(urls)
	cfg.Transport = ft
	c := newTestCoord(t, cfg)
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	req := server.JobRequest{Spec: tinySpec(11), Replications: 3}
	st, err := c.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st = waitCoord(t, c, st.ID, func(st server.JobStatus) bool { return st.State.Terminal() }, "terminal")
	if st.State != server.JobDone {
		t.Fatalf("chaos job ended %s (%s), want done", st.State, st.Error)
	}
	drops, errs := ft.Faults()
	if drops+errs == 0 {
		t.Fatal("the chaos transport injected no faults; the test exercised nothing")
	}
	golden := goldenMerged(t, req.Spec, st.Seeds)
	if got := mergedStream(t, c, st.ID); !bytes.Equal(got, golden) {
		t.Fatalf("chaos merged stream differs from golden (%d vs %d bytes); faults: %d drops, %d errs",
			len(got), len(golden), drops, errs)
	}
	t.Logf("chaos run survived %d drops and %d synthetic 500s; retries: %v",
		drops, errs, c.CounterValues()["coord_rpc_retries_total"])
}

// TestCoordinatorHTTPAPI exercises the wire surface: submit/status/cancel,
// queue-full 503 with Retry-After, the workers endpoint, the Prometheus
// counters, and the healthz/readyz liveness-readiness split across a drain.
func TestCoordinatorHTTPAPI(t *testing.T) {
	// No workers: submitted jobs stay pending, which makes queue-full and
	// cancel deterministic to stage.
	c := newTestCoord(t, Config{QueueDepth: 1, PollInterval: 10 * time.Millisecond})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatalf("closing %s: %v", path, err)
		}
		return resp, buf.String()
	}

	// Liveness and readiness both green before any drain.
	if resp, body := get("/healthz"); resp.StatusCode != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	if resp, body := get("/readyz"); resp.StatusCode != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("readyz: %d %s", resp.StatusCode, body)
	}

	// Invalid spec → 400.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"spec":{"preset":"nope"}}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatalf("closing body: %v", err)
	}
	if resp.StatusCode != 400 {
		t.Fatalf("invalid spec: status %d", resp.StatusCode)
	}

	// First job fills the table (QueueDepth 1, no workers → stays active).
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"spec":{"slots":8,"seed":1}}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading submit: %v", err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatalf("closing body: %v", err)
	}
	if resp.StatusCode != 202 {
		t.Fatalf("submit: status %d body %s", resp.StatusCode, buf.String())
	}
	id := strings.TrimPrefix(resp.Header.Get("Location"), "/v1/jobs/")
	if !strings.HasPrefix(id, "cjob-") {
		t.Fatalf("job ID %q lacks the coordinator prefix", id)
	}

	// Second submit → 503 with the Retry-After hint.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"spec":{"slots":8,"seed":2}}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatalf("closing body: %v", err)
	}
	if resp.StatusCode != 503 || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("queue-full: status %d Retry-After %q, want 503 / 1", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Workers endpoint: empty pool, empty cache.
	if resp, body := get("/v1/workers"); resp.StatusCode != 200 || !strings.Contains(body, `"cache_cells":0`) {
		t.Fatalf("workers: %d %s", resp.StatusCode, body)
	}

	// Cancel the pending job over the wire.
	delReq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatalf("DELETE request: %v", err)
	}
	resp, err = http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatalf("closing body: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	st, err := c.Job(id)
	if err != nil || st.State != server.JobCancelled {
		t.Fatalf("after cancel: %+v, %v", st, err)
	}

	// Prometheus exposition carries the coord_* schema-v4 counters.
	if resp, body := get("/metrics"); resp.StatusCode != 200 ||
		!strings.Contains(body, "coord_jobs_submitted_total 1") ||
		!strings.Contains(body, "coord_redispatches_total 0") ||
		!strings.Contains(body, "coord_cache_hits_total 0") ||
		!strings.Contains(body, "coord_worker_evictions_total 0") {
		t.Fatalf("prometheus exposition incomplete: %d\n%s", resp.StatusCode, body)
	}

	// A drain flips readiness, not liveness.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if resp, body := get("/readyz"); resp.StatusCode != 503 || !strings.Contains(body, "draining") {
		t.Fatalf("readyz after drain: %d %s", resp.StatusCode, body)
	}
	if resp, _ := get("/healthz"); resp.StatusCode != 200 {
		t.Fatalf("healthz after drain: %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}
}

// TestCoordinatorStreamRejectsFromSlot: a merged multi-seed stream has no
// single slot axis, so a resume point is refused with a 400 before any
// record is written, instead of being ignored and replaying every record.
func TestCoordinatorStreamRejectsFromSlot(t *testing.T) {
	c := newTestCoord(t, Config{PollInterval: 10 * time.Millisecond})
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	st, err := c.Submit(server.JobRequest{Spec: tinySpec(1), Replications: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	var buf bytes.Buffer
	err = c.Stream(context.Background(), st.ID, &buf, 3)
	var ae *server.APIError
	if !errors.As(err, &ae) || ae.Status != 400 || buf.Len() != 0 {
		t.Fatalf("Stream from slot 3: err %v, %d bytes written; want a 400 before any byte", err, buf.Len())
	}

	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/metrics?from_slot=3")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatalf("closing body: %v", err)
	}
	if resp.StatusCode != 400 || !strings.Contains(string(body), "from_slot") {
		t.Fatalf("GET metrics?from_slot=3: %d %s, want 400 naming from_slot", resp.StatusCode, body)
	}
}

// TestJobFinishesOnTheTickItsLastCellLands runs a one-cell job under a
// long dispatcher tick. The cell is leased on the first tick and collected
// on the second, and the job must turn terminal on that second tick: well
// under two intervals after submission, not a third tick later.
func TestJobFinishesOnTheTickItsLastCellLands(t *testing.T) {
	urls, _ := startWorkers(t, 1)
	cfg := fastCfg(urls)
	cfg.PollInterval = 2 * time.Second
	c := newTestCoord(t, cfg)
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	// The first tick leases the cell only to a worker already probed ready.
	deadline := time.Now().Add(30 * time.Second)
	for c.WorkerStatuses()[0].State != WorkerReady {
		if time.Now().After(deadline) {
			t.Fatal("worker never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	st, err := c.Submit(server.JobRequest{Spec: tinySpec(1)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st = waitCoord(t, c, st.ID, func(st server.JobStatus) bool { return st.State.Terminal() }, "terminal")
	elapsed := time.Since(start)
	if st.State != server.JobDone {
		t.Fatalf("job ended %s (%s), want done", st.State, st.Error)
	}
	if elapsed >= 2*cfg.PollInterval {
		t.Fatalf("job turned terminal %v after submission, want under two %v ticks", elapsed, cfg.PollInterval)
	}
}

// TestClusterCacheEvictionRecompute caps the result cache to a single
// byte: every completed cell immediately evicts its predecessors, so a
// resubmit of the same job cannot be served from cache and must re-run
// (re-dispatch) the evicted cells — and the recomputed merged stream is
// still byte-identical, because a cell is a pure function of its key.
func TestClusterCacheEvictionRecompute(t *testing.T) {
	urls, _ := startWorkers(t, 2)
	cfg := fastCfg(urls)
	cfg.CacheMaxBytes = 1
	c := newTestCoord(t, cfg)
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	req := server.JobRequest{Spec: tinySpec(5), Replications: 3}
	st, err := c.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st = waitCoord(t, c, st.ID, func(st server.JobStatus) bool { return st.State.Terminal() }, "terminal")
	if st.State != server.JobDone {
		t.Fatalf("job ended %s (%s), want done", st.State, st.Error)
	}
	golden := goldenMerged(t, req.Spec, st.Seeds)
	if got := mergedStream(t, c, st.ID); !bytes.Equal(got, golden) {
		t.Fatalf("merged stream differs from local golden")
	}

	cv := c.CounterValues()
	if cv["coord_dispatches_total"] != 3 {
		t.Fatalf("first run dispatched %v cells, want 3", cv["coord_dispatches_total"])
	}
	// Each completed cell's put evicts the previous cell: at least two
	// evictions for three cells, and at most one survivor.
	if cv["coord_cache_evictions_total"] < 2 {
		t.Fatalf("evictions = %v, want >= 2 under a 1-byte cap", cv["coord_cache_evictions_total"])
	}
	if n := c.CacheLen(); n > 1 {
		t.Fatalf("CacheLen = %d, want <= 1 under a 1-byte cap", n)
	}

	// Resubmit: the evicted cells miss and recompute — at least two new
	// dispatches — and the stream still matches the golden byte-for-byte.
	st2, err := c.Submit(req)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	st2 = waitCoord(t, c, st2.ID, func(st server.JobStatus) bool { return st.State.Terminal() }, "terminal")
	if st2.State != server.JobDone {
		t.Fatalf("resubmit ended %s (%s)", st2.State, st2.Error)
	}
	cv = c.CounterValues()
	if cv["coord_dispatches_total"] < 5 {
		t.Fatalf("resubmit was served from a cache that should have evicted: %v total dispatches, want >= 5", cv["coord_dispatches_total"])
	}
	if cv["coord_cache_hits_total"] > 1 {
		t.Fatalf("cache hits = %v, want <= 1 (at most the lone survivor)", cv["coord_cache_hits_total"])
	}
	if got := mergedStream(t, c, st2.ID); !bytes.Equal(got, golden) {
		t.Fatalf("recomputed merged stream differs from golden")
	}
}
