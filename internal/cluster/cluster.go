// Package cluster is the fault-tolerant coordinator over a fleet of
// greencelld workers: the "wide sweeps at cluster throughput with
// exactly-once semantics" serving layer (ROADMAP item 3, docs/CLUSTER.md).
//
// A job — the same JobRequest the daemon accepts — is sharded seed-by-seed
// across the worker pool: every (spec, seed) cell becomes one single-seed
// daemon job held under a lease with a deadline. The coordinator heartbeats
// each worker's /readyz, circuit-breaks flapping ones, retries every worker
// RPC with jittered exponential backoff and per-attempt timeouts, and
// re-dispatches the cells of expired leases and lost workers to healthy
// peers. Completed cells land in a content-addressed cache keyed by
// sha256(canonical spec, seed), so re-dispatched or resubmitted cells are
// exactly-once and free, and a coordinator-side server.Journal lets a
// restarted coordinator resume in-flight jobs from their last finished
// seed. The HTTP API, journal and process lifecycle are the daemon's own
// front end (internal/server); only the job table here is the
// coordinator's.
//
// Determinism is inherited from the daemon contract: a cell's stream is a
// pure function of (spec, seed), so the coordinator's merged, seed-ordered
// stream is byte-identical (after timing canonicalization) to a local
// sim.RunSeeds run — no matter which workers ran which cells, how many
// leases expired, or how often the chaos transport dropped an RPC. The
// chaos tests and the cluster-smoke gate enforce exactly this.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"greencell/internal/metrics"
	"greencell/internal/server"
	"greencell/internal/sim"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Workers are the base URLs of the greencelld fleet
	// (e.g. http://127.0.0.1:8081). The pool may be empty — jobs then
	// complete only from cache — but is normally ≥ 1.
	Workers []string
	// JournalPath is the coordinator's JSONL lifecycle journal; empty
	// disables journalling (jobs and the cache index then do not survive a
	// restart).
	JournalPath string
	// CacheDir is the content-addressed stream store. Empty keeps blobs in
	// memory: the cache then serves resubmits within this process only.
	CacheDir string
	// CacheMaxBytes caps the total blob bytes the cache holds; inserting
	// past the cap evicts least-recently-used cells (blob and index), which
	// then simply re-run on their next lookup. 0 leaves the store uncapped.
	CacheMaxBytes int64
	// QueueDepth bounds concurrently tracked non-terminal jobs; submits
	// beyond it get 503 with a Retry-After. Default 256.
	QueueDepth int
	// LeaseTimeout bounds one cell from dispatch to completion; an expired
	// lease is cancelled and its seed re-dispatched. It is also installed
	// as the worker-side job deadline, so an orphaned cell self-aborts.
	// Default 2m.
	LeaseTimeout time.Duration
	// PollInterval paces the dispatcher: lease status polls and dispatch
	// scans. Default 100ms.
	PollInterval time.Duration
	// HeartbeatInterval paces the per-worker /readyz probes; Timeout
	// bounds each probe. Defaults 1s / 1s.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// BreakerThreshold consecutive failures (probes or RPCs) evict a
	// worker for BreakerCooldown. Defaults 3 / 5s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// MaxAttempts bounds the leases placed for one cell before it is
	// declared failed. Default 4.
	MaxAttempts int
	// PerWorkerInflight bounds the leases simultaneously placed on one
	// worker (one running + the rest queued there). Default 2.
	PerWorkerInflight int
	// RPC is the worker RPC retry policy; nil uses defaults with a 10s
	// per-attempt timeout.
	RPC *RetryPolicy
	// Transport overrides the HTTP transport for worker calls — the chaos
	// harness injects FaultTransport here. Nil uses the default transport.
	Transport http.RoundTripper
}

func (cfg Config) defaulted() Config {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 2 * time.Minute
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 100 * time.Millisecond
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.PerWorkerInflight <= 0 {
		cfg.PerWorkerInflight = 2
	}
	if cfg.RPC == nil {
		cfg.RPC = &RetryPolicy{AttemptTimeout: 10 * time.Second}
	}
	return cfg
}

// cellState is one seed's lifecycle inside a job:
//
//	pending → leased → done | failed
//	            ↑________|           (lease expiry / worker loss re-queues)
type cellState string

const (
	cellPending cellState = "pending"
	cellLeased  cellState = "leased"
	cellDone    cellState = "done"
	cellFailed  cellState = "failed"
)

// cell is one (spec, seed) replication: the unit of dispatch, recovery,
// and caching. Guarded by the coordinator mutex.
type cell struct {
	seed int64
	key  string

	state    cellState
	attempts int       // leases placed so far
	workerID int       // current/last worker, -1 = none
	wjob     string    // worker-side job ID while leased
	deadline time.Time // lease expiry
	nextPoll time.Time

	metrics   sim.SeedMetrics
	fromCache bool
	errMsg    string
}

// Job is one coordinated experiment. Guarded by the coordinator mutex
// except done (closed once) and merge (internally locked).
type Job struct {
	ID    string
	Req   server.JobRequest
	Seeds []int64

	state      server.JobState
	errMsg     string
	recovered  bool
	createdAt  time.Time
	startedAt  time.Time
	finishedAt time.Time
	totalSlots int

	cells map[int64]*cell
	merge *mergeLog

	result *server.JobResult

	cancel       context.CancelFunc
	cancelReason string
	done         chan struct{}
}

// cancel reasons: a user DELETE journals a terminal event; a drain does
// not, leaving the job recoverable.
const (
	cancelUser  = "user"
	cancelDrain = "drain"
)

// Coordinator owns the worker pool, the job table, the journal, and the
// content-addressed cache. Create with New, serve Handler, stop with Drain
// (graceful) or Close.
type Coordinator struct {
	cfg     Config
	hc      *http.Client
	workers []*worker
	cache   *cache

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string
	nextID  int
	journal *server.Journal[journalEntry]

	draining bool

	reg            *metrics.Registry
	cSubmitted     *metrics.Counter
	cDone          *metrics.Counter
	cFailed        *metrics.Counter
	cCancelled     *metrics.Counter
	cRecovered     *metrics.Counter
	cCellsDone     *metrics.Counter
	cCellsFailed   *metrics.Counter
	cDispatches    *metrics.Counter
	cRedispatches  *metrics.Counter
	cLeaseExpiries *metrics.Counter
	cCacheHits     *metrics.Counter
	cCacheEvicts   *metrics.Counter
	cRPCRetries    *metrics.Counter
	cEvictions     *metrics.Counter
	gActive        *metrics.Gauge

	runCtx    context.Context
	runCancel context.CancelFunc
	wg        sync.WaitGroup
}

// New builds a coordinator, replays its journal (admitting completed cells
// into the cache index and re-running every job whose last lifecycle event
// was non-terminal), and starts the worker heartbeat loops.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.defaulted()
	cch, err := newCache(cfg.CacheDir, cfg.CacheMaxBytes)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:       cfg,
		hc:        &http.Client{Transport: cfg.Transport},
		cache:     cch,
		jobs:      make(map[string]*Job),
		reg:       metrics.NewRegistry(),
		runCtx:    ctx,
		runCancel: cancel,
	}
	for i, base := range cfg.Workers {
		c.workers = append(c.workers, newWorker(i, base))
	}

	c.cSubmitted = c.reg.Counter("coord_jobs_submitted_total", "jobs", "jobs accepted over the API or recovered from the journal")
	c.cDone = c.reg.Counter("coord_jobs_done_total", "jobs", "jobs finished with every seed successful")
	c.cFailed = c.reg.Counter("coord_jobs_failed_total", "jobs", "jobs finished with at least one failed seed")
	c.cCancelled = c.reg.Counter("coord_jobs_cancelled_total", "jobs", "jobs cancelled by DELETE")
	c.cRecovered = c.reg.Counter("coord_jobs_recovered_total", "jobs", "interrupted jobs resumed at startup from the journal")
	c.cCellsDone = c.reg.Counter("coord_cells_done_total", "cells", "completed (spec, seed) cells, cache hits included")
	c.cCellsFailed = c.reg.Counter("coord_cells_failed_total", "cells", "cells failed after exhausting their lease attempts")
	c.cDispatches = c.reg.Counter("coord_dispatches_total", "leases", "leases placed on workers (single-seed daemon jobs)")
	c.cRedispatches = c.reg.Counter("coord_redispatches_total", "leases", "leases re-placed after a lease expiry, worker loss, or worker-side interruption")
	c.cLeaseExpiries = c.reg.Counter("coord_lease_expiries_total", "leases", "leases that hit their deadline before the cell completed")
	c.cCacheHits = c.reg.Counter("coord_cache_hits_total", "cells", "cells served from the content-addressed result cache")
	c.cCacheEvicts = c.reg.Counter("coord_cache_evictions_total", "cells", "cells evicted from the result cache by the size cap (LRU)")
	c.cRPCRetries = c.reg.Counter("coord_rpc_retries_total", "calls", "worker RPC attempts retried after a transient failure")
	c.cEvictions = c.reg.Counter("coord_worker_evictions_total", "evictions", "circuit-breaker evictions of unhealthy workers")
	c.gActive = c.reg.Gauge("coord_jobs_active", "jobs", "jobs currently tracked and non-terminal")

	var resume []*Job
	if cfg.JournalPath != "" {
		resume, err = c.recover(cfg.JournalPath)
		if err != nil {
			cancel()
			return nil, err
		}
		j, err := server.OpenJournal[journalEntry](cfg.JournalPath)
		if err != nil {
			cancel()
			return nil, err
		}
		c.journal = j
	}

	for _, w := range c.workers {
		c.wg.Add(1)
		go c.heartbeatLoop(w)
	}
	for _, j := range resume {
		c.startJob(j)
	}
	return c, nil
}

// recover replays the journal: completed cells of every job are admitted
// into the cache index, terminal jobs become read-only history (their
// merged streams rebuilt from whatever blobs the cache still holds), and
// interrupted jobs are returned for re-running — the cache makes their
// finished seeds free.
func (c *Coordinator) recover(path string) ([]*Job, error) {
	entries, err := server.LoadJournal[journalEntry](path)
	if err != nil {
		return nil, err
	}
	var events []server.LifecycleEvent
	for _, e := range entries {
		if e.Event != "cell" {
			events = append(events, server.LifecycleEvent{Event: e.Event, ID: e.ID, Req: e.Req, Error: e.Error})
			continue
		}
		// Cells feed the cache index regardless of the job's fate.
		if e.Metrics != nil && e.Key != "" {
			if n := c.cache.admit(e.Key, *e.Metrics); n > 0 {
				c.cCacheEvicts.Add(float64(n))
			}
		}
	}
	replayed, next := server.ReplayJobs(events, jobIDPrefix)
	c.nextID = next

	var resume []*Job
	for _, r := range replayed {
		j, err := c.newJob(r.ID, r.Req, r.Seeds, r.Slots)
		if err != nil {
			return nil, err
		}
		j.recovered = true
		c.jobs[r.ID] = j
		c.order = append(c.order, r.ID)
		if r.Interrupted() {
			c.cSubmitted.Inc()
			c.cRecovered.Inc()
			resume = append(resume, j)
			continue
		}
		j.state = server.JobState(r.Last)
		j.errMsg = r.Error
		// History: rebuild what the cache still serves, then close the
		// merged stream so followers terminate.
		for _, seed := range j.Seeds {
			cl := j.cells[seed]
			if m, blob, ok := c.cache.get(cl.key); ok {
				cl.state, cl.metrics, cl.fromCache = cellDone, m, true
				j.merge.put(seed, blob)
			}
		}
		j.result = c.buildResult(j)
		j.merge.close()
		close(j.done)
	}
	return resume, nil
}

// newJob builds a job with one cell per seed, keys precomputed.
func (c *Coordinator) newJob(id string, req server.JobRequest, seeds []int64, totalSlots int) (*Job, error) {
	j := &Job{
		ID:         id,
		Req:        req,
		Seeds:      seeds,
		state:      server.JobQueued,
		createdAt:  now(),
		totalSlots: totalSlots,
		cells:      make(map[int64]*cell, len(seeds)),
		merge:      newMergeLog(seeds),
		done:       make(chan struct{}),
	}
	for _, s := range seeds {
		key, err := CellKey(req.Spec, s)
		if err != nil {
			return nil, err
		}
		j.cells[s] = &cell{seed: s, key: key, state: cellPending, workerID: -1}
	}
	return j, nil
}

// Submit validates, journals, and launches a job.
func (c *Coordinator) Submit(req server.JobRequest) (server.JobStatus, error) {
	seeds, err := req.Normalize()
	if err != nil {
		return server.JobStatus{}, &server.APIError{Status: 400, Msg: err.Error()}
	}
	sc, err := req.Spec.Scenario()
	if err != nil {
		return server.JobStatus{}, &server.APIError{Status: 400, Msg: err.Error()}
	}

	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return server.JobStatus{}, &server.APIError{Status: 503, Msg: "coordinator is draining; not accepting jobs"}
	}
	active := 0
	for _, id := range c.order {
		if !c.jobs[id].state.Terminal() {
			active++
		}
	}
	if active >= c.cfg.QueueDepth {
		c.mu.Unlock()
		return server.JobStatus{}, &server.APIError{Status: 503, Msg: "job table is full", RetryAfter: 1}
	}
	c.nextID++
	id := jobID(c.nextID)
	j, err := c.newJob(id, req, seeds, sc.Slots)
	if err != nil {
		c.mu.Unlock()
		return server.JobStatus{}, err
	}
	if err := c.journal.Append(journalEntry{Event: "submitted", ID: id, Req: &req}); err != nil {
		c.mu.Unlock()
		return server.JobStatus{}, fmt.Errorf("journal: %w", err)
	}
	c.jobs[id] = j
	c.order = append(c.order, id)
	c.cSubmitted.Inc()
	st := c.jobStatus(j)
	c.mu.Unlock()

	c.startJob(j)
	return st, nil
}

// startJob journals the start and launches the job's dispatcher.
func (c *Coordinator) startJob(j *Job) {
	var ctx context.Context
	var cancel context.CancelFunc
	if j.Req.DeadlineMS > 0 {
		ctx, cancel = context.WithTimeout(c.runCtx, time.Duration(j.Req.DeadlineMS)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(c.runCtx)
	}
	c.mu.Lock()
	j.state = server.JobRunning
	j.startedAt = now()
	j.cancel = cancel
	err := c.journal.Append(journalEntry{Event: "started", ID: j.ID})
	c.gActive.Set(c.gActive.Value() + 1)
	c.mu.Unlock()
	if err != nil {
		fmt.Fprintf(os.Stderr, "greencell-coord: journal: %v\n", err)
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer cancel()
		c.runJob(ctx, j)
	}()
}

// Job returns one job's status.
func (c *Coordinator) Job(id string) (server.JobStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return server.JobStatus{}, &server.APIError{Status: 404, Msg: fmt.Sprintf("no such job %q", id)}
	}
	return c.jobStatus(j), nil
}

// Jobs returns every job's status in submission order.
func (c *Coordinator) Jobs() []server.JobStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]server.JobStatus, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.jobStatus(c.jobs[id]))
	}
	return out
}

// WorkerStatuses reports the pool, in registration order.
func (c *Coordinator) WorkerStatuses() []WorkerStatus {
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, w.status())
	}
	return out
}

// CacheLen reports the number of indexed cache cells.
func (c *Coordinator) CacheLen() int { return c.cache.Len() }

// Registry exposes the serving counters (tests and the Prometheus
// endpoint).
func (c *Coordinator) Registry() *metrics.Registry { return c.reg }

// CounterValues snapshots every counter under the coordinator mutex
// (metrics.Counter itself is not thread-safe), so tests can read them
// race-free while the dispatcher runs.
func (c *Coordinator) CounterValues() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reg.CounterValues()
}

// Cancel stops a running job on behalf of a user DELETE; idempotent on
// terminal jobs.
func (c *Coordinator) Cancel(id string) (server.JobStatus, error) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	if !ok {
		c.mu.Unlock()
		return server.JobStatus{}, &server.APIError{Status: 404, Msg: fmt.Sprintf("no such job %q", id)}
	}
	if j.state.Terminal() {
		st := c.jobStatus(j)
		c.mu.Unlock()
		return st, nil
	}
	j.cancelReason = cancelUser
	cancel, done := j.cancel, j.done
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	<-done
	c.mu.Lock()
	defer c.mu.Unlock()
	if !j.state.Terminal() {
		// The dispatcher already exited without a terminal event — a drain
		// (or bare interruption) re-queued the job for the next restart. The
		// user's DELETE must still stick: journal the terminal event and
		// finalize here, or the job would silently resume after a restart.
		j.state = server.JobCancelled
		j.errMsg = "cancelled"
		j.finishedAt = now()
		j.result = c.buildResult(j)
		c.cCancelled.Inc()
		if err := c.journal.Append(journalEntry{Event: "cancelled", ID: j.ID, Error: j.errMsg}); err != nil {
			fmt.Fprintf(os.Stderr, "greencell-coord: journal: %v\n", err)
		}
	}
	return c.jobStatus(j), nil
}

// Stream writes the job's merged, seed-ordered metrics stream into w,
// following live completions until the job ends or ctx is cancelled. A
// merged multi-seed stream has no single slot axis to resume on, so
// fromSlot > 0 is a 400.
func (c *Coordinator) Stream(ctx context.Context, id string, w io.Writer, fromSlot int) error {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return &server.APIError{Status: 404, Msg: fmt.Sprintf("no such job %q", id)}
	}
	if fromSlot > 0 {
		return &server.APIError{Status: 400, Msg: "from_slot: a merged multi-seed stream cannot resume at a slot"}
	}
	return j.merge.stream(ctx, w)
}

// Handler returns the coordinator's HTTP API: server.NewHandler over the
// coordinator, whose metrics stream is the merged seed-ordered one, plus
//
//	GET /v1/workers  worker pool health (breaker state, inflight)
func (c *Coordinator) Handler() *http.ServeMux {
	mux := server.NewHandler(c)
	mux.HandleFunc("GET /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusOK, map[string]any{
			"workers":     c.WorkerStatuses(),
			"cache_cells": c.CacheLen(),
		})
	})
	return mux
}

// WriteMetrics renders the coordinator registry in Prometheus text format.
func (c *Coordinator) WriteMetrics(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return metrics.WritePrometheus(w, c.reg)
}

// Draining reports whether a drain has begun (the /readyz signal).
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Drain gracefully stops the coordinator: new submissions get 503 and
// running jobs are interrupted without a terminal journal event, so a
// restarted coordinator resumes them — completed cells from the cache,
// the rest re-dispatched. Running jobs get until ctx is done to finish on
// their own first.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return errors.New("cluster: already draining")
	}
	c.draining = true
	var running []*Job
	for _, id := range c.order {
		if j := c.jobs[id]; !j.state.Terminal() {
			running = append(running, j)
		}
	}
	c.mu.Unlock()

	for _, j := range running {
		select {
		case <-j.done:
		case <-ctx.Done():
		}
	}

	c.mu.Lock()
	var cancels []func()
	var waits []chan struct{}
	for _, j := range running {
		if !j.state.Terminal() {
			if j.cancelReason == "" {
				j.cancelReason = cancelDrain
			}
			if j.cancel != nil {
				cancels = append(cancels, j.cancel)
			}
			waits = append(waits, j.done)
		}
	}
	c.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	// Each job was just cancelled, so these waits are bounded by the jobs'
	// own unwinding; cutting them short on ctx expiry would return while
	// finishJob is still journaling. The ctx bounds the grace period above,
	// not the teardown.
	//lint:allow ctxflow -- bounded post-cancel teardown; abandoning it would race the journal
	for _, d := range waits {
		<-d
	}

	c.runCancel()
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.journal.Close()
}

// Close stops the coordinator immediately: Drain with no grace period.
func (c *Coordinator) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return c.Drain(ctx)
}

// jobStatus renders a job; the caller holds c.mu.
func (c *Coordinator) jobStatus(j *Job) server.JobStatus {
	st := server.JobStatus{
		ID:         j.ID,
		State:      j.state,
		Error:      j.errMsg,
		Recovered:  j.recovered,
		Spec:       j.Req.Spec,
		Seeds:      j.Seeds,
		DeadlineMS: j.Req.DeadlineMS,
		TotalSlots: j.totalSlots,
		Result:     j.result,
	}
	if !j.createdAt.IsZero() {
		st.CreatedAt = j.createdAt.UTC().Format(time.RFC3339Nano)
	}
	if !j.startedAt.IsZero() {
		st.StartedAt = j.startedAt.UTC().Format(time.RFC3339Nano)
	}
	if !j.finishedAt.IsZero() {
		st.FinishedAt = j.finishedAt.UTC().Format(time.RFC3339Nano)
	}
	for _, seed := range j.Seeds {
		cl := j.cells[seed]
		ss := server.SeedStatus{Seed: seed}
		switch cl.state {
		case cellDone:
			ss.State = "done"
			ss.SlotsDone = int64(j.totalSlots)
		case cellFailed:
			ss.State, ss.Error = "failed", cl.errMsg
		case cellLeased:
			ss.State = "running"
		default:
			if j.state.Terminal() {
				ss.State = string(j.state)
			} else {
				ss.State = "pending"
			}
		}
		st.Progress = append(st.Progress, ss)
	}
	return st
}

// buildResult folds the job's cells into the daemon-shaped result; the
// caller holds c.mu (or owns the job exclusively during recovery).
func (c *Coordinator) buildResult(j *Job) *server.JobResult {
	res := &server.JobResult{}
	for _, seed := range j.Seeds {
		cl := j.cells[seed]
		switch cl.state {
		case cellDone:
			res.Seeds = append(res.Seeds, cl.metrics)
		case cellFailed:
			res.FailedSeeds = append(res.FailedSeeds, seed)
			msg := cl.errMsg
			if msg == "" {
				msg = "failed"
			}
			res.Errors = append(res.Errors, msg)
		default:
			// Non-terminal cell in a finalized job: interrupted.
			res.FailedSeeds = append(res.FailedSeeds, seed)
			res.Errors = append(res.Errors, "interrupted")
		}
	}
	sort.Slice(res.Seeds, func(a, b int) bool { return res.Seeds[a].Seed < res.Seeds[b].Seed })
	if len(res.Seeds) > 0 {
		res.Summary = sim.SummarizeSeedMetrics(res.Seeds)
	}
	return res
}
