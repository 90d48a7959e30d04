package cluster

// The per-job dispatcher. Each running job owns one goroutine that drives
// its cells through the lease state machine:
//
//  1. resolve: cells whose key is already in the content-addressed cache
//     complete immediately (coord_cache_hits_total) — zero dispatches.
//  2. dispatch: each pending cell is leased to a healthy worker as a
//     single-seed daemon job carrying the lease timeout as its worker-side
//     deadline. Worker choice is (seed index + attempts) mod pool, skipping
//     evicted/down/saturated workers, so a re-dispatch naturally lands on a
//     different worker than the one that just lost the lease.
//  3. poll: leased cells are polled at PollInterval. A finished worker job
//     yields the cell's metrics and its full NDJSON stream, which are
//     cached, journaled, and merged. A lease that outlives LeaseTimeout is
//     cancelled best-effort and its cell re-queued.
//
// The coordinator mutex is never held across a worker RPC (every exchange
// is planned under the lock, executed outside it, and committed back under
// it), so slow or black-holed workers cannot wedge status handlers.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"greencell/internal/server"
)

// heartbeatLoop probes one worker's /readyz until shutdown, feeding the
// shared breaker state. While the circuit is open the worker is left alone
// for its cooldown; the first probe after it is the half-open trial.
func (c *Coordinator) heartbeatLoop(w *worker) {
	defer c.wg.Done()
	for {
		if w.probeDue(now()) {
			pctx, cancel := context.WithTimeout(c.runCtx, c.cfg.HeartbeatTimeout)
			err := DoJSON(pctx, c.hc, http.MethodGet, w.base+"/readyz", nil, http.StatusOK, nil)
			cancel()
			if c.runCtx.Err() != nil {
				return
			}
			if err != nil {
				c.workerFailed(w, err)
			} else {
				w.succeed()
			}
		}
		if sleepCtx(c.runCtx, c.cfg.HeartbeatInterval) != nil {
			return
		}
	}
}

// workerFailed records a probe/RPC failure against the worker and counts
// the eviction if this failure tripped the breaker.
func (c *Coordinator) workerFailed(w *worker, err error) {
	if w.fail(err, c.cfg.BreakerThreshold, c.cfg.BreakerCooldown, now()) {
		c.mu.Lock()
		c.cEvictions.Inc()
		c.mu.Unlock()
	}
}

// workerRPC runs op against w under the retry policy, charging the
// worker's breaker on final failure (unless the caller's ctx was the thing
// that gave up) and crediting it on success.
func (c *Coordinator) workerRPC(ctx context.Context, w *worker, op func(ctx context.Context) error) error {
	err := c.cfg.RPC.Do(ctx, op, func(error) {
		c.mu.Lock()
		c.cRPCRetries.Inc()
		c.mu.Unlock()
	})
	switch {
	case err == nil:
		w.succeed()
	case ctx.Err() != nil:
		// The job was cancelled or timed out as a whole; no verdict on the
		// worker.
	default:
		c.workerFailed(w, err)
	}
	return err
}

// runJob drives one job to a terminal state (or to interruption by ctx).
func (c *Coordinator) runJob(ctx context.Context, j *Job) {
	c.resolveFromCache(j)
	for {
		if c.stepJob(ctx, j) {
			break
		}
		if sleepCtx(ctx, c.cfg.PollInterval) != nil {
			break
		}
	}
	c.finishJob(ctx, j)
}

// resolveFromCache completes every cell whose key the content-addressed
// cache already serves. This is the exactly-once path: a resubmitted job
// finishes here with zero dispatches.
func (c *Coordinator) resolveFromCache(j *Job) {
	for _, seed := range j.Seeds {
		c.mu.Lock()
		cl := j.cells[seed]
		key := cl.key
		pending := cl.state == cellPending
		c.mu.Unlock()
		if !pending {
			continue
		}
		m, blob, ok := c.cache.get(key)
		if !ok {
			continue
		}
		c.mu.Lock()
		if cl.state == cellPending {
			cl.state = cellDone
			cl.metrics = m
			cl.fromCache = true
			c.cCacheHits.Inc()
			c.cCellsDone.Inc()
			if err := c.journal.Append(journalEntry{Event: "cell", ID: j.ID, Seed: seed, Key: key, Metrics: &m}); err != nil {
				fmt.Fprintf(os.Stderr, "greencell-coord: journal: %v\n", err)
			}
			j.merge.put(seed, blob)
		}
		c.mu.Unlock()
	}
}

// actKind is one planned dispatcher exchange.
type actKind int

const (
	actDispatch actKind = iota
	actPoll
	actExpire
)

type action struct {
	kind actKind
	cl   *cell
	w    *worker
	wjob string
}

// stepJob runs one dispatcher tick and reports whether every cell is
// terminal once the tick's actions have run, so a job whose last cell is
// collected on this tick finishes now rather than one PollInterval later.
// Planning happens under the coordinator mutex; the RPCs and their commits
// follow outside/under it respectively.
func (c *Coordinator) stepJob(ctx context.Context, j *Job) bool {
	t := now()
	var acts []action

	c.mu.Lock()
	for i, seed := range j.Seeds {
		cl := j.cells[seed]
		switch cl.state {
		case cellPending:
			if cl.attempts >= c.cfg.MaxAttempts {
				cl.state = cellFailed
				cl.errMsg = fmt.Sprintf("exhausted %d lease attempts (last: %s)", cl.attempts, orUnknown(cl.errMsg))
				c.cCellsFailed.Inc()
				continue
			}
			if w := c.pickWorker(i, cl.attempts, t); w != nil {
				// Reserve the slot now so this tick cannot overcommit the
				// worker while the RPCs are still in flight.
				w.addInflight(1)
				acts = append(acts, action{kind: actDispatch, cl: cl, w: w})
			}
		case cellLeased:
			w := c.workers[cl.workerID]
			if t.After(cl.deadline) {
				acts = append(acts, action{kind: actExpire, cl: cl, w: w, wjob: cl.wjob})
			} else if !t.Before(cl.nextPoll) {
				acts = append(acts, action{kind: actPoll, cl: cl, w: w, wjob: cl.wjob})
			}
		}
	}
	c.mu.Unlock()

	for _, a := range acts {
		if ctx.Err() != nil {
			// Interrupted mid-tick: release reservations never dispatched.
			if a.kind == actDispatch {
				a.w.addInflight(-1)
			}
			continue
		}
		switch a.kind {
		case actDispatch:
			c.dispatchCell(ctx, j, a)
		case actPoll:
			c.pollCell(ctx, j, a)
		case actExpire:
			c.expireLease(ctx, j, a)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, seed := range j.Seeds {
		if st := j.cells[seed].state; st != cellDone && st != cellFailed {
			return false
		}
	}
	return true
}

// pickWorker chooses the lease target for a cell: start at
// (seed index + attempts) mod pool — deterministic sharding that rotates
// on every re-dispatch — and take the first ready worker with lease
// capacity. The caller holds the coordinator mutex (worker state has its
// own lock).
func (c *Coordinator) pickWorker(seedIdx, attempts int, t time.Time) *worker {
	n := len(c.workers)
	if n == 0 {
		return nil
	}
	start := (seedIdx + attempts) % n
	for k := 0; k < n; k++ {
		w := c.workers[(start+k)%n]
		if w.schedulable(t) && w.inflightNow() < c.cfg.PerWorkerInflight {
			return w
		}
	}
	return nil
}

// dispatchCell places one lease: a single-seed daemon job whose worker-side
// deadline is the lease timeout, so an orphaned cell self-aborts even if
// this coordinator never returns for it.
func (c *Coordinator) dispatchCell(ctx context.Context, j *Job, a action) {
	wreq := server.JobRequest{
		Spec:       j.Req.Spec,
		Seeds:      []int64{a.cl.seed},
		DeadlineMS: c.cfg.LeaseTimeout.Milliseconds(),
	}
	body, err := json.Marshal(wreq)
	if err != nil {
		a.w.addInflight(-1)
		c.mu.Lock()
		a.cl.state = cellFailed
		a.cl.errMsg = fmt.Sprintf("encoding worker request: %v", err)
		c.cCellsFailed.Inc()
		c.mu.Unlock()
		return
	}
	var st server.JobStatus
	err = c.workerRPC(ctx, a.w, func(ctx context.Context) error {
		return DoJSON(ctx, c.hc, http.MethodPost, a.w.base+"/v1/jobs", body, http.StatusAccepted, &st)
	})

	c.mu.Lock()
	defer c.mu.Unlock()
	if a.cl.state != cellPending {
		a.w.addInflight(-1)
		return
	}
	if err != nil {
		a.w.addInflight(-1)
		a.cl.errMsg = err.Error()
		var he *HTTPError
		if errors.As(err, &he) && he.Status >= 400 && he.Status < 500 && he.Status != http.StatusTooManyRequests {
			// The fleet rejected the request itself (validation/version
			// skew): no worker will ever accept it, so fail fast instead of
			// burning lease attempts.
			a.cl.state = cellFailed
			c.cCellsFailed.Inc()
		}
		return
	}
	t := now()
	redispatch := a.cl.attempts > 0
	a.cl.attempts++
	a.cl.state = cellLeased
	a.cl.workerID = a.w.id
	a.cl.wjob = st.ID
	a.cl.deadline = t.Add(c.cfg.LeaseTimeout)
	a.cl.nextPoll = t.Add(c.cfg.PollInterval)
	c.cDispatches.Inc()
	if redispatch {
		c.cRedispatches.Inc()
	}
}

// pollCell checks one lease's worker job and, when it is done, collects the
// cell: metrics from the job result, stream bytes from the worker's metrics
// endpoint, then cache → journal → merge.
func (c *Coordinator) pollCell(ctx context.Context, j *Job, a action) {
	var st server.JobStatus
	err := c.workerRPC(ctx, a.w, func(ctx context.Context) error {
		return DoJSON(ctx, c.hc, http.MethodGet, a.w.base+"/v1/jobs/"+a.wjob, nil, http.StatusOK, &st)
	})
	if err != nil {
		var he *HTTPError
		lost := errors.As(err, &he) && he.Status == http.StatusNotFound
		c.mu.Lock()
		defer c.mu.Unlock()
		if a.cl.state != cellLeased || a.cl.wjob != a.wjob {
			return
		}
		if lost || !a.w.schedulable(now()) {
			// The worker forgot the job (crash + lost journal) or has been
			// evicted: stop waiting out the lease and re-queue now.
			c.requeueLocked(a)
		} else {
			a.cl.nextPoll = now().Add(c.cfg.PollInterval)
		}
		return
	}

	switch st.State {
	case server.JobDone:
		c.collectCell(ctx, j, a, st)
	case server.JobFailed:
		c.mu.Lock()
		defer c.mu.Unlock()
		if a.cl.state != cellLeased || a.cl.wjob != a.wjob {
			return
		}
		if strings.Contains(st.Error, "interrupted") {
			// The worker-side deadline (= lease timeout) or a worker drain
			// killed the run, not the simulation: the cell is re-dispatchable.
			a.cl.errMsg = st.Error
			c.requeueLocked(a)
			return
		}
		// Deterministic simulation failure: every re-run would fail the
		// same way, so the cell fails permanently.
		a.cl.state = cellFailed
		a.cl.errMsg = st.Error
		a.w.addInflight(-1)
		c.cCellsFailed.Inc()
	case server.JobCancelled:
		c.mu.Lock()
		defer c.mu.Unlock()
		if a.cl.state != cellLeased || a.cl.wjob != a.wjob {
			return
		}
		a.cl.errMsg = "worker job cancelled: " + orUnknown(st.Error)
		c.requeueLocked(a)
	default:
		c.mu.Lock()
		if a.cl.state == cellLeased && a.cl.wjob == a.wjob {
			a.cl.nextPoll = now().Add(c.cfg.PollInterval)
		}
		c.mu.Unlock()
	}
}

// collectCell fetches a finished worker job's stream and commits the cell.
func (c *Coordinator) collectCell(ctx context.Context, j *Job, a action, st server.JobStatus) {
	if st.Result == nil || len(st.Result.Seeds) != 1 {
		c.mu.Lock()
		defer c.mu.Unlock()
		if a.cl.state == cellLeased && a.cl.wjob == a.wjob {
			a.cl.errMsg = "worker job done without a single-seed result"
			c.requeueLocked(a)
		}
		return
	}
	m := st.Result.Seeds[0]
	var blob []byte
	err := c.workerRPC(ctx, a.w, func(ctx context.Context) error {
		b, err := GetBytes(ctx, c.hc, a.w.base+"/v1/jobs/"+a.wjob+"/metrics")
		if err == nil {
			blob = b
		}
		return err
	})
	if err != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		if a.cl.state == cellLeased && a.cl.wjob == a.wjob {
			// Result seen but stream unreachable: the lease stands; a later
			// poll retries the collection (or the lease expires onto another
			// worker).
			a.cl.errMsg = fmt.Sprintf("fetching stream: %v", err)
			a.cl.nextPoll = now().Add(c.cfg.PollInterval)
		}
		return
	}

	key := a.cl.key
	evicted, perr := c.cache.put(key, m, blob)
	if perr != nil {
		fmt.Fprintf(os.Stderr, "greencell-coord: cache: %v\n", perr)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if evicted > 0 {
		c.cCacheEvicts.Add(float64(evicted))
	}
	if a.cl.state != cellLeased || a.cl.wjob != a.wjob {
		return
	}
	a.cl.state = cellDone
	a.cl.metrics = m
	a.w.addInflight(-1)
	c.cCellsDone.Inc()
	if err := c.journal.Append(journalEntry{Event: "cell", ID: j.ID, Seed: a.cl.seed, Key: key, Metrics: &m}); err != nil {
		fmt.Fprintf(os.Stderr, "greencell-coord: journal: %v\n", err)
	}
	j.merge.put(a.cl.seed, blob)
}

// expireLease cancels an overdue worker job best-effort and re-queues the
// cell.
func (c *Coordinator) expireLease(ctx context.Context, j *Job, a action) {
	dctx, cancel := context.WithTimeout(ctx, c.rpcTimeout())
	// Best-effort, single attempt: the worker-side deadline reaps the job
	// anyway if this DELETE never lands.
	//lint:allow droppederr -- best-effort lease cancel; the worker-side job deadline is the backstop
	_ = DoJSON(dctx, c.hc, http.MethodDelete, a.w.base+"/v1/jobs/"+a.wjob, nil, http.StatusOK, nil)
	cancel()

	c.mu.Lock()
	defer c.mu.Unlock()
	if a.cl.state != cellLeased || a.cl.wjob != a.wjob {
		return
	}
	a.cl.errMsg = fmt.Sprintf("lease expired after %s on worker %d", c.cfg.LeaseTimeout, a.w.id)
	c.cLeaseExpiries.Inc()
	c.requeueLocked(a)
}

// requeueLocked returns a leased cell to pending (the next tick
// re-dispatches it, counting against its attempts). Caller holds c.mu.
func (c *Coordinator) requeueLocked(a action) {
	a.cl.state = cellPending
	a.cl.wjob = ""
	a.cl.workerID = -1
	a.w.addInflight(-1)
}

// finishJob finalizes the job once its loop exits: all-terminal → done or
// failed; interrupted → cancelled (user), failed (job deadline), or back to
// queued with no terminal journal event (drain — the recoverable state).
func (c *Coordinator) finishJob(ctx context.Context, j *Job) {
	c.mu.Lock()
	var leased []action
	failed, unfinished := 0, 0
	for _, seed := range j.Seeds {
		cl := j.cells[seed]
		switch cl.state {
		case cellFailed:
			failed++
		case cellDone:
		default:
			unfinished++
			if cl.state == cellLeased {
				leased = append(leased, action{cl: cl, w: c.workers[cl.workerID], wjob: cl.wjob})
			}
		}
	}

	event := ""
	switch {
	case unfinished == 0 && failed == 0:
		j.state = server.JobDone
		event = "done"
		c.cDone.Inc()
	case unfinished == 0:
		j.state = server.JobFailed
		j.errMsg = fmt.Sprintf("%d of %d seeds failed", failed, len(j.Seeds))
		event = "failed"
		c.cFailed.Inc()
	case j.cancelReason == cancelUser:
		j.state = server.JobCancelled
		j.errMsg = "cancelled"
		event = "cancelled"
		c.cCancelled.Inc()
	case j.cancelReason == cancelDrain:
		// No terminal journal event: the last journaled lifecycle event
		// stays "started", so the next coordinator resumes the job — its
		// finished cells from the cache, the rest re-dispatched.
		j.state = server.JobQueued
		j.errMsg = "interrupted by shutdown drain; will resume on restart"
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		j.state = server.JobFailed
		j.errMsg = fmt.Sprintf("deadline exceeded with %d of %d seeds unfinished", unfinished, len(j.Seeds))
		event = "failed"
		c.cFailed.Inc()
	default:
		// Interrupted without a recorded reason (e.g. Close without drain
		// bookkeeping): stay recoverable, like a drain.
		j.state = server.JobQueued
		j.errMsg = "interrupted; will resume on restart"
	}
	j.finishedAt = now()
	if j.state.Terminal() {
		j.result = c.buildResult(j)
	}
	if event != "" {
		if err := c.journal.Append(journalEntry{Event: event, ID: j.ID, Error: j.errMsg}); err != nil {
			fmt.Fprintf(os.Stderr, "greencell-coord: journal: %v\n", err)
		}
	}
	c.gActive.Set(c.gActive.Value() - 1)
	c.mu.Unlock()

	// Release outstanding leases best-effort; the worker-side deadline is
	// the backstop when these DELETEs cannot land.
	for _, a := range leased {
		// The job ctx is already cancelled/expired by the time we get here —
		// deriving from it would kill the very DELETE that releases the
		// lease. A fresh bounded context is the point.
		//lint:allow ctxflow -- post-cancel best-effort lease release; the job ctx is already dead
		dctx, cancel := context.WithTimeout(context.Background(), c.rpcTimeout())
		//lint:allow droppederr -- best-effort lease release; the worker-side job deadline is the backstop
		_ = DoJSON(dctx, c.hc, http.MethodDelete, a.w.base+"/v1/jobs/"+a.wjob, nil, http.StatusOK, nil)
		cancel()
		a.w.addInflight(-1)
	}
	j.merge.close()
	close(j.done)
}

// rpcTimeout bounds single-shot best-effort calls (lease cancels): the
// policy's per-attempt timeout, or 10s when the policy leaves the parent
// deadline in charge.
func (c *Coordinator) rpcTimeout() time.Duration {
	if d := c.cfg.RPC.AttemptTimeout; d > 0 {
		return d
	}
	return 10 * time.Second
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}
