// Package server is the experiment daemon behind cmd/greencelld: an HTTP/
// JSON job orchestrator over the crash-proof replication machinery of
// internal/sim. A job is a serializable scenario spec plus a seed list; the
// server runs jobs from a bounded queue on a worker pool, streams each
// job's metrics live (the docs/METRICS.md schema, byte-identical to a local
// run), journals job lifecycles to a JSONL file so a restarted daemon
// recovers interrupted work, and drains gracefully on SIGTERM.
//
// Determinism is the core contract: a job's result is a pure function of
// (spec, seeds). The serve-smoke gate exercises it end to end by diffing a
// streamed job against the golden fixture produced by sim.Run directly.
// See docs/SERVER.md for the API reference and lifecycle details.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"greencell/internal/core"
	"greencell/internal/metrics"
	"greencell/internal/sim"
)

// Config parameterizes a Server.
type Config struct {
	// JournalPath is the JSONL job journal; empty disables journalling
	// (jobs then do not survive a restart).
	JournalPath string
	// Workers is the number of jobs run concurrently (each job additionally
	// parallelizes across its seeds, so 1 — the default — already saturates
	// the machine for multi-seed jobs).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs; submits
	// beyond it are rejected with 503. Default 256. Recovery ignores the
	// bound: every recoverable journaled job is re-queued.
	QueueDepth int
}

// Server owns the job table, the worker pool, and the journal. Create with
// New, serve its Handler, and stop with Drain (graceful) or Close.
type Server struct {
	cfg Config

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for GET /v1/jobs
	nextID int

	journal  *Journal[journalEntry]
	queue    chan *Job
	draining bool

	// reg holds the serving-level metrics: job lifecycle counters plus the
	// sim_-prefixed aggregation of every streamed run's counters. Guarded
	// by mu (the registry itself is not concurrency-safe).
	reg            *metrics.Registry
	cSubmitted     *metrics.Counter
	cDone          *metrics.Counter
	cFailed        *metrics.Counter
	cCancelled     *metrics.Counter
	cRecovered     *metrics.Counter
	cSeedsComplete *metrics.Counter
	cSeedsFailed   *metrics.Counter
	gQueued        *metrics.Gauge
	gRunning       *metrics.Gauge

	// runCtx cancels every job when the server closes hard.
	runCtx    context.Context
	runCancel context.CancelFunc
	wg        sync.WaitGroup
}

// New builds a server, replays the journal (re-queueing every job whose
// last event was non-terminal), and starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		jobs:      make(map[string]*Job),
		reg:       metrics.NewRegistry(),
		runCtx:    ctx,
		runCancel: cancel,
	}
	s.cSubmitted = s.reg.Counter("greencelld_jobs_submitted_total", "jobs", "jobs accepted over the API or recovered from the journal")
	s.cDone = s.reg.Counter("greencelld_jobs_done_total", "jobs", "jobs finished with every seed successful")
	s.cFailed = s.reg.Counter("greencelld_jobs_failed_total", "jobs", "jobs finished with at least one failed seed")
	s.cCancelled = s.reg.Counter("greencelld_jobs_cancelled_total", "jobs", "jobs cancelled by DELETE")
	s.cRecovered = s.reg.Counter("greencelld_jobs_recovered_total", "jobs", "interrupted jobs re-queued at startup from the journal")
	s.cSeedsComplete = s.reg.Counter("greencelld_seeds_completed_total", "seeds", "seed replications finished successfully")
	s.cSeedsFailed = s.reg.Counter("greencelld_seeds_failed_total", "seeds", "seed replications that failed or were interrupted")
	s.gQueued = s.reg.Gauge("greencelld_jobs_queued", "jobs", "jobs waiting for a worker")
	s.gRunning = s.reg.Gauge("greencelld_jobs_running", "jobs", "jobs currently executing")

	var recovered []*Job
	if cfg.JournalPath != "" {
		var err error
		recovered, err = s.recover(cfg.JournalPath)
		if err != nil {
			cancel()
			return nil, err
		}
		j, err := OpenJournal[journalEntry](cfg.JournalPath)
		if err != nil {
			cancel()
			return nil, err
		}
		s.journal = j
	}

	// Size the queue so recovery can never block on its own channel.
	depth := cfg.QueueDepth
	if len(recovered) > depth {
		depth = len(recovered)
	}
	s.queue = make(chan *Job, depth)
	for _, j := range recovered {
		s.queue <- j
	}

	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recover replays the journal into the job table: terminal jobs become
// read-only history (their streams and results were not journaled), and
// interrupted jobs are returned for re-queueing — determinism makes the
// re-run equivalent to the interrupted one.
func (s *Server) recover(path string) ([]*Job, error) {
	entries, err := LoadJournal[journalEntry](path)
	if err != nil {
		return nil, err
	}
	replayed, next := ReplayJobs(entries, jobIDPrefix)
	s.nextID = next
	var requeue []*Job
	for _, r := range replayed {
		j := newJob(r.ID, r.Req, r.Seeds, r.Slots)
		j.recovered = true
		s.jobs[r.ID] = j
		s.order = append(s.order, r.ID)
		if r.Interrupted() {
			s.cSubmitted.Inc()
			s.cRecovered.Inc()
			s.gQueued.Set(s.gQueued.Value() + 1)
			requeue = append(requeue, j)
			continue
		}
		// Historical: keep it listable, but its stream is gone.
		j.state = JobState(r.Last)
		if err := j.log.Close(); err != nil {
			return nil, err // unreachable: a fresh log always closes
		}
		j.log = nil
		close(j.done)
	}
	return requeue, nil
}

// jobIDPrefix starts every daemon job ID.
const jobIDPrefix = "job-"

// jobID renders the canonical ID for job number n.
func jobID(n int) string {
	return fmt.Sprintf("%s%06d", jobIDPrefix, n)
}

// Submit validates, journals, and enqueues a job, returning its status.
func (s *Server) Submit(req JobRequest) (JobStatus, error) {
	seeds, err := req.Normalize()
	if err != nil {
		return JobStatus{}, &APIError{Status: 400, Msg: err.Error()}
	}
	sc, err := req.Spec.Scenario()
	if err != nil {
		return JobStatus{}, &APIError{Status: 400, Msg: err.Error()}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, &APIError{Status: 503, Msg: "server is draining; not accepting jobs"}
	}
	if len(s.queue) == cap(s.queue) {
		// Retry-After: the queue drains at job granularity, so a short
		// client-side pause is the right unit; the submit clients honor it
		// inside their shared backoff helper.
		return JobStatus{}, &APIError{Status: 503, Msg: "job queue is full", RetryAfter: 1}
	}
	s.nextID++
	id := jobID(s.nextID)
	j := newJob(id, req, seeds, sc.Slots)
	if err := s.journal.Append(journalEntry{Event: "submitted", ID: id, Req: &req}); err != nil {
		return JobStatus{}, fmt.Errorf("journal: %w", err)
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.cSubmitted.Inc()
	s.gQueued.Set(s.gQueued.Value() + 1)
	//lint:allow locksafe -- cannot block: queue capacity was checked above under the same s.mu, and only this path sends
	s.queue <- j
	return j.status(), nil
}

// Job returns one job's status.
func (s *Server) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, &APIError{Status: 404, Msg: fmt.Sprintf("no such job %q", id)}
	}
	return j.status(), nil
}

// Jobs returns every job's status in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	return out
}

// Cancel stops a queued or running job on behalf of a user DELETE. It is
// idempotent: cancelling a terminal job reports its (unchanged) status.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, &APIError{Status: 404, Msg: fmt.Sprintf("no such job %q", id)}
	}
	switch {
	case j.state.Terminal():
		st := j.status()
		s.mu.Unlock()
		return st, nil
	case j.state == JobQueued:
		// Still in the queue; mark it terminal here and let the worker
		// discard it on dequeue.
		j.state = JobCancelled
		j.cancelReason = cancelUser
		j.errMsg = "cancelled"
		j.finishedAt = now()
		err := s.journal.Append(journalEntry{Event: "cancelled", ID: id})
		s.cCancelled.Inc()
		s.gQueued.Set(s.gQueued.Value() - 1)
		if j.log != nil {
			// The stream never started; close it so followers unblock.
			if cerr := j.log.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		close(j.done)
		st := j.status()
		s.mu.Unlock()
		if err != nil {
			return st, fmt.Errorf("journal: %w", err)
		}
		return st, nil
	default: // running
		j.cancelReason = cancelUser
		cancel, done := j.cancel, j.done
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		<-done // runJob finishes the bookkeeping
		return s.Job(id)
	}
}

// Stream copies the job's metrics stream (header, slot records from
// fromSlot on, summary) into w, following live output until the job ends
// or ctx is cancelled.
func (s *Server) Stream(ctx context.Context, id string, w io.Writer, fromSlot int) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var log *recordLog
	if ok {
		log = j.log
	}
	s.mu.Unlock()
	if !ok {
		return &APIError{Status: 404, Msg: fmt.Sprintf("no such job %q", id)}
	}
	if log == nil {
		return &APIError{Status: 410, Msg: fmt.Sprintf("job %q predates this daemon instance; its stream was not journaled", id)}
	}
	return log.stream(ctx, w, fromSlot)
}

// cancel reasons: a user DELETE journals a terminal event; a drain does
// not, leaving the job recoverable by the next daemon instance.
const (
	cancelUser  = "user"
	cancelDrain = "drain"
)

// worker executes queued jobs until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		if j.state != JobQueued || s.draining {
			// Cancelled while queued, or draining: leave it; a drained
			// queued job stays journaled as submitted and recovers later.
			s.mu.Unlock()
			continue
		}
		var jobCtx context.Context
		var cancel context.CancelFunc
		if j.Req.DeadlineMS > 0 {
			jobCtx, cancel = context.WithTimeout(s.runCtx, time.Duration(j.Req.DeadlineMS)*time.Millisecond)
		} else {
			jobCtx, cancel = context.WithCancel(s.runCtx)
		}
		j.state = JobRunning
		j.startedAt = now()
		j.cancel = cancel
		err := s.journal.Append(journalEntry{Event: "started", ID: j.ID})
		s.gQueued.Set(s.gQueued.Value() - 1)
		s.gRunning.Set(s.gRunning.Value() + 1)
		s.mu.Unlock()
		if err != nil {
			fmt.Fprintf(os.Stderr, "greencelld: journal: %v\n", err)
		}

		s.runJob(jobCtx, j)
		cancel()
	}
}

// runJob executes every seed of one job, streams the first seed's metrics,
// aggregates the outcomes, and finalizes the job's state.
func (s *Server) runJob(ctx context.Context, j *Job) {
	sc, err := j.Req.Spec.Scenario()
	if err != nil {
		// Validated at submit; reaching here means the spec layer changed
		// under us. Fail the job rather than panic.
		s.finish(j, nil, nil, fmt.Errorf("materializing spec: %w", err))
		return
	}

	// The first seed is the streamed one: its run carries a Recorder whose
	// output is byte-identical to `greencellsim -metrics` on the same
	// scenario (the serve-smoke contract). Other seeds run bare, with only
	// the lock-free progress hook.
	streamSeed := j.Seeds[0]
	header := sc
	header.Seed = streamSeed
	rec := sim.NewRecorder(j.log, sim.HeaderFor(header, j.Req.Spec.Label()))
	prepare := func(seed int64, sc *sim.Scenario) {
		p := j.byTheSeed[seed]
		sc.SlotHook = func(sr *core.SlotResult) { p.slotsDone.Add(1) }
		if seed == streamSeed {
			rec.Attach(sc, false)
		}
	}

	outs := sim.RunSeedsPrepared(ctx, sc, j.Seeds, prepare)
	if err := rec.Close(); err != nil && !errors.Is(err, errLogClosed) {
		fmt.Fprintf(os.Stderr, "greencelld: job %s: recorder: %v\n", j.ID, err)
	}

	res := &JobResult{}
	for _, o := range outs {
		if o.Err != nil {
			res.FailedSeeds = append(res.FailedSeeds, o.Seed)
			res.Errors = append(res.Errors, o.Err.Error())
			continue
		}
		res.Seeds = append(res.Seeds, sim.MetricsOf(o.Seed, o.Result))
	}
	if len(res.Seeds) > 0 {
		res.Summary = sim.SummarizeSeedMetrics(res.Seeds)
	}

	var runErr error
	if len(res.FailedSeeds) > 0 {
		runErr = fmt.Errorf("%d of %d seeds failed: %s", len(res.FailedSeeds), len(j.Seeds), res.Errors[0])
		if ctx.Err() != nil {
			runErr = fmt.Errorf("%d of %d seeds interrupted: %v", len(res.FailedSeeds), len(j.Seeds), ctx.Err())
		}
	}
	s.finish(j, res, rec.Registry(), runErr)
}

// finish moves a job to its terminal state, journals it (unless the job
// was interrupted by a drain, which must stay recoverable), updates the
// server counters, folds the streamed run's counters into the serving
// registry, and releases cancel waiters.
func (s *Server) finish(j *Job, res *JobResult, streamReg *metrics.Registry, runErr error) {
	s.mu.Lock()
	j.result = res
	j.finishedAt = now()
	event := ""
	switch {
	case j.cancelReason == cancelDrain:
		// No terminal journal event: the last journaled event stays
		// "started", so the next daemon instance re-queues the job.
		j.state = JobCancelled
		j.errMsg = "interrupted by shutdown drain; will re-run on restart"
	case j.cancelReason == cancelUser:
		j.state = JobCancelled
		j.errMsg = "cancelled"
		event = "cancelled"
		s.cCancelled.Inc()
	case runErr != nil:
		j.state = JobFailed
		j.errMsg = runErr.Error()
		event = "failed"
		s.cFailed.Inc()
	default:
		j.state = JobDone
		event = "done"
		s.cDone.Inc()
	}
	if res != nil {
		s.cSeedsComplete.Add(float64(len(res.Seeds)))
		s.cSeedsFailed.Add(float64(len(res.FailedSeeds)))
	}
	if streamReg != nil {
		// Aggregate the streamed seed's run counters under a sim_ prefix
		// (histogram quantiles do not sum and stay in the stream summary).
		streamReg.EachCounter(func(name, unit, help string, v float64) {
			s.reg.Counter("sim_"+name, unit, help).Add(v)
		})
	}
	var jerr error
	if event != "" {
		jerr = s.journal.Append(journalEntry{Event: event, ID: j.ID, Error: j.errMsg})
	}
	s.gRunning.Set(s.gRunning.Value() - 1)
	if j.log != nil {
		if cerr := j.log.Close(); cerr != nil && jerr == nil {
			jerr = cerr
		}
	}
	close(j.done)
	s.mu.Unlock()
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "greencelld: journal: %v\n", jerr)
	}
}

// Handler returns the daemon's HTTP API (NewHandler over the server).
func (s *Server) Handler() *http.ServeMux { return NewHandler(s) }

// Draining reports whether a drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// WriteMetrics renders the serving registry in Prometheus text format.
func (s *Server) WriteMetrics(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return metrics.WritePrometheus(w, s.reg)
}

// Drain gracefully stops the server: new submissions get 503, queued jobs
// stay journaled for the next instance, and running jobs get until ctx is
// done to finish before being interrupted (without a terminal journal
// event, so they also recover on restart). Drain waits for the workers to
// exit and closes the journal.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already draining")
	}
	s.draining = true
	var running []*Job
	for _, id := range s.order {
		if j := s.jobs[id]; j.state == JobRunning {
			running = append(running, j)
		}
	}
	close(s.queue)
	s.mu.Unlock()

	// Grace period: let running jobs finish on their own.
	for _, j := range running {
		select {
		case <-j.done:
		case <-ctx.Done():
		}
	}

	// Interrupt whatever is left, marked as a drain so no terminal event
	// is journaled and the job recovers on restart.
	s.mu.Lock()
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
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	// Each job was just cancelled, so these waits are bounded by the jobs'
	// own unwinding; cutting them short on ctx expiry would return while
	// the drain bookkeeping is mid-write. The ctx bounds the grace period
	// above, not the teardown.
	//lint:allow ctxflow -- bounded post-cancel teardown; abandoning it would race the journal
	for _, d := range waits {
		<-d
	}

	s.wg.Wait()
	s.runCancel()

	// Unblock any followers of jobs that never ran (they stay journaled as
	// submitted and recover on the next start).
	s.mu.Lock()
	for _, id := range s.order {
		if j := s.jobs[id]; !j.state.Terminal() && j.log != nil {
			if err := j.log.Close(); err != nil {
				// recordLog.Close never fails; keep the compiler honest.
				fmt.Fprintf(os.Stderr, "greencelld: closing stream of %s: %v\n", id, err)
			}
		}
	}
	s.mu.Unlock()
	return s.journal.Close()
}

// Close stops the server immediately: Drain with no grace period.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return s.Drain(ctx)
}
