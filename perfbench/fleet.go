package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"greencell/internal/cluster"
	"greencell/internal/core"
	"greencell/internal/metrics"
	"greencell/internal/rng"
	"greencell/internal/server"
	"greencell/internal/sim"
)

// fleetWorkload drives one in-process coordinator over one in-process
// worker daemon, both on loopback HTTP at their command-line defaults,
// with one closed-loop client. Job k asks for seedsPerJob consecutive
// seeds starting overlap·k past the first, so every job after the first
// reuses overlap seeds of the job before it: those cells are cache hits,
// the others are dispatched to the worker.
type fleetWorkload struct {
	spec        sim.ScenarioSpec
	seedsPerJob int
	overlap     int
}

// setupStarts is how many times the fleet is started; setup_s is the
// median and the last start serves the measured jobs.
const setupStarts = 3

// fleetSeed is the seed of cell j of the benchmark seed.
func fleetSeed(base int64, j int) int64 { return scenarioSeed(base, j) }

func (w fleetWorkload) jobSeeds(base int64, k int) []int64 {
	out := make([]int64, w.seedsPerJob)
	for i := range out {
		out[i] = fleetSeed(base, w.overlap*k+i)
	}
	return out
}

// newCells is how many cells of job k are not cached by job k-1.
func (w fleetWorkload) newCells(k int) int {
	if k == 0 {
		return w.seedsPerJob
	}
	return w.seedsPerJob - w.overlap
}

// fleet is one running coordinator + worker pair.
type fleet struct {
	dir      string
	srv      *server.Server
	coord    *cluster.Coordinator
	workerHS *http.Server
	coordHS  *http.Server
	served   chan error
	base     string
}

// startFleet starts the worker and then the coordinator, each journaling
// into a fresh directory under root, and returns once the coordinator is
// ready and sees the worker as ready. wrap may wrap either HTTP handler.
func startFleet(root string, wrap func(layer string, h http.Handler) http.Handler) (f *fleet, err error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "fleet-")
	if err != nil {
		return nil, err
	}
	f = &fleet{dir: dir, served: make(chan error, 2)}
	defer func() {
		if err != nil {
			err = errors.Join(err, f.stop())
			f = nil
		}
	}()
	// greencelld defaults: journal on, one job at a time, queue depth 256.
	f.srv, err = server.New(server.Config{JournalPath: filepath.Join(dir, "greencelld.journal.jsonl")})
	if err != nil {
		return f, err
	}
	workerURL, err := f.serve(&f.workerHS, wrap("server", f.srv.Handler()))
	if err != nil {
		return f, err
	}
	// greencell-coord defaults: journal on, in-memory cache, 100ms
	// dispatcher tick, and its default RPC policy and jitter seed.
	f.coord, err = cluster.New(cluster.Config{
		Workers:     []string{workerURL},
		JournalPath: filepath.Join(dir, "greencell-coord.journal.jsonl"),
		RPC: &cluster.RetryPolicy{
			MaxAttempts:    4,
			AttemptTimeout: 10 * time.Second,
			Rand:           rng.New(1).Split("coord-rpc-jitter"),
		},
	})
	if err != nil {
		return f, err
	}
	f.base, err = f.serve(&f.coordHS, wrap("cluster", f.coord.Handler()))
	if err != nil {
		return f, err
	}
	return f, f.waitReady()
}

// serve starts an HTTP server for h on an ephemeral loopback port.
func (f *fleet) serve(hs **http.Server, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	*hs = &http.Server{Handler: h}
	go serveHTTP(*hs, ln, f.served)
	return "http://" + ln.Addr().String(), nil
}

func serveHTTP(hs *http.Server, ln net.Listener, done chan<- error) {
	err := hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	done <- err
}

func (f *fleet) waitReady() error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := now().Add(10 * time.Second)
	for {
		ws := f.coord.WorkerStatuses()
		if len(ws) == 1 && ws[0].State == cluster.WorkerReady {
			err := cluster.DoJSON(context.Background(), hc, http.MethodGet, f.base+"/readyz", nil, http.StatusOK, nil)
			if err == nil {
				return nil
			}
		}
		if now().After(deadline) {
			return fmt.Errorf("fleet not ready after 10s: workers %+v", ws)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the coordinator, then the worker, waits for both HTTP
// servers to return, and removes the journals.
func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	started := 0
	if f.coord != nil {
		errs = append(errs, f.coord.Close())
	}
	if f.coordHS != nil {
		started++
		errs = append(errs, f.coordHS.Shutdown(ctx))
	}
	if f.srv != nil {
		errs = append(errs, f.srv.Close())
	}
	if f.workerHS != nil {
		started++
		errs = append(errs, f.workerHS.Shutdown(ctx))
	}
	for i := 0; i < started; i++ {
		errs = append(errs, <-f.served)
	}
	errs = append(errs, os.RemoveAll(f.dir))
	return errors.Join(errs...)
}

// fleetTrace records the request spans of both daemons below the open
// job span, and whether each worker status poll found its job finished.
type fleetTrace struct{ tr *tracer }

func (ft *fleetTrace) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := layer + "." + route(r)
		rec := &capture{ResponseWriter: w, keep: name == "server.status"}
		start := now()
		h.ServeHTTP(rec, r)
		end := now()
		ft.tr.addUnderCurrent(name, start, end, rec.keep && finished(rec.body.Bytes()))
	})
}

// route names the API route of a request to either daemon.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return "submit"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/jobs/") && strings.HasSuffix(p, "/metrics"):
		return "stream"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/jobs/"):
		return "status"
	case p == "/readyz" || p == "/healthz":
		return "probe"
	default:
		return "other"
	}
}

// finished reports whether a JobStatus body shows a terminal job.
func finished(body []byte) bool {
	var st server.JobStatus
	return json.Unmarshal(body, &st) == nil && st.State.Terminal()
}

// capture passes a response through, keeping a copy of the body when
// keep is set, and forwards Flush so streamed responses still stream.
type capture struct {
	http.ResponseWriter
	keep bool
	body bytes.Buffer
}

func (c *capture) Write(p []byte) (int, error) {
	if c.keep {
		c.body.Write(p)
	}
	return c.ResponseWriter.Write(p)
}

func (c *capture) Flush() {
	if fl, ok := c.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func (c *capture) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// fleetPass is the outcome of one pass of closed-loop jobs.
type fleetPass struct {
	jobs        int
	latencyMS   []float64
	busy        time.Duration // sum of job latencies
	computed    recordSums    // over the prefix's dispatched slots
	hashes      [][32]byte    // canonical merged stream per job
	coordJobs   []string
	prefixCount map[string]float64
	allocBytes  uint64
	mallocs     uint64
	gcCPU       float64
	busyCPU     float64
	peakHeap    uint64
	spans       []span
	workerJobs  []server.JobStatus
	coordStatus []server.JobStatus
}

// minJobs puts ten jobs beyond the 90th percentile of job latency; the
// exact cluster counters are taken over the first minJobs jobs.
func minJobs() int { return samplesFor(900) }

// pass runs closed-loop jobs on f until at least minJobs have finished
// and seconds of job time have passed.
func (w fleetWorkload) pass(o options, f *fleet, ft *fleetTrace, rep *report) (*fleetPass, error) {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer hc.CloseIdleConnections()
	ctx := context.Background()
	p := &fleetPass{}
	limit := time.Duration(o.seconds * float64(time.Second))
	prefix := minJobs()

	var m0, m1 runtimeCounters
	m0.read()
	// endPrefix closes the fixed amount of work the counters and the heap
	// cover, so neither depends on how many jobs the time allows. The
	// coordinator keeps every finished job's stream and every cached cell,
	// so the heap a collection finds live once no job is in flight is the
	// high-water mark of what the fleet retains.
	prefixDone := false
	endPrefix := func() {
		prefixDone = true
		m1.read()
		p.prefixCount = f.coord.CounterValues()
		runtime.GC()
		h := newHeapSampler()
		h.sample()
		p.peakHeap = h.peak
	}
	for k := 0; k < prefix || p.busy < limit; k++ {
		if k == prefix {
			endPrefix()
		}
		seeds := w.jobSeeds(o.seed, k)
		body, err := json.Marshal(server.JobRequest{Spec: w.spec, Seeds: seeds})
		if err != nil {
			return nil, err
		}
		jobSpan := 0
		t0 := now()
		if ft != nil {
			jobSpan = ft.tr.open(0, "client.job", fmt.Sprintf("job-%d", k), t0)
			ft.tr.setCurrent(jobSpan)
		}
		var st server.JobStatus
		err = cluster.DoJSON(ctx, hc, http.MethodPost, f.base+"/v1/jobs", body, http.StatusAccepted, &st)
		var stream []byte
		if err == nil {
			stream, err = cluster.GetBytes(ctx, hc, f.base+"/v1/jobs/"+st.ID+"/metrics")
		}
		t1 := now()
		if ft != nil {
			ft.tr.setCurrent(0)
			ft.tr.close(jobSpan, t1)
		}
		p.jobs++
		rep.attempted++
		p.latencyMS = append(p.latencyMS, ms(t1.Sub(t0)))
		p.busy += t1.Sub(t0)
		if err != nil {
			rep.fail(1, "job %d: %v", k, err)
			p.hashes = append(p.hashes, [32]byte{})
			p.coordJobs = append(p.coordJobs, "")
			continue
		}
		p.coordJobs = append(p.coordJobs, st.ID)
		// Outside the job's timed interval: keep a digest of the
		// canonical stream and the records of the dispatched cells.
		var fresh []int64 // the prefix's dispatched cells feed the slot-record sums
		if k < prefix {
			fresh = seeds[w.seedsPerJob-w.newCells(k):]
		}
		h, err := w.digest(stream, fresh, p)
		if err != nil {
			rep.fail(1, "job %d stream: %v", k, err)
		}
		p.hashes = append(p.hashes, h)
	}
	if !prefixDone {
		endPrefix()
	}
	p.allocBytes, p.mallocs = m1.totalAlloc-m0.totalAlloc, m1.mallocs-m0.mallocs
	p.gcCPU, p.busyCPU = m1.gc-m0.gc, m1.busy-m0.busy
	p.workerJobs = f.srv.Jobs()
	// A merged stream ends when its last cell lands; the job turns
	// terminal just after.
	deadline := now().Add(10 * time.Second)
	for p.coordStatus = f.coord.Jobs(); !allTerminal(p.coordStatus) && now().Before(deadline); p.coordStatus = f.coord.Jobs() {
		time.Sleep(time.Millisecond)
	}
	if ft != nil {
		p.spans = ft.tr.snapshot()
	}
	return p, nil
}

// digest canonicalizes a merged stream, checks its slots, adds the slot
// records of the fresh seeds to p.computed, and returns the stream's
// SHA-256.
func (w fleetWorkload) digest(stream []byte, fresh []int64, p *fleetPass) ([32]byte, error) {
	canon, err := metrics.CanonicalizeJSONL(stream)
	if err != nil {
		return [32]byte{}, err
	}
	isFresh := make(map[int64]bool, len(fresh))
	for _, s := range fresh {
		isFresh[s] = true
	}
	var seed int64
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		var head struct {
			Type string `json:"type"`
			Seed int64  `json:"seed"`
		}
		if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
			return [32]byte{}, err
		}
		switch head.Type {
		case "header":
			seed = head.Seed
		case "slot":
			var rec metrics.SlotRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				return [32]byte{}, err
			}
			if rec.Degraded != 0 || rec.DeficitWh > 0 {
				return [32]byte{}, fmt.Errorf("seed %d slot %d degraded (%q) or short of energy", seed, rec.Slot, rec.DegradedCauses)
			}
			if isFresh[seed] {
				p.computed.add(&rec)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(canon), nil
}

// verify recomputes every job's merged stream locally, seed by seed with
// sim.Run and a Recorder, and requires the canonical bytes to match. It
// also requires every job to have finished and the exact cache-hit count
// of the prefix. The local runs are the same computation the worker did
// for the cells, and verify times their slots on the CPU clock, one run
// at a time, into the returned slotTimes.
func (w fleetWorkload) verify(o options, p *fleetPass, rep *report) *slotTimes {
	times := newSlotTimes()
	local := make(map[int][]byte) // canonical stream per cell index
	for k, id := range p.coordJobs {
		var merged bytes.Buffer
		for j := w.overlap * k; j < w.overlap*k+w.seedsPerJob; j++ {
			b, ok := local[j]
			if !ok {
				var err error
				if b, err = localStream(w.spec, fleetSeed(o.seed, j), times); err != nil {
					rep.fail(0, "local run of seed %d: %v", fleetSeed(o.seed, j), err)
				}
				local[j] = b
			}
			merged.Write(b)
		}
		// Cells before the next job's first are never needed again.
		for j := w.overlap * k; j < w.overlap*(k+1); j++ {
			delete(local, j)
		}
		if id != "" && sha256.Sum256(merged.Bytes()) != p.hashes[k] {
			rep.fail(1, "job %d (%s): merged stream differs from the local per-seed runs", k, id)
		}
	}
	for _, st := range p.coordStatus {
		if st.State != server.JobDone {
			rep.fail(1, "coordinator job %s ended %s: %s", st.ID, st.State, st.Error)
		}
	}
	n := minJobs()
	wantHits := w.overlap * (n - 1)
	if got := int(p.prefixCount["coord_cache_hits_total"]); got != wantHits {
		rep.fail(0, "cache hits over the first %d jobs: got %v, want %v", n, got, wantHits)
	}
	return times
}

func allTerminal(sts []server.JobStatus) bool {
	for _, st := range sts {
		if !st.State.Terminal() {
			return false
		}
	}
	return true
}

// localStream is the canonical Recorder stream of one seed run locally,
// with the CPU time between consecutive SlotHook calls added to times.
func localStream(spec sim.ScenarioSpec, seed int64, times *slotTimes) ([]byte, error) {
	sc, err := spec.Scenario()
	if err != nil {
		return nil, err
	}
	sc.Seed = seed
	var last time.Duration
	sc.SlotHook = func(*core.SlotResult) {
		c := cpuNow()
		if last > 0 {
			times.add(c - last)
		}
		last = c
	}
	var buf bytes.Buffer
	rec := sim.NewRecorder(metrics.NewJSONLWriter(&buf), sim.HeaderFor(sc, spec.Label()))
	rec.Attach(&sc, false)
	if _, err := sim.Run(sc); err != nil {
		return nil, err
	}
	if err := rec.Close(); err != nil {
		return nil, err
	}
	return metrics.CanonicalizeJSONL(buf.Bytes())
}

// setup starts and stops the fleet setupStarts-1 times, starts it once
// more for the measured jobs, and returns the running fleet with the
// median start-to-ready time in seconds.
func (w fleetWorkload) setup(o options, wrap func(string, http.Handler) http.Handler) (*fleet, float64, error) {
	var xs []float64
	for i := 0; i < setupStarts; i++ {
		t0 := now()
		f, err := startFleet(o.workDir, wrap)
		if err != nil {
			return nil, 0, fmt.Errorf("starting fleet: %w", err)
		}
		xs = append(xs, now().Sub(t0).Seconds())
		if i == setupStarts-1 {
			return f, median(xs), nil
		}
		if err := f.stop(); err != nil {
			return nil, 0, fmt.Errorf("stopping fleet: %w", err)
		}
	}
	return nil, 0, errors.New("unreachable")
}

func (w fleetWorkload) run(o options) (*report, error) {
	rep := newReport()
	plain := func(_ string, h http.Handler) http.Handler { return h }
	f, setup, err := w.setup(o, plain)
	if err != nil {
		return nil, err
	}
	base, err := w.pass(o, f, nil, rep)
	if serr := f.stop(); serr != nil {
		err = errors.Join(err, fmt.Errorf("stopping fleet: %w", serr))
	}
	if err != nil {
		return nil, err
	}
	times := w.verify(o, base, rep)
	if !o.trace {
		rep.set("setup_s", setup)
		rep.set("slots_per_s", ratio(float64(base.jobs*w.seedsPerJob*w.spec.Slots), base.busy.Seconds()))
		rep.set("slot_p50_ms", times.p50())
		rep.set("slot_p99_ms", times.p99())
		rep.set("peak_heap_mb", float64(base.peakHeap)/(1<<20))
		rep.set("jobs_per_s", ratio(float64(base.jobs), base.busy.Seconds()))
		rep.set("job_p50_ms", median(base.latencyMS))
		rep.set("job_p90_ms", percentile(base.latencyMS, 900))
		rep.note("jobs %d of %d seeds x %d slots (job tail p%.1f), replayed slot intervals %d in blocks of %d",
			base.jobs, w.seedsPerJob, w.spec.Slots, float64(tailPercentile(len(base.latencyMS)))/10,
			times.samples(), blockSize)
		return rep, nil
	}

	ft := &fleetTrace{tr: newTracer(now(), 64*minJobs())}
	f, _, err = w.setup(o, ft.wrap)
	if err != nil {
		return nil, err
	}
	traced, err := w.pass(o, f, ft, rep)
	if serr := f.stop(); serr != nil {
		err = errors.Join(err, fmt.Errorf("stopping fleet: %w", serr))
	}
	if err != nil {
		return nil, err
	}
	w.verify(o, traced, rep)
	for _, name := range []string{"coord_dispatches_total", "coord_redispatches_total", "coord_cache_hits_total", "coord_rpc_retries_total"} {
		if x, y := int(base.prefixCount[name]), int(traced.prefixCount[name]); x != y {
			rep.note("NOT EXACT: %s over the first %d jobs was %d untraced and %d traced", name, minJobs(), x, y)
		}
	}
	w.layers(rep, base, traced)
	path, err := writeSpans(o.spanDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed), traced.spans)
	if err != nil {
		return nil, err
	}
	rep.note("spans: %d written to %s", len(traced.spans), path)
	rep.note("untraced %.3f jobs/s over %d jobs, traced %.3f jobs/s over %d jobs",
		ratio(float64(base.jobs), base.busy.Seconds()), base.jobs, ratio(float64(traced.jobs), traced.busy.Seconds()), traced.jobs)
	return rep, nil
}

// layers fills the per-layer metrics of the fleet workload.
func (w fleetWorkload) layers(rep *report, base, traced *fleetPass) {
	spans := traced.spans
	rep.set("server.submit_ms", median(durationsOf(spans, "server.submit")))
	rep.set("server.status_ms", median(durationsOf(spans, "server.status")))
	rep.set("server.stream_ms", median(durationsOf(spans, "server.stream")))
	rep.set("cluster.stream_ms", median(durationsOf(spans, "cluster.stream")))
	var polls, useful float64
	for _, s := range spans {
		if s.Name == "server.status" {
			polls++
			if s.Flag {
				useful++
			}
		}
	}
	rep.set("cluster.poll_useful_ratio", ratio(useful, polls))

	var waits, runs []float64
	finishedAt := make(map[int64]time.Time) // worker job finish per seed
	for _, st := range traced.workerJobs {
		created, e1 := time.Parse(time.RFC3339Nano, st.CreatedAt)
		started, e2 := time.Parse(time.RFC3339Nano, st.StartedAt)
		done, e3 := time.Parse(time.RFC3339Nano, st.FinishedAt)
		if e1 != nil || e2 != nil || e3 != nil || len(st.Seeds) != 1 {
			continue
		}
		waits = append(waits, ms(started.Sub(created)))
		runs = append(runs, ms(done.Sub(started)))
		finishedAt[st.Seeds[0]] = done
	}
	rep.set("server.queue_wait_ms", median(waits))
	rep.set("server.run_ms_per_cell", median(runs))
	var lags []float64
	for _, st := range traced.coordStatus {
		done, err := time.Parse(time.RFC3339Nano, st.FinishedAt)
		if err != nil {
			continue
		}
		var last time.Time
		for _, seed := range st.Seeds {
			if t, ok := finishedAt[seed]; ok && t.After(last) && !t.After(done) {
				last = t
			}
		}
		if !last.IsZero() {
			lags = append(lags, ms(done.Sub(last)))
		}
	}
	rep.set("cluster.completion_lag_ms", median(lags))

	c := traced.prefixCount
	jobs := float64(minJobs())
	rep.set("cluster.cache_hit_ratio", ratio(c["coord_cache_hits_total"], c["coord_cells_done_total"]))
	rep.set("cluster.dispatches_per_job", ratio(c["coord_dispatches_total"], jobs))
	rep.set("cluster.redispatches", c["coord_redispatches_total"])
	rep.set("cluster.rpc_retries", c["coord_rpc_retries_total"])

	// The sim layers as the worker's streamed slot records report them.
	r := traced.computed
	n := float64(r.slots)
	perSlotMS := func(ns int64) float64 { return ratio(float64(ns)/1e6, n) }
	rep.set("sched.s1_ms_per_slot", perSlotMS(r.s1NS))
	rep.set("alloc.s2_ms_per_slot", perSlotMS(r.s2NS))
	rep.set("routing.s3_ms_per_slot", perSlotMS(r.s3NS))
	rep.set("queueing.queue_ms_per_slot", perSlotMS(r.queueNS))
	rep.set("energymgmt.s4_ms_per_slot", perSlotMS(r.s4NS))
	rep.set("core.step_other_ms_per_slot", perSlotMS(r.otherNS))
	s1Solves, s4Solves := float64(r.s1Solves), float64(r.s4Solves)
	s1Iters, s4Iters := float64(r.s1Iters), float64(r.s4Iters)
	rep.set("lp.s1_solves_per_slot", ratio(s1Solves, n))
	rep.set("lp.s1_iters_per_slot", ratio(s1Iters, n))
	rep.set("lp.s4_solves_per_slot", ratio(s4Solves, n))
	rep.set("lp.s4_iters_per_slot", ratio(s4Iters, n))
	// The stream carries no warm-start count.
	rep.set("lp.warm_starts_per_slot", 0)
	rep.set("lp.cold_solves_per_slot", ratio(s1Solves+s4Solves, n))
	rep.set("lp.warm_ratio", 0)
	for _, name := range []string{"sim.runner_ms_per_slot", "machine.protocol_ms_per_slot",
		"machine.msgs_per_slot", "machine.dropped_per_slot", "machine.stale_views_per_slot",
		"machine.clamps_per_slot", "machine.degraded_slots"} {
		rep.set(name, 0)
	}

	slots := float64(base.computed.slots)
	rep.set("runtime.alloc_bytes_per_slot", ratio(float64(base.allocBytes), slots))
	rep.set("runtime.mallocs_per_slot", ratio(float64(base.mallocs), slots))
	rep.set("runtime.gc_cpu_frac", ratio(base.gcCPU, base.busyCPU))
	rep.set("trace.overhead_pct", 100*(ratio(traced.busy.Seconds()/float64(traced.jobs), base.busy.Seconds()/float64(base.jobs))-1))
}

// recordSums accumulates streamed slot records.
type recordSums struct {
	slots                                    int
	s1NS, s2NS, s3NS, queueNS, s4NS, otherNS int64
	s1Solves, s1Iters, s4Solves, s4Iters     int
}

func (r *recordSums) add(rec *metrics.SlotRecord) {
	r.slots++
	r.s1NS += rec.S1NS
	r.s2NS += rec.S2NS
	r.s3NS += rec.S3NS
	r.queueNS += rec.QueueNS
	r.s4NS += rec.S4NS
	r.otherNS += rec.TotalNS - rec.S1NS - rec.S2NS - rec.S3NS - rec.QueueNS - rec.S4NS
	r.s1Solves += rec.S1LPSolves
	r.s1Iters += rec.S1LPIters
	r.s4Solves += rec.S4LPSolves
	r.s4Iters += rec.S4LPIters
}
