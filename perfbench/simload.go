package main

import (
	"fmt"
	"reflect"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"greencell/internal/core"
	"greencell/internal/machine"
	"greencell/internal/sim"
)

// simWorkload is a scenario spec run back to back through sim.Run, one
// scenario seed after another, each run the spec's full horizon.
type simWorkload struct {
	spec sim.ScenarioSpec
	// ideal workloads have a perfect control network: every degraded
	// slot is a failure and no run may leave energy demand unserved. On
	// an imperfect network only a degraded slot with a cause other than
	// machine.CauseNetStale is a failure.
	ideal bool
}

// setupReps is how many scenario builds the median setup_s is taken over.
const setupReps = 101

// scenarioSeed derives the seed of the i-th run from the benchmark seed.
func scenarioSeed(base int64, i int) int64 { return base*1_000_000 + int64(i) + 1 }

func (w simWorkload) scenario(base int64, i int) (sim.Scenario, error) {
	spec := w.spec
	spec.Seed = scenarioSeed(base, i)
	return spec.Scenario()
}

// prefixRuns is the fixed number of runs every segment starts with: the
// exact counters are taken over them, and they give slot_p99_ms and
// job_p90_ms ten samples beyond (a run of T slots gives T-1 slot
// intervals; a job is one run).
func (w simWorkload) prefixRuns() int {
	per := w.spec.Slots - 1
	return max((samplesFor(990)+per-1)/per, samplesFor(900))
}

// counters are the exact per-slot work counts over a segment's prefix.
type counters struct {
	slots                                 int
	s1Solves, s1Iters, s4Solves, s4Iters  int
	warmStarts                            int
	msgs, dropped, staleViews, nodeClamps int
	degraded                              int
}

func (c *counters) addSlot(sr *core.SlotResult) {
	c.slots++
	if sr.Degraded {
		c.degraded++
	}
	if st := sr.Stages; st != nil {
		c.s1Solves += st.SchedLPSolves
		c.s1Iters += st.SchedLPIterations
		c.s4Solves += st.S4LPSolves
		c.s4Iters += st.S4LPIterations
		c.warmStarts += st.LPWarmStarts
	}
}

func (c *counters) addNet(st machine.SlotNetStats) {
	c.msgs += st.Sent + st.DataMsgs
	c.dropped += st.Dropped
	c.staleViews += st.StaleViews
	c.nodeClamps += st.NodeClamps
}

// segment accumulates the runs of one kind, traced or untraced.
type segment struct {
	traced    bool
	runs      int
	slots     int
	cpu       time.Duration // process CPU time inside the runs
	elapsed   time.Duration // wall time of the whole measurement
	intervals *slotTimes    // CPU time between consecutive SlotHook calls
	runMS     []float64     // CPU ms per sim.Run call
	results   []*sim.Result // prefix runs, for the repetition check
	prefix    counters
	// Runtime counters: allocations over the prefix runs, CPU over all.
	allocBytes, mallocs uint64
	gcCPU, busyCPU      float64
	badSlots            int
	badCauses           []string
	tr                  *tracer
	spans               []span
}

func (w simWorkload) newSegment(traced bool) *segment {
	seg := &segment{
		traced:    traced,
		intervals: newSlotTimes(),
		runMS:     make([]float64, 0, 4096),
	}
	if traced {
		seg.tr = newTracer(now(), 8*w.prefixRuns()*w.spec.Slots)
	}
	return seg
}

func (s *segment) slotsPerSec() float64 { return ratio(float64(s.slots), s.cpu.Seconds()) }

// measure runs scenario seeds 0, 1, 2, … into every segment until the
// prefix is done and seconds of wall time per segment have passed. With
// two segments (untraced and traced) each seed runs once into each,
// alternating which goes first, so the pair sees the same host load and
// their difference is the tracing overhead.
func (w simWorkload) measure(o options, rep *report, segs ...*segment) {
	limit := time.Duration(o.seconds * float64(len(segs)) * float64(time.Second))
	start := now()
	for i := 0; i < w.prefixRuns() || now().Sub(start) < limit; i++ {
		for k := range segs {
			w.runOne(o, segs[(i+k)%len(segs)], i, rep)
		}
	}
	for _, seg := range segs {
		seg.elapsed = now().Sub(start)
		if seg.badSlots > 0 {
			rep.fail(seg.badSlots, "%d degraded slots, first: %v", seg.badSlots, seg.badCauses)
		}
		if seg.traced {
			seg.spans = seg.tr.snapshot()
		}
	}
}

// runOne runs the i-th scenario seed into seg, timing it on the process
// CPU clock (cpuNow). A traced segment also sets Scenario.Instrument and
// records wall-clock spans run → slot → step → stage from the hooks; an
// untraced one only reads the CPU clock at each SlotHook.
func (w simWorkload) runOne(o options, seg *segment, i int, rep *report) {
	sc, err := w.scenario(o.seed, i)
	if err != nil {
		rep.fail(w.spec.Slots, "run %d: %v", i, err)
		return
	}
	inPrefix := i < w.prefixRuns()
	traced, tr := seg.traced, seg.tr
	sc.Instrument = traced
	var before, after runtimeCounters
	before.read()
	t0, c0 := now(), cpuNow()
	last, netAt, lastCPU := t0, t0, c0
	runID := 0
	if traced {
		runID = tr.open(0, "sim.run", fmt.Sprintf("run-%d", sc.Seed), t0)
	}
	if sc.Dist {
		sc.NetHook = func(st machine.SlotNetStats) {
			netAt = now()
			if inPrefix {
				seg.prefix.addNet(st)
			}
		}
	}
	slot := 0
	sc.SlotHook = func(sr *core.SlotResult) {
		c := cpuNow()
		if slot > 0 {
			seg.intervals.add(c - lastCPU)
		}
		lastCPU = c
		if cause := w.failingCause(sr); cause != "" {
			seg.badSlots++
			if len(seg.badCauses) < 5 {
				seg.badCauses = append(seg.badCauses, fmt.Sprintf("seed %d slot %d: %s", sc.Seed, sr.Slot, cause))
			}
		}
		if inPrefix {
			seg.prefix.addSlot(sr)
		}
		if traced {
			t := now()
			stepEnd := t
			if sc.Dist {
				stepEnd = netAt
			}
			traceSlot(tr, runID, sc.Dist, sr.Stages, last, stepEnd, t)
			last = t
		}
		slot++
	}
	res, err := sim.Run(sc)
	c1 := cpuNow()
	after.read()
	if traced {
		tr.close(runID, now())
	}
	seg.runs++
	seg.cpu += c1 - c0
	seg.gcCPU += after.gc - before.gc
	seg.busyCPU += after.busy - before.busy
	if inPrefix {
		seg.allocBytes += after.totalAlloc - before.totalAlloc
		seg.mallocs += after.mallocs - before.mallocs
	}
	seg.runMS = append(seg.runMS, ms(c1-c0))
	rep.attempted += w.spec.Slots
	if err != nil {
		rep.fail(w.spec.Slots, "seed %d: run failed: %v", sc.Seed, err)
		return
	}
	seg.slots += w.spec.Slots
	if w.ideal && res.DeficitWh.Wh() > 0 {
		rep.fail(w.spec.Slots, "seed %d: %.6g Wh of energy demand unserved", sc.Seed, res.DeficitWh.Wh())
	}
	if inPrefix {
		seg.results = append(seg.results, res)
	}
}

// failingCause returns why a slot counts as a failed operation, or "".
func (w simWorkload) failingCause(sr *core.SlotResult) string {
	if !sr.Degraded {
		return ""
	}
	if w.ideal {
		return fmt.Sprint("degraded: ", sr.DegradedCauses)
	}
	for _, c := range sr.DegradedCauses {
		if c != machine.CauseNetStale {
			return "degraded: " + c
		}
	}
	return ""
}

// stageSpans names the StageBreakdown fields in Step's stage order.
var stageSpans = []string{"sched.s1", "alloc.s2", "routing.s3", "queueing.queue", "energymgmt.s4"}

// traceSlot records one slot's spans. The slot span runs from the
// previous SlotHook (or the run's start) to this one. The hooks give the
// stage durations but not their start times, so the step span is placed
// to end at stepEnd (the SlotHook, or the NetHook of a distributed slot)
// and the stages are laid end to end from the step's start. In a
// distributed slot the interval from NetHook to SlotHook is the runner's
// own bookkeeping.
func traceSlot(tr *tracer, runID int, dist bool, st *core.StageBreakdown, from, stepEnd, to time.Time) {
	name := "sim.slot"
	if dist {
		name = "machine.slot"
	}
	slotID := tr.add(runID, name, "", from, to)
	if dist {
		tr.add(slotID, "sim.collect", "", stepEnd, to)
	}
	if st == nil {
		return
	}
	stepStart := stepEnd.Add(-time.Duration(st.TotalNS))
	stepID := tr.add(slotID, "core.step", "", stepStart, stepEnd)
	cursor := stepStart
	for i, ns := range []int64{st.S1NS, st.S2NS, st.S3NS, st.QueueNS, st.S4NS} {
		next := cursor.Add(time.Duration(ns))
		tr.add(stepID, stageSpans[i], "", cursor, next)
		cursor = next
	}
}

// repeat re-runs the first n runs untimed with the invariant checker on
// (the per-node checks on a distributed run) and requires results equal
// to the timed runs of the same seeds. With the traced segment it also
// requires the exact counters to repeat.
func (w simWorkload) repeat(o options, seg *segment, n int, rep *report) {
	var again counters
	complete := true // an aborted run leaves nothing to compare counters with
	for i := 0; i < n && i < len(seg.results); i++ {
		sc, err := w.scenario(o.seed, i)
		if err != nil {
			rep.fail(w.spec.Slots, "repeat %d: %v", i, err)
			complete = false
			continue
		}
		sc.CheckInvariants = true
		sc.Instrument = seg.traced
		sc.SlotHook = func(sr *core.SlotResult) { again.addSlot(sr) }
		if sc.Dist {
			sc.NetHook = func(st machine.SlotNetStats) { again.addNet(st) }
		}
		rep.attempted += w.spec.Slots
		res, err := sim.Run(sc)
		if err != nil {
			rep.fail(w.spec.Slots, "seed %d with invariant checks: %v", sc.Seed, err)
			complete = false
			continue
		}
		if !reflect.DeepEqual(res, seg.results[i]) {
			rep.fail(w.spec.Slots, "seed %d: a repeated run gave a different result", sc.Seed)
		}
	}
	if seg.traced && complete && n == len(seg.results) && again != seg.prefix {
		rep.fail(0, "exact counters did not repeat: timed %+v, repeated %+v", seg.prefix, again)
	}
}

// heapRuns is how many of the first scenario seeds the heap pass runs.
const heapRuns = 10

// peakHeap runs the first heapRuns scenario seeds untimed, collecting
// garbage at every SlotHook, and returns the median over the runs of each
// run's largest live heap at a slot boundary, in MiB. Forcing the
// collection makes the figure depend on the program's reachable data
// alone: the live heap a concurrent collection reports also holds what
// was allocated while it marked, and that grew severalfold when the host
// starved the collector of CPU.
func (w simWorkload) peakHeap(o options) (float64, error) {
	peaks := make([]float64, 0, heapRuns)
	for i := 0; i < heapRuns; i++ {
		sc, err := w.scenario(o.seed, i)
		if err != nil {
			return 0, err
		}
		h := newHeapSampler()
		sc.SlotHook = func(*core.SlotResult) {
			runtime.GC()
			h.sample()
		}
		if _, err := sim.Run(sc); err != nil {
			return 0, fmt.Errorf("heap pass, seed %d: %w", sc.Seed, err)
		}
		peaks = append(peaks, h.peakMiB())
	}
	return median(peaks), nil
}

// setup times spec → Scenario → sim.Build, the work before slot 0, on the
// CPU clock and returns the median in seconds.
func (w simWorkload) setup(o options) (float64, error) {
	xs := make([]float64, setupReps)
	for i := range xs {
		c0 := cpuNow()
		sc, err := w.scenario(o.seed, i)
		if err != nil {
			return 0, err
		}
		if _, _, _, err := sim.Build(sc); err != nil {
			return 0, fmt.Errorf("build seed %d: %w", sc.Seed, err)
		}
		xs[i] = (cpuNow() - c0).Seconds()
	}
	return median(xs), nil
}

func (w simWorkload) run(o options) (*report, error) {
	rep := newReport()
	setup, err := w.setup(o)
	if err != nil {
		return nil, err
	}
	base := w.newSegment(false)
	if !o.trace {
		// The heap pass goes first, while the benchmark holds no results.
		heap, err := w.peakHeap(o)
		if err != nil {
			return nil, err
		}
		w.measure(o, rep, base)
		w.repeat(o, base, 1, rep)
		rep.set("setup_s", setup)
		rep.set("slots_per_s", base.slotsPerSec())
		rep.set("slot_p50_ms", base.intervals.p50())
		rep.set("slot_p99_ms", base.intervals.p99())
		rep.set("peak_heap_mb", heap)
		rep.set("jobs_per_s", ratio(float64(base.runs), base.cpu.Seconds()))
		rep.set("job_p50_ms", median(base.runMS))
		rep.set("job_p90_ms", percentile(base.runMS, 900))
		rep.note("runs %d (a job is one sim.Run of %d slots; job tail p%.1f), slot intervals %d in blocks of %d, CPU %.3fs over %.3fs of wall time",
			base.runs, w.spec.Slots, float64(tailPercentile(base.runs))/10, base.intervals.samples(), blockSize,
			base.cpu.Seconds(), base.elapsed.Seconds())
		return rep, nil
	}
	traced := w.newSegment(true)
	w.measure(o, rep, base, traced)
	w.repeat(o, traced, w.prefixRuns(), rep)
	w.layers(rep, base, traced)
	path, err := writeSpans(o.spanDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed), traced.spans)
	if err != nil {
		return nil, err
	}
	rep.note("spans: %d written to %s", len(traced.spans), path)
	rep.note("untraced %.2f slots/s over %d runs, traced %.2f slots/s over %d runs",
		base.slotsPerSec(), base.runs, traced.slotsPerSec(), traced.runs)
	return rep, nil
}

// layers fills the per-layer metrics of a sim workload: stage times from
// span self times over every traced slot, exact counts over the prefix,
// runtime counts from the untraced segment.
func (w simWorkload) layers(rep *report, base, traced *segment) {
	self := selfByName(traced.spans)
	perSlot := func(name string) float64 {
		return ratio(ms(time.Duration(self[name])), float64(traced.slots))
	}
	rep.set("sched.s1_ms_per_slot", perSlot("sched.s1"))
	rep.set("alloc.s2_ms_per_slot", perSlot("alloc.s2"))
	rep.set("routing.s3_ms_per_slot", perSlot("routing.s3"))
	rep.set("queueing.queue_ms_per_slot", perSlot("queueing.queue"))
	rep.set("energymgmt.s4_ms_per_slot", perSlot("energymgmt.s4"))
	rep.set("core.step_other_ms_per_slot", perSlot("core.step"))
	if w.spec.Dist {
		rep.set("sim.runner_ms_per_slot", perSlot("sim.collect"))
		rep.set("machine.protocol_ms_per_slot", perSlot("machine.slot"))
	} else {
		rep.set("sim.runner_ms_per_slot", perSlot("sim.slot"))
		rep.set("machine.protocol_ms_per_slot", 0)
	}

	p := traced.prefix
	n := float64(p.slots)
	solves := float64(p.s1Solves + p.s4Solves)
	rep.set("lp.s1_solves_per_slot", ratio(float64(p.s1Solves), n))
	rep.set("lp.s1_iters_per_slot", ratio(float64(p.s1Iters), n))
	rep.set("lp.s4_solves_per_slot", ratio(float64(p.s4Solves), n))
	rep.set("lp.s4_iters_per_slot", ratio(float64(p.s4Iters), n))
	rep.set("lp.warm_starts_per_slot", ratio(float64(p.warmStarts), n))
	rep.set("lp.cold_solves_per_slot", ratio(solves-float64(p.warmStarts), n))
	rep.set("lp.warm_ratio", ratio(float64(p.warmStarts), solves))
	rep.set("machine.msgs_per_slot", ratio(float64(p.msgs), n))
	rep.set("machine.dropped_per_slot", ratio(float64(p.dropped), n))
	rep.set("machine.stale_views_per_slot", ratio(float64(p.staleViews), n))
	rep.set("machine.clamps_per_slot", ratio(float64(p.nodeClamps), n))
	rep.set("machine.degraded_slots", float64(p.degraded))

	bn := float64(base.prefix.slots)
	rep.set("runtime.alloc_bytes_per_slot", ratio(float64(base.allocBytes), bn))
	rep.set("runtime.mallocs_per_slot", ratio(float64(base.mallocs), bn))
	rep.set("runtime.gc_cpu_frac", ratio(base.gcCPU, base.busyCPU))
	rep.set("trace.overhead_pct", 100*(ratio(base.slotsPerSec(), traced.slotsPerSec())-1))

	for _, name := range []string{"server.submit_ms", "server.status_ms", "server.stream_ms",
		"server.queue_wait_ms", "server.run_ms_per_cell", "cluster.cache_hit_ratio",
		"cluster.dispatches_per_job", "cluster.redispatches", "cluster.rpc_retries",
		"cluster.poll_useful_ratio", "cluster.completion_lag_ms", "cluster.stream_ms"} {
		rep.set(name, 0)
	}
}

// runtimeCounters is a snapshot of the process's allocation and CPU
// counters (one stop-the-world read).
type runtimeCounters struct {
	totalAlloc, mallocs uint64
	gc, busy            float64
}

func (c *runtimeCounters) read() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.totalAlloc, c.mallocs = m.TotalAlloc, m.Mallocs
	c.gc, c.busy = readCPU()
}

// heapSampler tracks the peak of the live heap (the bytes the last
// garbage collection marked live), read through runtime/metrics.
type heapSampler struct {
	s    []rtmetrics.Sample
	peak uint64
}

func newHeapSampler() heapSampler {
	return heapSampler{s: []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapSampler) sample() {
	rtmetrics.Read(h.s)
	if h.s[0].Value.Kind() == rtmetrics.KindUint64 {
		if v := h.s[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
}

func (h *heapSampler) peakMiB() float64 { return float64(h.peak) / (1 << 20) }

// readCPU returns the process's cumulative GC CPU time and its busy
// (non-idle) CPU time, in seconds, as the runtime estimates them.
func readCPU() (gc, busy float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	rtmetrics.Read(s)
	for _, x := range s {
		if x.Value.Kind() != rtmetrics.KindFloat64 {
			return 0, 0
		}
	}
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}
