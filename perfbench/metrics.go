package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// metricDef names one reported metric and its unit. The two lists below
// must match BENCHMARK.json (TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"slots_per_s", "1/s"},
	{"slot_p50_ms", "ms"},
	{"slot_p99_ms", "ms"},
	{"peak_heap_mb", "MiB"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
}

// perLayer are the per-layer metrics of the traced run (--trace 1). A
// layer that a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"sched.s1_ms_per_slot", "ms"},
	{"lp.s1_solves_per_slot", "count"},
	{"lp.s1_iters_per_slot", "count"},
	{"lp.warm_starts_per_slot", "count"},
	{"lp.cold_solves_per_slot", "count"},
	{"lp.warm_ratio", "ratio"},
	{"lp.s4_solves_per_slot", "count"},
	{"lp.s4_iters_per_slot", "count"},
	{"energymgmt.s4_ms_per_slot", "ms"},
	{"alloc.s2_ms_per_slot", "ms"},
	{"routing.s3_ms_per_slot", "ms"},
	{"queueing.queue_ms_per_slot", "ms"},
	{"core.step_other_ms_per_slot", "ms"},
	{"sim.runner_ms_per_slot", "ms"},
	{"runtime.alloc_bytes_per_slot", "B"},
	{"runtime.mallocs_per_slot", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"machine.protocol_ms_per_slot", "ms"},
	{"machine.msgs_per_slot", "count"},
	{"machine.dropped_per_slot", "count"},
	{"machine.stale_views_per_slot", "count"},
	{"machine.clamps_per_slot", "count"},
	{"machine.degraded_slots", "count"},
	{"server.submit_ms", "ms"},
	{"server.status_ms", "ms"},
	{"server.stream_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.run_ms_per_cell", "ms"},
	{"cluster.cache_hit_ratio", "ratio"},
	{"cluster.dispatches_per_job", "count"},
	{"cluster.redispatches", "count"},
	{"cluster.rpc_retries", "count"},
	{"cluster.poll_useful_ratio", "ratio"},
	{"cluster.completion_lag_ms", "ms"},
	{"cluster.stream_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// exactCounters are the per-layer metrics computed from a fixed amount
// of work (the first runs or jobs of a seed), so the same seed must give
// the same value on every run of one commit. `perfbench spread
// -same-seed` flags any that do not repeat.
var exactCounters = []string{
	"lp.s1_solves_per_slot",
	"lp.s1_iters_per_slot",
	"lp.warm_starts_per_slot",
	"lp.cold_solves_per_slot",
	"lp.warm_ratio",
	"lp.s4_solves_per_slot",
	"lp.s4_iters_per_slot",
	"runtime.alloc_bytes_per_slot",
	"runtime.mallocs_per_slot",
	"machine.msgs_per_slot",
	"machine.dropped_per_slot",
	"machine.stale_views_per_slot",
	"machine.clamps_per_slot",
	"machine.degraded_slots",
	"cluster.cache_hit_ratio",
	"cluster.dispatches_per_job",
	"cluster.redispatches",
	"cluster.rpc_retries",
}

// report is what one workload run hands back: operation counts, the
// output-check failures, and every metric of the requested set.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	notes             []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail records a failed output check that spoils n operations.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the human-readable lines to standard output and then, as
// the last line, the result object. It fails if the report lacks a metric
// of defs or holds one outside it.
func (r *report) print(defs []metricDef) error {
	line := resultLine{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if line.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(r.values) != len(defs) {
		extra := make([]string, 0, len(r.values))
		for name := range r.values {
			if _, ok := line.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("metrics outside the declared set: %v", extra)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, p := range r.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	fmt.Printf("failed_frac = %.6g (%d of %d operations)\n",
		ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	for _, d := range defs {
		fmt.Printf("%-30s %14.6g %s\n", d.name, r.values[d.name], d.unit)
	}
	data, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Println(string(data))
	return nil
}
