// Command perfbench is greencell's repository benchmark. It drives the
// program only through its public entry points (sim.ScenarioSpec,
// sim.Build, sim.Run and its hooks, the greencelld and greencell-coord
// HTTP handlers) and times those calls from outside.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics with tracing off; with
// --trace 1 it runs the workload untraced and then traced and reports the
// per-layer metrics. Either way it checks the program's outputs and
// prints, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics. `perfbench spread` runs it repeatedly
// and reports the run-to-run spread of every metric. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"greencell/internal/sim"
)

// options are one benchmark run's arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir holds the fleet journals; spanDir the traced run's spans.
	workDir, spanDir string
}

// workload is one named set of inputs.
type workload interface {
	run(o options) (*report, error)
}

// workloads lists every workload; README.md says why each is there.
var workloads = []struct {
	name string
	w    workload
}{
	{"paper-sf", simWorkload{
		spec:  sim.ScenarioSpec{Preset: "paper", Scheduler: "sf", Slots: 25},
		ideal: true,
	}},
	{"rural-s4", simWorkload{
		spec:  sim.ScenarioSpec{Preset: "rural", Scheduler: "sf", Slots: 100},
		ideal: true,
	}},
	{"dist-dup", simWorkload{
		spec: sim.ScenarioSpec{
			Preset: "paper", Scheduler: "greedy", Slots: 100, Dist: true,
			NetDup: 0.02, NetReorder: 2,
		},
	}},
	{"fleet-mix", fleetWorkload{
		spec:        sim.ScenarioSpec{Preset: "rural", Slots: 50},
		seedsPerJob: 4,
		overlap:     2,
	}},
}

func lookup(name string) (workload, bool) {
	for _, e := range workloads {
		if e.name == name {
			return e.w, true
		}
	}
	return nil, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, e := range workloads {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 && args[0] == "spread" {
		return spread(args[1:])
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 10, "seconds to measure (a run extends to its minimum sample count)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	work := fs.String("work", ".bench_build", "directory for the fleet's journals and the span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive, got %g\n", *seconds)
		return 2
	}
	o := options{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workDir:  filepath.Join(*work, "fleet"),
		spanDir:  filepath.Join(*work, "spans"),
	}
	rep, err := w.run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if err := rep.print(defs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	return 0
}
