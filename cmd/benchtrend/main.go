// Command benchtrend runs the repository's Fig. 2 benchmarks, the
// warm-start slot benchmark, and the lint-suite benchmark, and maintains
// the PR-over-PR performance trajectory file (BENCH_<n>.json). Each trajectory point is a labeled
// snapshot of every benchmark's ns/op, B/op, allocs/op, and custom
// metrics (gap-V1e5, lp-iters/slot, ...); points are ordered oldest to
// newest, so diffing adjacent points shows what a PR did to performance.
//
// Modes:
//
//	benchtrend                      measure and print (file untouched)
//	benchtrend -label after-pr6     measure and record a trajectory point
//	benchtrend -check               CI gate: 1-iteration smoke run, then
//	                                validate the committed file and fail
//	                                on a >20% ns/op regression between
//	                                the last two trajectory points
//
// Points are labeled, not timestamped: the file must stay byte-stable
// under re-runs that change nothing, and wall-clock values are banned
// from reproducible artifacts (docs/ANALYSIS.md, wallclock analyzer).
// See docs/PERFORMANCE.md for the file format and workflow.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// schemaID names the trajectory file format; bump on incompatible change.
const schemaID = "greencell/bench-trajectory@1"

// regressionTol is the benchcmp gate: -check fails when a benchmark's
// ns/op grew by more than this fraction between the last two points.
const regressionTol = 0.20

// Result is one benchmark's measurements at one trajectory point.
// Metrics holds testing.B.ReportMetric units verbatim (lp-iters/slot,
// gap-V1e5, ...).
type Result struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Point is one labeled snapshot in the trajectory, keyed by benchmark
// name (Benchmark prefix and -GOMAXPROCS suffix stripped).
type Point struct {
	Label   string            `json:"label"`
	Note    string            `json:"note,omitempty"`
	Results map[string]Result `json:"results"`
}

// Trajectory is the whole file: schema tag plus points oldest-first.
type Trajectory struct {
	Schema string  `json:"schema"`
	Points []Point `json:"trajectory"`
}

func main() {
	out := flag.String("out", "BENCH_9.json", "trajectory file to validate or update")
	bench := flag.String("bench", "Fig2|WarmStartSlots|DistSlots|LintRepo", "benchmark name regex passed to go test -bench")
	benchtime := flag.String("benchtime", "3x", "go test -benchtime value (forced to 1x by -check)")
	label := flag.String("label", "", "record the measurements as a trajectory point with this label (replaces an existing point with the same label)")
	note := flag.String("note", "", "free-form note stored alongside -label's point")
	check := flag.Bool("check", false, "CI mode: smoke-run the benchmarks once, validate -out, and diff its last two points")
	flag.Parse()

	if *check {
		*benchtime = "1x"
	}
	results, err := measure(*bench, *benchtime)
	if err != nil {
		fatal(err)
	}
	printResults(results)
	switch {
	case *check:
		if err := checkFile(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("benchtrend: %s ok\n", *out)
	case *label != "":
		if err := record(*out, *label, *note, results); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtrend:", err)
	os.Exit(1)
}

// measure shells out to go test -bench and parses its text output. The
// benchmarks live in the repository root package, so benchtrend must run
// from there (make bench-json does).
func measure(bench, benchtime string) (map[string]Result, error) {
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchtime", benchtime, "-benchmem", "."}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return parseBench(string(out))
}

// parseBench extracts benchmark result lines: a name, an iteration
// count, then (value, unit) pairs in whatever order testing emitted them.
func parseBench(out string) (map[string]Result, error) {
	results := make(map[string]Result)
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // -GOMAXPROCS suffix
			}
		}
		r := Result{Metrics: make(map[string]float64)}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark line %q: bad value %q", line, f[i])
			}
			switch unit := f[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			default:
				r.Metrics[unit] = v
			}
		}
		if len(r.Metrics) == 0 {
			r.Metrics = nil
		}
		results[name] = r
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark result lines in go test output")
	}
	return results, nil
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func printResults(results map[string]Result) {
	for _, name := range sortedNames(results) {
		r := results[name]
		fmt.Printf("%-26s %14.0f ns/op", name, r.NsPerOp)
		if r.AllocsPerOp > 0 {
			fmt.Printf(" %9d allocs/op", r.AllocsPerOp)
		}
		for _, k := range sortedNames(r.Metrics) {
			fmt.Printf("  %g %s", r.Metrics[k], k)
		}
		fmt.Println()
	}
}

func load(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t Trajectory
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &t, nil
}

// write marshals canonically: two-space indent, struct field order as
// declared, map keys sorted (encoding/json), trailing newline. Re-running
// with identical measurements produces identical bytes.
func write(path string, t *Trajectory) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchtrend: wrote %s (%d trajectory points)\n", path, len(t.Points))
	return nil
}

// record appends (or replaces, matching by label) a trajectory point.
func record(path, label, note string, results map[string]Result) error {
	t, err := load(path)
	if os.IsNotExist(err) {
		t = &Trajectory{Schema: schemaID}
	} else if err != nil {
		return err
	}
	pt := Point{Label: label, Note: note, Results: results}
	replaced := false
	for i := range t.Points {
		if t.Points[i].Label == label {
			t.Points[i] = pt
			replaced = true
		}
	}
	if !replaced {
		t.Points = append(t.Points, pt)
	}
	return write(path, t)
}

// checkFile validates the committed trajectory and, once two or more
// points exist, diffs the newest against its predecessor. Committed
// points are compared with each other — never with this run's 1-iteration
// smoke numbers, which exist only to prove the harness still parses.
func checkFile(path string) error {
	t, err := load(path)
	if err != nil {
		return err
	}
	if t.Schema != schemaID {
		return fmt.Errorf("%s: schema %q, want %q", path, t.Schema, schemaID)
	}
	if len(t.Points) == 0 {
		return fmt.Errorf("%s: no trajectory points", path)
	}
	for _, pt := range t.Points {
		if pt.Label == "" {
			return fmt.Errorf("%s: point with empty label", path)
		}
		if len(pt.Results) == 0 {
			return fmt.Errorf("%s: point %q has no results", path, pt.Label)
		}
		for _, name := range sortedNames(pt.Results) {
			if !(pt.Results[name].NsPerOp > 0) {
				return fmt.Errorf("%s: point %q: %s has non-positive ns/op", path, pt.Label, name)
			}
		}
	}
	if len(t.Points) >= 2 {
		return diffPoints(t.Points[len(t.Points)-2], t.Points[len(t.Points)-1])
	}
	return nil
}

// diffPoints prints a benchcmp-style table for benchmarks present in
// both points and fails on any ns/op regression beyond regressionTol.
func diffPoints(prev, cur Point) error {
	fmt.Printf("trajectory diff: %q -> %q\n", prev.Label, cur.Label)
	fmt.Printf("%-26s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	var regressed []string
	for _, name := range sortedNames(cur.Results) {
		old, ok := prev.Results[name]
		if !ok {
			continue // new benchmark: nothing to compare against
		}
		now := cur.Results[name]
		fmt.Printf("%-26s %14.0f %14.0f %+7.2f%%\n",
			name, old.NsPerOp, now.NsPerOp, (now.NsPerOp-old.NsPerOp)/old.NsPerOp*100)
		if now.NsPerOp > old.NsPerOp*(1+regressionTol) {
			regressed = append(regressed, name)
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("ns/op regressed >%d%% since point %q: %s",
			int(regressionTol*100), prev.Label, strings.Join(regressed, ", "))
	}
	return nil
}
