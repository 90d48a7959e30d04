package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the subset of BENCHMARK.json that spread reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// spread runs the benchmark binary once per seed and reports, for every
// metric, the median and the distance between the first and third
// quartiles as a share of the median, next to the metric's bound. With
// -same-seed every run uses the first seed, and any exact counter whose
// value differs between runs is flagged.
func spread(args []string) int {
	fs := flag.NewFlagSet("perfbench spread", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	runs := fs.Int("runs", 10, "number of runs")
	first := fs.Int64("first-seed", 1, "seed of the first run; later runs count up from it")
	same := fs.Bool("same-seed", false, "run every time with -first-seed")
	seconds := fs.String("seconds", "10", "passed to each run as --seconds")
	trace := fs.String("trace", "0", "passed to each run as --trace")
	benchJSON := fs.String("bench-json", "BENCHMARK.json", "benchmark definition giving each metric's bound (skipped if absent)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := lookup(*name); !ok || *runs < 1 {
		fmt.Fprintf(os.Stderr, "perfbench spread: need -workload (one of %s) and -runs ≥ 1\n", workloadNames())
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench spread:", err)
		return 1
	}
	bounds := readBounds(*benchJSON)

	values := make(map[string][]float64)
	units := make(map[string]string)
	var order []string
	ok := true
	for i := 0; i < *runs; i++ {
		seed := *first
		if !*same {
			seed += int64(i)
		}
		line, err := runOnce(exe, *name, seed, *seconds, *trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench spread: seed %d: %v\n", seed, err)
			return 1
		}
		if !line.Correct || line.Failed != 0 {
			ok = false
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d\n", seed, line.Correct, line.Attempted, line.Failed)
		if i == 0 {
			for _, d := range endToEnd {
				if _, in := line.Metrics[d.name]; in {
					order = append(order, d.name)
				}
			}
			for _, d := range perLayer {
				if _, in := line.Metrics[d.name]; in {
					order = append(order, d.name)
				}
			}
		}
		for _, m := range order {
			values[m] = append(values[m], line.Metrics[m].Value)
			units[m] = line.Metrics[m].Unit
		}
	}

	fmt.Printf("%-30s %14s %14s %14s %9s %7s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, m := range order {
		xs := values[m]
		q1, _, q3, _ := quartiles(xs)
		sp := quartileSpread(xs)
		bound := ""
		if b, has := bounds[m]; has {
			bound = fmt.Sprintf("%.2f", b)
			if sp > b/3 {
				bound += " WIDE"
			}
		}
		fmt.Printf("%-30s %14.6g %14.6g %14.6g %8.2f%% %7s %s\n", m, q1, median(xs), q3, 100*sp, bound, units[m])
	}
	if *same {
		for _, m := range exactCounters {
			xs := values[m]
			if len(xs) < 2 {
				continue
			}
			for _, x := range xs[1:] {
				//lint:allow nofloateq -- an exact counter must repeat bit for bit
				if x != xs[0] {
					fmt.Printf("NOT EXACT: %s varies across runs of one seed: %v\n", m, xs)
					break
				}
			}
		}
	}
	if !ok {
		fmt.Println("some runs failed their output checks")
		return 1
	}
	return 0
}

// runOnce runs one benchmark child and parses its last output line.
func runOnce(exe, name string, seed int64, seconds, trace string) (resultLine, error) {
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", seconds, "--trace", trace)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return resultLine{}, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return resultLine{}, fmt.Errorf("parsing result line: %w", err)
	}
	return line, nil
}

// readBounds maps each end-to-end metric of path to its bound; an absent
// or unreadable file gives none.
func readBounds(path string) map[string]float64 {
	out := make(map[string]float64)
	data, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var bf benchmarkFile
	if json.Unmarshal(data, &bf) != nil {
		return out
	}
	for _, m := range bf.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
