// Command sweep runs the paper scenario across a range of one parameter
// and tabulates the headline metrics, with optional multi-seed replication
// and 95% confidence intervals.
//
// Usage:
//
//	sweep -param users -values 10,20,30 [-slots N] [-replications R] [-out file.tsv]
//
// Parameters: users | sessions | neighbors | v | lambda.
//
// Replications run on a bounded worker pool and survive per-seed
// failures: a crashed or failed seed is reported on stderr and excluded
// from that point's summaries instead of aborting the sweep. With
// -resume FILE, every completed (param, value, seed) cell is checkpointed
// to FILE as a JSON line and skipped on the next invocation, so an
// interrupted sweep (Ctrl-C cancels cooperatively) can pick up where it
// left off. See docs/ROBUSTNESS.md.
//
// With -coord URL, each point runs on a greencell-coord cluster (or a
// single greencelld) instead of locally: the point becomes one job sharded
// seed-by-seed across the fleet, and the coordinator's content-addressed
// cache makes resumed or repeated sweeps nearly free. See docs/CLUSTER.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"

	"greencell"
	"greencell/internal/export"
	"greencell/internal/metrics"
	"greencell/internal/server"
	"greencell/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		param      = fs.String("param", "v", "parameter to sweep: users | sessions | neighbors | v | lambda")
		values     = fs.String("values", "1e5,5e5,1e6", "comma-separated values")
		slots      = fs.Int("slots", 100, "slots per run")
		reps       = fs.Int("replications", 1, "independent seeds per point")
		seed       = fs.Int64("seed", 1, "base seed")
		out        = fs.String("out", "", "optional TSV output path")
		metricsPfx = fs.String("metrics", "", "per-point metrics stream prefix: writes <prefix>_<param>_<value>.jsonl (docs/METRICS.md) from one instrumented run per point")
		resume     = fs.String("resume", "", "JSONL checkpoint file: completed (param, value, seed) cells are appended here and skipped when re-run (docs/ROBUSTNESS.md)")
		coordURL   = fs.String("coord", "", "run each point on a greencell-coord (or greencelld) at this base URL instead of simulating locally (docs/CLUSTER.md)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordURL != "" && *metricsPfx != "" {
		return errors.New("-metrics is not supported with -coord; fetch the cluster job's /v1/jobs/<id>/metrics stream instead")
	}

	var vals []float64
	for _, tok := range strings.Split(*values, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return fmt.Errorf("bad value %q: %w", tok, err)
		}
		vals = append(vals, v)
	}

	apply, err := applier(*param)
	if err != nil {
		return err
	}

	// Ctrl-C cancels cooperatively: in-flight replications return at their
	// next slot boundary, finished cells are kept (and checkpointed), and
	// the partial table is still printed and written.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	done := map[string]sim.SeedMetrics{}
	var ckpt *server.Journal[cell] // nil records nothing
	if *resume != "" {
		if done, err = loadCheckpoints(*resume); err != nil {
			return err
		}
		if ckpt, err = server.OpenJournal[cell](*resume); err != nil {
			return err
		}
		defer func() { err = errors.Join(err, ckpt.Close()) }()
	}

	header := []string{*param, "cost_mean", "cost_ci", "delivered_mean", "backlog_mean", "grid_mean", "degraded_mean"}
	fmt.Printf("%12s %14s %12s %12s %12s %12s %12s\n",
		*param, "cost", "±95%", "delivered", "backlog", "grid Wh", "degraded")
	var rows [][]float64
	var seedErrs []error
	for _, v := range vals {
		sc := greencell.PaperScenario()
		sc.Slots = *slots
		sc.Seed = *seed
		sc.KeepTraces = false
		if err := apply(&sc, v); err != nil {
			return err
		}

		// Split the point's seeds into checkpointed cells and fresh work.
		var ms []sim.SeedMetrics
		var todo []int64
		for _, s := range sim.Seeds(*seed, *reps) {
			if m, ok := done[cellKey(*param, v, s)]; ok {
				ms = append(ms, m)
			} else {
				todo = append(todo, s)
			}
		}
		var failed []int64
		if *coordURL != "" {
			spec := sim.ScenarioSpec{Slots: *slots, Seed: *seed}
			if err := applySpec(&spec, *param, v); err != nil {
				return err
			}
			got, fseeds, errs, err := newCoordClient(*coordURL).runPoint(ctx, spec, todo)
			if err != nil {
				return fmt.Errorf("%s=%g: %w", *param, v, err)
			}
			failed = fseeds
			for _, e := range errs {
				seedErrs = append(seedErrs, fmt.Errorf("%s=%g: %w", *param, v, e))
			}
			for _, m := range got {
				ms = append(ms, m)
				if err := ckpt.Append(cell{Param: *param, Value: v, Metrics: m}); err != nil {
					return fmt.Errorf("checkpoint: %w", err)
				}
			}
		} else {
			for _, o := range sim.RunSeeds(ctx, sc, todo) {
				if o.Err != nil {
					failed = append(failed, o.Seed)
					seedErrs = append(seedErrs, fmt.Errorf("%s=%g: %w", *param, v, o.Err))
					continue
				}
				m := sim.MetricsOf(o.Seed, o.Result)
				ms = append(ms, m)
				if err := ckpt.Append(cell{Param: *param, Value: v, Metrics: m}); err != nil {
					return fmt.Errorf("checkpoint: %w", err)
				}
			}
		}
		if len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "sweep: %s=%g: %d/%d seeds failed: %v\n",
				*param, v, len(failed), *reps, failed)
		}
		if len(ms) == 0 {
			// Every seed of the point failed (or the sweep was cancelled
			// before any finished); there is nothing to summarize.
			if ctx.Err() != nil {
				break
			}
			continue
		}
		// Resumed cells precede fresh ones; re-sort by seed so the summary
		// folds values in the same order as an uninterrupted sweep.
		sort.Slice(ms, func(i, j int) bool { return ms[i].Seed < ms[j].Seed })
		rr := sim.SummarizeSeedMetrics(ms)

		if *metricsPfx != "" && ctx.Err() == nil {
			// One extra instrumented, single-seed run per point: the
			// Recorder is single-run and must stay out of the concurrent
			// replications above.
			path := fmt.Sprintf("%s_%s_%g.jsonl", *metricsPfx, *param, v)
			if err := writeMetrics(ctx, sc, path); err != nil {
				return fmt.Errorf("%s=%g: metrics: %w", *param, v, err)
			}
		}
		ci := 1.96 * rr.AvgEnergyCost.StdErr()
		fmt.Printf("%12g %14.6g %12.3g %12.1f %12.1f %12.4f %12.2f\n",
			v, rr.AvgEnergyCost.Mean, ci, rr.DeliveredPkts.Mean,
			rr.FinalDataBacklog.Mean, rr.AvgGridWh.Mean, rr.DegradedSlots.Mean)
		rows = append(rows, []float64{
			v, rr.AvgEnergyCost.Mean, ci, rr.DeliveredPkts.Mean,
			rr.FinalDataBacklog.Mean, rr.AvgGridWh.Mean, rr.DegradedSlots.Mean,
		})
		if ctx.Err() != nil {
			break // cancelled mid-point: keep the partial table, stop sweeping
		}
	}
	if *out != "" && len(rows) > 0 {
		if err := export.WriteTSVFile(*out, header, rows); err != nil {
			return err
		}
		fmt.Println("wrote", *out)
	}
	return errors.Join(seedErrs...)
}

// cell is one checkpoint record: the scalar metrics of one completed
// (param, value, seed) replication. The file is JSON Lines, append-only,
// and idempotent to re-runs — duplicate cells overwrite by key on load.
type cell struct {
	Param   string          `json:"param"`
	Value   float64         `json:"value"`
	Metrics sim.SeedMetrics `json:"metrics"`
}

// cellKey identifies a sweep cell. %g round-trips exactly for values that
// were parsed from the same -values string, which is the resume contract.
func cellKey(param string, value float64, seed int64) string {
	return fmt.Sprintf("%s=%g#%d", param, value, seed)
}

// loadCheckpoints reads a -resume file (a server.Journal of cells; a torn
// final line re-runs its cell) into a key→metrics map.
func loadCheckpoints(path string) (map[string]sim.SeedMetrics, error) {
	cells, err := server.LoadJournal[cell](path)
	if err != nil {
		return nil, err
	}
	done := map[string]sim.SeedMetrics{}
	for _, c := range cells {
		done[cellKey(c.Param, c.Value, c.Metrics.Seed)] = c.Metrics
	}
	return done, nil
}

// writeMetrics re-runs one instrumented copy of the scenario and streams
// its per-slot metrics records to path.
func writeMetrics(ctx context.Context, sc greencell.Scenario, path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// The close error carries the final flush on a full disk.
	defer func() { err = errors.Join(err, f.Close()) }()
	rec := sim.NewRecorder(metrics.NewJSONLWriter(f), sim.HeaderFor(sc, "paper"))
	rec.Attach(&sc, false)
	if _, err := sim.RunCtx(ctx, sc); err != nil {
		return err
	}
	return rec.Close()
}

// applier returns a function installing the swept value into a scenario.
func applier(param string) (func(*greencell.Scenario, float64) error, error) {
	switch param {
	case "users":
		return func(sc *greencell.Scenario, v float64) error {
			sc.Topology.NumUsers = int(v)
			return nil
		}, nil
	case "sessions":
		return func(sc *greencell.Scenario, v float64) error {
			sc.NumSessions = int(v)
			return nil
		}, nil
	case "neighbors":
		return func(sc *greencell.Scenario, v float64) error {
			sc.Topology.MaxNeighbors = int(v)
			return nil
		}, nil
	case "v":
		return func(sc *greencell.Scenario, v float64) error {
			sc.V = v
			return nil
		}, nil
	case "lambda":
		return func(sc *greencell.Scenario, v float64) error {
			sc.Lambda = v
			return nil
		}, nil
	default:
		return nil, fmt.Errorf("unknown parameter %q", param)
	}
}
