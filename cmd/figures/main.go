// Command figures regenerates every panel of the paper's Figure 2 at paper
// scale and writes each panel's series as a TSV file, plus an SVG chart of
// it unless -svg=false.
//
// Usage:
//
//	figures [-out DIR] [-slots N] [-seed N] [-quick] [-replications N] [-svg=false]
//
// Outputs:
//
//	fig2a       V, upper bound, lower bound        (bound sandwich vs V)
//	fig2b       t, backlog per V                   (BS data queues)
//	fig2c       t, backlog per V                   (user data queues)
//	fig2d       t, buffer per V                    (BS batteries, Wh)
//	fig2e       t, buffer per V                    (user batteries, Wh)
//	fig2f       architecture, V, time-avg cost     (4-way comparison)
//	figx-delay  V, mean and p95 delay              (extension: O(V) side)
//
// The panels come from one greencell.Reproduce run over PaperGrid
// (QuickGrid with -quick). With -replications N > 1, fig2a.tsv instead
// holds the sandwich averaged over N seeds with 95% confidence intervals,
// and fig2a.svg is not written.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"greencell"
	"greencell/internal/export"
	"greencell/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	var (
		outDir = fs.String("out", "out", "output directory for the TSV files")
		slots  = fs.Int("slots", 100, "slots per run (paper: 100 one-minute slots)")
		seed   = fs.Int64("seed", 1, "scenario seed")
		quick  = fs.Bool("quick", false, "shrink the sweeps for a fast smoke run")
		reps   = fs.Int("replications", 1, "independent seeds per point; >1 adds mean and 95% CI columns to fig2a")
		svg    = fs.Bool("svg", true, "also render each panel as an SVG chart")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	sc := greencell.PaperScenario()
	sc.Slots = *slots
	sc.Seed = *seed
	grid := greencell.PaperGrid
	if *quick {
		grid = greencell.QuickGrid
	}
	rep, err := greencell.Reproduce(sc, grid)
	if err != nil {
		return err
	}
	for _, p := range rep.Panels() {
		if p.Name == "fig2a" && *reps > 1 {
			if err := fig2aReplicated(sc, grid.Bounds, *outDir, *reps); err != nil {
				return fmt.Errorf("fig2a: %w", err)
			}
			continue
		}
		if err := writeTSV(*outDir, p.Name+".tsv", p.Header, p.Rows); err != nil {
			return err
		}
		if *svg {
			if err := writeSVG(filepath.Join(*outDir, p.Name+".svg"), &p); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSVG(path string, p *greencell.Panel) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.SVG(f); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func writeTSV(dir, name string, header []string, rows [][]float64) error {
	path := filepath.Join(dir, name)
	if err := export.WriteTSVFile(path, header, rows); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", path, len(rows))
	return nil
}

// fig2aReplicated: the bound sandwich averaged over independent seeds,
// with 95% confidence intervals — the rigorous version of the paper's
// "expected" cost.
func fig2aReplicated(sc greencell.Scenario, vs []float64, dir string, reps int) error {
	seeds := sim.Seeds(sc.Seed, reps)
	rows := make([][]float64, 0, len(vs))
	for _, v := range vs {
		rb, err := sim.BoundsReplicated(sc, v, seeds)
		if err != nil {
			return err
		}
		upLo, upHi := rb.Upper.CI95()
		loLo, loHi := rb.Lower.CI95()
		rows = append(rows, []float64{v, rb.Upper.Mean, upLo, upHi, rb.Lower.Mean, loLo, loHi})
		fmt.Printf("fig2a  V=%.0e  lower=%s  upper=%s\n", v, rb.Lower, rb.Upper)
	}
	return writeTSV(dir, "fig2a.tsv",
		[]string{"V", "upper_mean", "upper_ci_lo", "upper_ci_hi", "lower_mean", "lower_ci_lo", "lower_ci_hi"}, rows)
}
