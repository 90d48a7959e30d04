// Command validate runs the repository's reproduction certificate: the
// seven end-to-end checks of greencell.Reproduce over QuickGrid (9 runs),
// asserting that the implemented system exhibits every property the paper
// proves or reports — the Lemma 1 drift inequality, strong stability
// (Theorem 3), no energy deficit, packet conservation, the Theorem 4/5
// bound sandwich and its tightening in V, and Fig. 2(f)'s architecture
// ordering. It prints one PASS/FAIL line per check and exits non-zero if
// any fails.
//
// Usage:
//
//	validate [-slots N] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"

	"greencell"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "validate:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	var (
		slots = fs.Int("slots", 100, "slots per simulation run")
		seed  = fs.Int64("seed", 1, "scenario seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sc := greencell.PaperScenario()
	sc.Slots = *slots
	sc.Seed = *seed
	rep, err := greencell.Reproduce(sc, greencell.QuickGrid)
	if err != nil {
		return err
	}
	failed := 0
	for _, c := range rep.Checks {
		status := "PASS"
		if !c.OK {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%-4s %-18s %s\n", status, c.Name, c.Info)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d checks failed", failed, len(rep.Checks))
	}
	fmt.Printf("all %d checks passed\n", len(rep.Checks))
	return nil
}
