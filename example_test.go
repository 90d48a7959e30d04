package greencell_test

import (
	"fmt"

	"greencell"
)

// Example runs the paper scenario at reduced scale and reports whether the
// Theorem 4/5 bound sandwich holds.
func Example() {
	sc := greencell.PaperScenario()
	sc.Topology.NumUsers = 8
	sc.NumSessions = 2
	sc.Slots = 10
	sc.KeepTraces = false

	b, err := greencell.BoundsAt(sc, 5e5)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("sandwich holds:", b.Lower <= b.Upper)
	// Output: sandwich holds: true
}

// ExampleCompareArchitectures reproduces the Fig. 2(f) ordering at reduced
// scale: renewable integration must beat the grid-only design.
func ExampleCompareArchitectures() {
	sc := greencell.PaperScenario()
	sc.Topology.NumUsers = 8
	sc.NumSessions = 2
	sc.Slots = 10
	sc.KeepTraces = false

	costs, err := greencell.CompareArchitectures(sc, []float64{1e5})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	byArch := map[greencell.Architecture]float64{}
	for _, c := range costs {
		byArch[c.Architecture] = c.AvgCost.Value()
	}
	fmt.Println("renewables pay off:",
		byArch[greencell.Proposed] < byArch[greencell.OneHopNoRenewable])
	// Output: renewables pay off: true
}

// ExampleSweepV reproduces the Fig. 2(a) bound sandwich at reduced scale:
// the Theorem 5 lower bound climbs toward the Theorem 4 upper bound as V
// grows.
func ExampleSweepV() {
	sc := greencell.PaperScenario()
	sc.Topology.NumUsers = 8
	sc.NumSessions = 2
	sc.Slots = 10
	sc.KeepTraces = false

	bounds, err := greencell.SweepV(sc, []float64{1e5, 5e5, 1e6})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, b := range bounds {
		fmt.Printf("V=%.0e  lower %.4g  upper %.4g\n", b.V, b.Lower, b.Upper)
	}
	// Output:
	// V=1e+05  lower 1.281e+05  upper 1.566e+05
	// V=5e+05  lower 1.509e+05  upper 1.566e+05
	// V=1e+06  lower 1.537e+05  upper 1.566e+05
}

// ExampleReproduce runs the whole evaluation at reduced scale over the
// quick grid and prints the certificate.
func ExampleReproduce() {
	sc := greencell.PaperScenario()
	sc.Topology.NumUsers = 8
	sc.NumSessions = 2
	sc.Slots = 10

	rep, err := greencell.Reproduce(sc, greencell.QuickGrid)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, c := range rep.Checks {
		status := "FAIL"
		if c.OK {
			status = "PASS"
		}
		fmt.Println(status, c.Name)
	}
	b := rep.Bounds[len(rep.Bounds)-1]
	fmt.Printf("V=%.0e sandwich [%.4g, %.4g]\n", b.V, b.Lower, b.Upper)
	// Output:
	// PASS lemma1-drift
	// PASS strong-stability
	// PASS no-deficit
	// PASS conservation
	// PASS bound-sandwich
	// PASS bound-tighten
	// PASS architectures
	// V=1e+06 sandwich [1.537e+05, 1.566e+05]
}
