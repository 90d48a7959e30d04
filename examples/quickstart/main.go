// Quickstart: run the paper's scenario once with the proposed controller
// and print the headline metrics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"greencell"
)

func main() {
	sc := greencell.PaperScenario()
	sc.Slots = 100 // paper horizon: 100 one-minute slots
	sc.V = 1e5

	res, err := greencell.Run(sc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("green multi-hop cellular network — proposed controller")
	fmt.Printf("  time-averaged energy cost f(P):  %.4g\n", res.AvgEnergyCost)
	fmt.Printf("  time-averaged grid draw:         %.3f Wh/slot\n", res.AvgGridWh)
	fmt.Printf("  packets admitted / delivered:    %.0f / %.0f\n", res.AdmittedPkts, res.DeliveredPkts)
	fmt.Printf("  final data backlog (BS/users):   %.0f / %.0f packets\n",
		res.FinalDataBacklogBS, res.FinalDataBacklogUsers)
	fmt.Printf("  final battery energy (BS/users): %.1f / %.1f Wh\n",
		res.FinalBatteryWhBS, res.FinalBatteryWhUsers)
	fmt.Printf("  unserved energy:                 %.3g Wh\n", res.DeficitWh)

	if res.StableDataBacklog() {
		fmt.Println("  backlog trajectories: flattening (strongly stable)")
	} else {
		fmt.Println("  backlog trajectories: still in transient at this horizon")
	}
}
