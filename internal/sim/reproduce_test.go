package sim

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"greencell/internal/core"
	"greencell/internal/units"
)

// passingReproduction is a synthetic reproduction that passes all seven
// checks by a clear margin, so each tamper below breaks exactly one.
func passingReproduction() *Reproduction {
	flat := make([]float64, 20)
	return &Reproduction{
		Scenario: Scenario{Slots: 20},
		Grid:     Grid{Bounds: []float64{1e5, 5e5, 1e6}, Traces: []float64{1e5}, Architectures: []float64{1e5, 3e5}},
		Base: &Result{
			AdmittedPkts: 100, DeliveredPkts: 90, FinalDataBacklogBS: 6, FinalDataBacklogUsers: 4,
			DataBacklogBSTrace: flat, DataBacklogUsersTrace: flat, offeredPkts: 10,
		},
		Bounds: []Bounds{{V: 1e5, Lower: 0, Upper: 10}, {V: 5e5, Lower: 5, Upper: 10}, {V: 1e6, Lower: 9, Upper: 10}},
		Costs: []ArchitectureCost{
			{Proposed, 1e5, 1}, {Proposed, 3e5, 1},
			{MultiHopNoRenewable, 1e5, 3}, {MultiHopNoRenewable, 3e5, 3},
			{OneHopRenewable, 1e5, 2}, {OneHopRenewable, 3e5, 2},
			{OneHopNoRenewable, 1e5, 4}, {OneHopNoRenewable, 3e5, 4},
		},
	}
}

func TestCertifyTamper(t *testing.T) {
	names := []string{"lemma1-drift", "strong-stability", "no-deficit", "conservation",
		"bound-sandwich", "bound-tighten", "architectures"}
	var got []string
	for _, c := range passingReproduction().certify() {
		got = append(got, c.Name)
		if !c.OK {
			t.Errorf("untampered %s fails: %s", c.Name, c.Info)
		}
	}
	if !reflect.DeepEqual(got, names) {
		t.Fatalf("checks = %v, want %v", got, names)
	}

	tampers := map[string]func(r *Reproduction){
		"lemma1-drift": func(r *Reproduction) { r.Base.AuditViolations = 1 },
		"strong-stability": func(r *Reproduction) {
			steep := make([]float64, 20)
			for i := range steep {
				steep[i] = 6 * float64(i) // tail slope 6 > half the offered 10
			}
			r.Base.DataBacklogBSTrace = steep
		},
		"no-deficit":   func(r *Reproduction) { r.Base.DeficitWh = units.Wh(0.5) },
		"conservation": func(r *Reproduction) { r.Base.DeliveredPkts = 89 },
		// Lower above upper at an interior V, leaving the end gaps alone.
		"bound-sandwich": func(r *Reproduction) { r.Bounds[1].Lower = 11 },
		// The last gap (15) is wider than the first (10).
		"bound-tighten": func(r *Reproduction) { r.Bounds[2].Lower = -5 },
		// Proposed costs more than every alternative at the second V.
		"architectures": func(r *Reproduction) { r.Costs[1].AvgCost = 5 },
	}
	for _, name := range names {
		r := passingReproduction()
		tampers[name](r)
		for _, c := range r.certify() {
			if c.OK == (c.Name == name) {
				t.Errorf("tampering %s: %s OK = %v (%s)", name, c.Name, c.OK, c.Info)
			}
		}
	}
}

func TestReproduceSharesRuns(t *testing.T) {
	sc := fastScenario()
	sc.Slots = 10
	var slots atomic.Int64
	sc.SlotHook = func(*core.SlotResult) { slots.Add(1) }
	rep, err := Reproduce(sc, QuickGrid)
	if err != nil {
		t.Fatal(err)
	}
	// 3 upper + 3 lower bound runs; the traces and the base run reuse the
	// upper runs and Fig. 2(f)'s proposed bar reuses V=1e5's.
	if got := slots.Load(); got != 9*int64(sc.Slots) {
		t.Errorf("simulated %d slots, want 9 runs × %d", got, sc.Slots)
	}
	sc.SlotHook = nil

	// The observers Reproduce turns on leave every number unchanged.
	bounds, err := SweepV(sc, QuickGrid.Bounds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Bounds, bounds) {
		t.Errorf("bounds %+v, SweepV %+v", rep.Bounds, bounds)
	}
	costs, err := CompareArchitectures(sc, QuickGrid.Architectures)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Costs, costs) {
		t.Errorf("costs %+v, CompareArchitectures %+v", rep.Costs, costs)
	}
	if rep.Base != rep.Traces[0] || len(rep.Traces) != len(QuickGrid.Traces) {
		t.Errorf("base run is not the V=%g trace run", sc.V)
	}
	if math.Abs(rep.Base.offeredPkts-50) > 1e-9 {
		t.Errorf("offered load %v, want 2 sessions × 25 pkts/slot", rep.Base.offeredPkts)
	}
	if len(rep.Panels()) != 7 {
		t.Errorf("%d panels, want fig2a–f and figx-delay", len(rep.Panels()))
	}

	if _, err := Reproduce(sc, Grid{Bounds: []float64{1e5}}); err == nil {
		t.Error("grid without trace or architecture V values accepted")
	}
}
