package sim

import (
	"math"
	"testing"

	"greencell/internal/core"
	"greencell/internal/sched"
)

// fastScenario shrinks the paper scenario for test speed.
func fastScenario() Scenario {
	sc := Paper()
	sc.Topology.NumUsers = 8
	sc.Topology.MaxNeighbors = 4
	sc.NumSessions = 2
	sc.Slots = 40
	return sc
}

func TestRunPaperScenarioSmall(t *testing.T) {
	sc := fastScenario()
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgEnergyCost < 0 {
		t.Errorf("negative average cost %v", res.AvgEnergyCost)
	}
	if res.B <= 0 {
		t.Errorf("B = %v, want positive", res.B)
	}
	if res.AdmittedPkts <= 0 || res.DeliveredPkts <= 0 {
		t.Errorf("no traffic moved: admitted %v delivered %v", res.AdmittedPkts, res.DeliveredPkts)
	}
	if res.DeliveredPkts > res.AdmittedPkts+1e-6 {
		t.Errorf("delivered %v exceeds admitted %v", res.DeliveredPkts, res.AdmittedPkts)
	}
	if res.DeficitWh > 1e-6 {
		t.Errorf("energy deficit %v with gate enabled", res.DeficitWh)
	}
	for name, trace := range map[string][]float64{
		"cost":    res.CostTrace,
		"penalty": res.PenaltyTrace,
		"qbs":     res.DataBacklogBSTrace,
		"qusers":  res.DataBacklogUsersTrace,
		"bbs":     res.BatteryWhBSTrace,
		"busers":  res.BatteryWhUsersTrace,
		"virtual": res.VirtualBacklogTrace,
		"grid":    res.GridWhTrace,
	} {
		if len(trace) != sc.Slots {
			t.Errorf("trace %q has %d points, want %d", name, len(trace), sc.Slots)
		}
	}
	if res.FinalBatteryWhBS.Wh() != res.BatteryWhBSTrace[sc.Slots-1] {
		t.Error("final battery does not match trace end")
	}
}

func TestRunDeterministic(t *testing.T) {
	sc := fastScenario()
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgEnergyCost != b.AvgEnergyCost || a.DeliveredPkts != b.DeliveredPkts {
		t.Error("same scenario, different results")
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	sc := fastScenario()
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 2
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgEnergyCost == b.AvgEnergyCost && a.DeliveredPkts == b.DeliveredPkts {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

func TestNoTraces(t *testing.T) {
	sc := fastScenario()
	sc.KeepTraces = false
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.CostTrace != nil || res.DataBacklogBSTrace != nil {
		t.Error("traces retained despite KeepTraces=false")
	}
}

func TestScenarioValidation(t *testing.T) {
	sc := fastScenario()
	sc.Slots = 0
	if _, err := Run(sc); err == nil {
		t.Error("zero slots accepted")
	}
	sc = fastScenario()
	sc.NumSessions = 0
	if _, err := Run(sc); err == nil {
		t.Error("zero sessions accepted")
	}
}

func TestArchitectureHelpers(t *testing.T) {
	tests := []struct {
		a         Architecture
		oneHop    bool
		renewable bool
	}{
		{Proposed, false, true},
		{MultiHopNoRenewable, false, false},
		{OneHopRenewable, true, true},
		{OneHopNoRenewable, true, false},
	}
	for _, tt := range tests {
		if tt.a.OneHop() != tt.oneHop || tt.a.Renewable() != tt.renewable {
			t.Errorf("%v: OneHop/Renewable = %v/%v, want %v/%v",
				tt.a, tt.a.OneHop(), tt.a.Renewable(), tt.oneHop, tt.renewable)
		}
		if tt.a.String() == "" {
			t.Errorf("empty String for %v", int(tt.a))
		}
	}
}

func TestBoundsSandwich(t *testing.T) {
	sc := fastScenario()
	b, err := BoundsAt(sc, 5e5)
	if err != nil {
		t.Fatal(err)
	}
	if b.Lower > b.Upper {
		t.Errorf("lower bound %v above upper bound %v", b.Lower, b.Upper)
	}
	if b.V != 5e5 {
		t.Errorf("V = %v", b.V)
	}
}

func TestBoundsTightenWithV(t *testing.T) {
	sc := fastScenario()
	bounds, err := SweepV(sc, []float64{1e5, 1e6})
	if err != nil {
		t.Fatal(err)
	}
	gapSmallV := bounds[0].Upper - bounds[0].Lower
	gapLargeV := bounds[1].Upper - bounds[1].Lower
	if gapLargeV >= gapSmallV {
		t.Errorf("bound gap did not shrink with V: %v -> %v", gapSmallV, gapLargeV)
	}
}

func TestArchitectureOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run comparison")
	}
	sc := Paper()
	sc.Topology.NumUsers = 12
	sc.NumSessions = 3
	sc.Slots = 60
	sc.KeepTraces = false
	costs, err := CompareArchitectures(sc, []float64{1e5})
	if err != nil {
		t.Fatal(err)
	}
	byArch := map[Architecture]float64{}
	for _, c := range costs {
		byArch[c.Architecture] = c.AvgCost.Value()
	}
	// Renewable integration must pay off in both routing modes.
	if byArch[Proposed] >= byArch[MultiHopNoRenewable] {
		t.Errorf("renewable did not help multi-hop: %v vs %v",
			byArch[Proposed], byArch[MultiHopNoRenewable])
	}
	if byArch[OneHopRenewable] >= byArch[OneHopNoRenewable] {
		t.Errorf("renewable did not help one-hop: %v vs %v",
			byArch[OneHopRenewable], byArch[OneHopNoRenewable])
	}
	// The proposed system must beat the fully-traditional architecture by a
	// wide margin (the paper's headline comparison).
	if byArch[Proposed] >= 0.5*byArch[OneHopNoRenewable] {
		t.Errorf("proposed %v not clearly below one-hop w/o renewable %v",
			byArch[Proposed], byArch[OneHopNoRenewable])
	}
}

func TestRelaxedSchedulerRuns(t *testing.T) {
	sc := fastScenario()
	sc.Scheduler = sched.Relaxed{}
	sc.KeepTraces = false
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.AvgPenaltyObjective) {
		t.Error("NaN penalty objective")
	}
}

func TestStableDataBacklogHelper(t *testing.T) {
	r := &Result{offeredPkts: 20} // threshold: 10 pkts/slot of tail growth
	if r.StableDataBacklog() {
		t.Error("nil traces should not be stable")
	}
	r.DataBacklogBSTrace = make([]float64, 100)
	r.DataBacklogUsersTrace = make([]float64, 100)
	for i := range r.DataBacklogBSTrace {
		r.DataBacklogBSTrace[i] = 50   // flat
		r.DataBacklogUsersTrace[i] = 3 // flat
	}
	if !r.StableDataBacklog() {
		t.Error("flat traces should be stable")
	}
	for i := range r.DataBacklogUsersTrace {
		r.DataBacklogUsersTrace[i] = float64(i) * 9.9 // just under half the demand
	}
	if !r.StableDataBacklog() {
		t.Error("users tail slope 9.9 < 20/2 should be stable")
	}
	for i := range r.DataBacklogUsersTrace {
		r.DataBacklogUsersTrace[i] = float64(i) * 10.1 // just over
	}
	if r.StableDataBacklog() {
		t.Error("users tail slope 10.1 > 20/2 should not be stable")
	}
	for i := range r.DataBacklogBSTrace {
		r.DataBacklogBSTrace[i] = float64(i) * 100 // steep growth
		r.DataBacklogUsersTrace[i] = 3
	}
	if r.StableDataBacklog() {
		t.Error("steeply growing trace should not be stable")
	}
	if bs, users := r.TailSlopes(); math.Abs(bs-100) > 1e-9 || math.Abs(users) > 1e-9 {
		t.Errorf("TailSlopes = %v, %v; want 100, 0", bs, users)
	}
}

func TestUplinkScenario(t *testing.T) {
	sc := fastScenario()
	sc.UplinkSessions = 2
	sc.Slots = 20
	sc.TrackDelay = true
	// Uplink sessions follow the downlink ones; each must reach a BS.
	uplinkDelivered := make([]float64, sc.UplinkSessions)
	sc.SlotHook = func(sr *core.SlotResult) {
		for k := range uplinkDelivered {
			uplinkDelivered[k] += sr.DeliveredPkts[sc.NumSessions+k]
		}
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredPkts <= 0 {
		t.Error("mixed-traffic scenario delivered nothing")
	}
	for k, d := range uplinkDelivered {
		if d <= 0 {
			t.Errorf("uplink session %d delivered nothing to any base station", sc.NumSessions+k)
		}
	}
}

func TestBuildErrorPropagates(t *testing.T) {
	sc := fastScenario()
	sc.Topology.BSPositions = nil
	if _, err := Run(sc); err == nil {
		t.Error("broken topology accepted")
	}
	if _, err := BoundsAt(sc, 1e5); err == nil {
		t.Error("BoundsAt should propagate build errors")
	}
	if _, err := CompareArchitectures(sc, []float64{1e5}); err == nil {
		t.Error("CompareArchitectures should propagate build errors")
	}
	if _, err := SweepV(sc, []float64{1e5}); err == nil {
		t.Error("SweepV should propagate build errors")
	}
	if _, err := RunReplicated(sc, Seeds(1, 2)); err == nil {
		t.Error("RunReplicated should propagate build errors")
	}
	if _, err := BoundsReplicated(sc, 1e5, Seeds(1, 2)); err == nil {
		t.Error("BoundsReplicated should propagate build errors")
	}
}

func TestSlotHookObservesEverySlot(t *testing.T) {
	sc := fastScenario()
	sc.Slots = 12
	seen := 0
	sc.SlotHook = func(sr *core.SlotResult) {
		if sr.Slot != seen {
			t.Errorf("hook slot %d, want %d", sr.Slot, seen)
		}
		seen++
	}
	if _, err := Run(sc); err != nil {
		t.Fatal(err)
	}
	if seen != sc.Slots {
		t.Errorf("hook saw %d slots, want %d", seen, sc.Slots)
	}
}
