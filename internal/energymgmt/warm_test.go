package energymgmt

import (
	"errors"
	"math"
	"testing"

	"greencell/internal/rng"
	"greencell/internal/units"
)

// randNodes draws a random node population; the first half are base
// stations so the joint budgeted program and the independent per-node
// programs are both exercised.
func randNodes(src *rng.Source, n int) []NodeInput {
	nodes := make([]NodeInput, n)
	for i := range nodes {
		nodes[i] = NodeInput{
			Z:                   units.Wh(src.Uniform(-50, 50)),
			DemandWh:            units.Wh(src.Uniform(0, 20)),
			RenewableWh:         units.Wh(src.Uniform(0, 15)),
			ChargeHeadroomWh:    units.Wh(src.Uniform(0, 10)),
			DischargeHeadroomWh: units.Wh(src.Uniform(0, 10)),
			GridConnected:       !src.Bernoulli(0.1),
			GridCapWh:           units.Wh(src.Uniform(5, 30)),
			IsBS:                i < n/2,
		}
	}
	return nodes
}

// TestWarmMatchesColdAcrossSlots drives S4 through a sequence of randomly
// evolving slots twice — once with a fresh state per call, once through a
// WarmState carried across slots — and requires matching objectives,
// matching deficits, and feasible decisions. Both warm-start (the
// golden-section probes are RHS-only edits on one solver in either case);
// only the fresh calls never invalidate, having no basis to import, and
// only the carried state warm-starts a slot's first solves.
func TestWarmMatchesColdAcrossSlots(t *testing.T) {
	src := rng.New(640)
	warm := &WarmState{}
	freshWarmed, carriedWarmed := 0, 0
	for slot := 0; slot < 25; slot++ {
		nodes := randNodes(src, 6)
		freshReq := &Request{Nodes: nodes, V: 100, Cost: cheapCost()}
		fresh, err := Solve(freshReq)
		if err != nil {
			t.Fatal(err)
		}
		warmReq := &Request{Nodes: nodes, V: 100, Cost: cheapCost(), Warm: warm}
		hot, err := Solve(warmReq)
		if err != nil {
			t.Fatal(err)
		}
		checkFeasible(t, warmReq, hot)
		if tol := 1e-5 * (1 + math.Abs(fresh.Objective)); math.Abs(fresh.Objective-hot.Objective) > tol {
			t.Fatalf("slot %d: objective fresh=%v carried=%v", slot, fresh.Objective, hot.Objective)
		}
		if d := (fresh.TotalDeficitWh - hot.TotalDeficitWh).Wh(); math.Abs(d) > 1e-5 {
			t.Fatalf("slot %d: deficit fresh=%v carried=%v", slot, fresh.TotalDeficitWh, hot.TotalDeficitWh)
		}
		if fresh.BasisInvalidations != 0 {
			t.Fatalf("slot %d: fresh state reported %d invalidations", slot, fresh.BasisInvalidations)
		}
		if hot.WarmStarts == 0 {
			t.Fatalf("slot %d: no warm starts despite budget probes", slot)
		}
		freshWarmed += fresh.WarmStarts
		carriedWarmed += hot.WarmStarts
	}
	if carriedWarmed <= freshWarmed {
		t.Fatalf("carried state warm-started %d solves, fresh states %d: no cross-slot reuse",
			carriedWarmed, freshWarmed)
	}
}

// TestWarmSurvivesShapeChange grows the node population and flips
// base-station membership mid-sequence: the carried state must drop the
// bases that no longer fit and keep matching a fresh state.
func TestWarmSurvivesShapeChange(t *testing.T) {
	src := rng.New(641)
	warm := &WarmState{}
	for slot := 0; slot < 12; slot++ {
		n := 4 + slot%3 // node count cycles 4,5,6
		nodes := randNodes(src, n)
		if slot%4 == 3 {
			nodes[0].IsBS = !nodes[0].IsBS
		}
		fresh, err := Solve(&Request{Nodes: nodes, V: 50, Cost: cheapCost()})
		if err != nil {
			t.Fatal(err)
		}
		warmReq := &Request{Nodes: nodes, V: 50, Cost: cheapCost(), Warm: warm}
		hot, err := Solve(warmReq)
		if err != nil {
			t.Fatal(err)
		}
		checkFeasible(t, warmReq, hot)
		if tol := 1e-5 * (1 + math.Abs(fresh.Objective)); math.Abs(fresh.Objective-hot.Objective) > tol {
			t.Fatalf("slot %d (n=%d): objective fresh=%v carried=%v", slot, n, fresh.Objective, hot.Objective)
		}
	}
}

// TestWarmIterationLimitSemantics checks that an exhausted per-solve
// budget surfaces as ErrIterationLimit through a carried state exactly
// like through a fresh one, and that the carried state remains usable
// afterwards.
func TestWarmIterationLimitSemantics(t *testing.T) {
	src := rng.New(642)
	nodes := randNodes(src, 6)
	warm := &WarmState{}

	for _, st := range []*WarmState{nil, warm} {
		limited := &Request{Nodes: nodes, V: 100, Cost: cheapCost(), MaxLPIterations: 1, Warm: st}
		if _, err := Solve(limited); !errors.Is(err, ErrIterationLimit) {
			t.Fatalf("limited solve (carried=%v): got %v, want ErrIterationLimit", st != nil, err)
		}
	}

	free := &Request{Nodes: nodes, V: 100, Cost: cheapCost(), Warm: warm}
	hot, err := Solve(free)
	if err != nil {
		t.Fatalf("warm state unusable after budget error: %v", err)
	}
	checkFeasible(t, free, hot)
	fresh, err := Solve(&Request{Nodes: nodes, V: 100, Cost: cheapCost()})
	if err != nil {
		t.Fatal(err)
	}
	if tol := 1e-5 * (1 + math.Abs(fresh.Objective)); math.Abs(fresh.Objective-hot.Objective) > tol {
		t.Fatalf("objective fresh=%v carried=%v", fresh.Objective, hot.Objective)
	}
}
