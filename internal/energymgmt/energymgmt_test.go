package energymgmt

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"greencell/internal/energy"
	"greencell/internal/rng"
	"greencell/internal/units"
)

func cheapCost() energy.CostFunc { return energy.Quadratic{A: 0.01, B: 0.1} }

// checkFeasible validates every per-node constraint of S4 on a decision.
func checkFeasible(t *testing.T, req *Request, dec *Decision) {
	t.Helper()
	const tol = 1e-6
	for i, n := range req.Nodes {
		nd := dec.Nodes[i]
		if nd.RenewToDemand < -tol || nd.RenewToBattery < -tol || nd.GridToDemand < -tol ||
			nd.GridToBattery < -tol || nd.DischargeWh < -tol || nd.DeficitWh < -tol {
			t.Fatalf("node %d: negative flow: %+v", i, nd)
		}
		// (3) with spill: r + c^r <= R.
		if nd.RenewToDemand+nd.RenewToBattery > n.RenewableWh+tol {
			t.Fatalf("node %d: renewable overdrawn: %+v vs R=%v", i, nd, n.RenewableWh)
		}
		// (9): no simultaneous charge and discharge.
		if nd.ChargeWh() > tol && nd.DischargeWh > tol {
			t.Fatalf("node %d: simultaneous charge %v and discharge %v", i, nd.ChargeWh(), nd.DischargeWh)
		}
		// (11)/(12): headrooms.
		if nd.ChargeWh() > n.ChargeHeadroomWh+tol {
			t.Fatalf("node %d: charge %v exceeds headroom %v", i, nd.ChargeWh(), n.ChargeHeadroomWh)
		}
		if nd.DischargeWh > n.DischargeHeadroomWh+tol {
			t.Fatalf("node %d: discharge %v exceeds headroom %v", i, nd.DischargeWh, n.DischargeHeadroomWh)
		}
		// (14): grid cap (and no grid when disconnected).
		gridCap := units.Energy(0)
		if n.GridConnected {
			gridCap = n.GridCapWh
		}
		if nd.GridDrawWh() > gridCap+tol {
			t.Fatalf("node %d: grid draw %v exceeds cap %v", i, nd.GridDrawWh(), gridCap)
		}
		// Demand balance: g + r + d + deficit = E.
		served := nd.GridToDemand + nd.RenewToDemand + nd.DischargeWh + nd.DeficitWh
		if math.Abs((served - n.DemandWh).Wh()) > tol {
			t.Fatalf("node %d: demand balance %v != %v", i, served, n.DemandWh)
		}
	}
}

// objective evaluates the penalized S4 objective of an arbitrary decision.
func objective(req *Request, nodes []NodeDecision, pen float64) float64 {
	obj := 0.0
	p := units.Energy(0)
	for i, n := range req.Nodes {
		nd := nodes[i]
		obj += n.Z.Wh()*(nd.ChargeWh()-nd.DischargeWh).Wh() + pen*nd.DeficitWh.Wh()
		if n.IsBS {
			p += nd.GridDrawWh()
		}
	}
	return obj + req.V*req.Cost.Eval(p).Value()
}

func TestServesDemandFromRenewableFirst(t *testing.T) {
	req := &Request{
		Nodes: []NodeInput{{
			Z: 0, DemandWh: 3, RenewableWh: 10,
			ChargeHeadroomWh: 5, DischargeHeadroomWh: 2,
			GridConnected: true, GridCapWh: 10, IsBS: true,
		}},
		V:    1,
		Cost: cheapCost(),
	}
	dec, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, req, dec)
	nd := dec.Nodes[0]
	if math.Abs(nd.RenewToDemand.Wh()-3) > 1e-6 {
		t.Errorf("renewable to demand = %v, want 3 (free beats grid)", nd.RenewToDemand)
	}
	if nd.GridToDemand > 1e-6 || nd.DeficitWh > 1e-6 {
		t.Errorf("grid/deficit used despite ample renewable: %+v", nd)
	}
}

func TestChargesWhenShiftedLevelNegative(t *testing.T) {
	// Very negative z: charging is worth far more than grid energy costs.
	req := &Request{
		Nodes: []NodeInput{{
			Z: -1e6, DemandWh: 1, RenewableWh: 0,
			ChargeHeadroomWh: 4, DischargeHeadroomWh: 2,
			GridConnected: true, GridCapWh: 100, IsBS: true,
		}},
		V:    1,
		Cost: cheapCost(),
	}
	dec, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, req, dec)
	nd := dec.Nodes[0]
	if math.Abs(nd.GridToBattery.Wh()-4) > 1e-6 {
		t.Errorf("grid to battery = %v, want full headroom 4", nd.GridToBattery)
	}
	if nd.DischargeWh > 1e-9 {
		t.Errorf("discharge = %v, want 0 (complementarity with charging)", nd.DischargeWh)
	}
}

func TestDischargesWhenShiftedLevelPositive(t *testing.T) {
	// Positive z: draining the battery both serves demand and improves the
	// objective; grid should stay untouched.
	req := &Request{
		Nodes: []NodeInput{{
			Z: 5, DemandWh: 2, RenewableWh: 0,
			ChargeHeadroomWh: 4, DischargeHeadroomWh: 10,
			GridConnected: true, GridCapWh: 100, IsBS: true,
		}},
		V:    1,
		Cost: cheapCost(),
	}
	dec, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, req, dec)
	nd := dec.Nodes[0]
	if math.Abs(nd.DischargeWh.Wh()-2) > 1e-6 {
		t.Errorf("discharge = %v, want demand 2", nd.DischargeWh)
	}
	if nd.GridDrawWh() > 1e-9 || nd.ChargeWh() > 1e-9 {
		t.Errorf("grid or charge used despite positive z: %+v", nd)
	}
}

func TestDeficitWhenNothingAvailable(t *testing.T) {
	req := &Request{
		Nodes: []NodeInput{{
			Z: -1, DemandWh: 5, RenewableWh: 1,
			ChargeHeadroomWh: 0, DischargeHeadroomWh: 2,
			GridConnected: false, GridCapWh: 100, IsBS: false,
		}},
		V:    1,
		Cost: cheapCost(),
	}
	dec, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, req, dec)
	nd := dec.Nodes[0]
	// 1 renewable + 2 discharge leaves 2 unserved.
	if math.Abs(nd.DeficitWh.Wh()-2) > 1e-6 {
		t.Errorf("deficit = %v, want 2", nd.DeficitWh)
	}
	if math.Abs(dec.TotalDeficitWh.Wh()-2) > 1e-6 {
		t.Errorf("total deficit = %v, want 2", dec.TotalDeficitWh)
	}
}

func TestUserGridDrawOutsideCost(t *testing.T) {
	// A connected user with huge demand draws grid freely: P stays 0.
	req := &Request{
		Nodes: []NodeInput{{
			Z: 0, DemandWh: 50, RenewableWh: 0,
			ChargeHeadroomWh: 0, DischargeHeadroomWh: 0,
			GridConnected: true, GridCapWh: 100, IsBS: false,
		}},
		V:    1e6,
		Cost: energy.PaperCost(),
	}
	dec, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, req, dec)
	if dec.GridTotalWh != 0 {
		t.Errorf("P = %v, want 0 (users are outside f)", dec.GridTotalWh)
	}
	if math.Abs(dec.Nodes[0].GridToDemand.Wh()-50) > 1e-6 {
		t.Errorf("user grid draw = %v, want 50", dec.Nodes[0].GridToDemand)
	}
	if dec.EnergyCost != 0 {
		t.Errorf("cost = %v, want 0", dec.EnergyCost)
	}
}

func TestQuadraticCostSpreadsAcrossStations(t *testing.T) {
	// Two identical BSs with demand: the convex f makes any split cost the
	// same only through total P; verify the total draw equals total demand
	// (z=0: no charging incentive) and the reported cost matches f(P).
	cost := energy.Quadratic{A: 1}
	req := &Request{
		Nodes: []NodeInput{
			{DemandWh: 3, GridConnected: true, GridCapWh: 10, IsBS: true},
			{DemandWh: 5, GridConnected: true, GridCapWh: 10, IsBS: true},
		},
		V:    2,
		Cost: cost,
	}
	dec, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, req, dec)
	if math.Abs(dec.GridTotalWh.Wh()-8) > 1e-6 {
		t.Errorf("P = %v, want 8", dec.GridTotalWh)
	}
	if math.Abs((dec.EnergyCost - cost.Eval(dec.GridTotalWh)).Value()) > 1e-9 {
		t.Errorf("EnergyCost %v != f(P) %v", dec.EnergyCost, cost.Eval(dec.GridTotalWh))
	}
}

func TestValidation(t *testing.T) {
	if _, err := Solve(&Request{V: 1}); err == nil {
		t.Error("nil cost accepted")
	}
	if _, err := Solve(&Request{V: -1, Cost: cheapCost()}); err == nil {
		t.Error("negative V accepted")
	}
	if _, err := Solve(&Request{
		V: 1, Cost: cheapCost(),
		Nodes: []NodeInput{{DemandWh: -1}},
	}); err == nil {
		t.Error("negative demand accepted")
	}
}

// TestRejectsNonFinite feeds every numeric request field NaN, +Inf and
// −Inf in turn: each must be rejected as ErrRequest before it can reach a
// battery update.
func TestRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(req *Request, x float64)
	}{
		{"V", func(req *Request, x float64) { req.V = x }},
		{"Z", func(req *Request, x float64) { req.Nodes[0].Z = units.Wh(x) }},
		{"DemandWh", func(req *Request, x float64) { req.Nodes[0].DemandWh = units.Wh(x) }},
		{"RenewableWh", func(req *Request, x float64) { req.Nodes[0].RenewableWh = units.Wh(x) }},
		{"ChargeHeadroomWh", func(req *Request, x float64) { req.Nodes[0].ChargeHeadroomWh = units.Wh(x) }},
		{"DischargeHeadroomWh", func(req *Request, x float64) { req.Nodes[0].DischargeHeadroomWh = units.Wh(x) }},
		{"GridCapWh", func(req *Request, x float64) { req.Nodes[0].GridCapWh = units.Wh(x) }},
	}
	for _, f := range fields {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			t.Run(fmt.Sprintf("%s=%v", f.name, x), func(t *testing.T) {
				req := &Request{Nodes: randNodes(rng.New(1), 2), V: 10, Cost: cheapCost()}
				if _, err := Solve(req); err != nil {
					t.Fatalf("finite request rejected: %v", err)
				}
				f.set(req, x)
				if _, err := Solve(req); !errors.Is(err, ErrRequest) {
					t.Fatalf("got %v, want ErrRequest", err)
				}
			})
		}
	}
}

// TestDispatchOptimal checks the dispatch's optimality conditions directly,
// with no LP involved, on every corpus: flows are non-negative, (3), (11),
// (12) and (14) hold to 1e-12, charge and discharge are complementary
// exactly, deficit appears only where nothing could serve the demand, and
// each node's grid sits where its worth −z_i puts it against the clearing
// price μ* (μ = 0 for unpriced non-base-station grid): the whole top draw
// b + w above the price, the base draw b below it, and in between only at
// the price itself.
func TestDispatchOptimal(t *testing.T) {
	const tol = 1e-12
	src := rng.New(1601)
	for _, gen := range corpus() {
		for k := 0; k < 2000; k++ {
			req := gen.draw(src, k)
			dec, err := Solve(req)
			if err != nil {
				t.Fatalf("%s %d: %v", gen.name, k, err)
			}
			fail := func(i int, format string, args ...any) {
				t.Helper()
				t.Fatalf("%s %d node %d: %s\n in  %+v\n out %+v", gen.name, k, i,
					fmt.Sprintf(format, args...), req.Nodes[i], dec.Nodes[i])
			}
			mu := dec.MarginalPriceWh.PerWh()
			if want := req.V * req.Cost.Deriv(dec.GridTotalWh).PerWh(); math.Abs(mu-want) > 1e-9*math.Max(1, want) {
				t.Fatalf("%s %d: μ* = %v, V·f′(P) = %v", gen.name, k, mu, want)
			}
			for i, n := range req.Nodes {
				nd := dec.Nodes[i]
				for _, f := range []units.Energy{nd.RenewToDemand, nd.RenewToBattery, nd.GridToDemand,
					nd.GridToBattery, nd.DischargeWh, nd.DeficitWh} {
					if f < 0 {
						fail(i, "negative flow")
					}
				}
				e, r, g := n.DemandWh.Wh(), n.RenewableWh.Wh(), gridCapOf(n).Wh()
				hc, hd := n.ChargeHeadroomWh.Wh(), n.DischargeHeadroomWh.Wh()
				switch {
				case (nd.RenewToDemand + nd.RenewToBattery).Wh() > r+tol:
					fail(i, "(3) renewable overdrawn")
				case nd.ChargeWh().Wh() > hc+tol:
					fail(i, "(11) charge above headroom")
				case nd.DischargeWh.Wh() > hd+tol:
					fail(i, "(12) discharge above headroom")
				case nd.GridDrawWh().Wh() > g+tol:
					fail(i, "(14) grid above cap")
				case nd.ChargeWh().Wh()*nd.DischargeWh.Wh() != 0:
					fail(i, "(9) charges and discharges")
				case math.Abs((nd.GridToDemand+nd.RenewToDemand+nd.DischargeWh+nd.DeficitWh).Wh()-e) > tol:
					fail(i, "demand unbalanced")
				case math.Abs(nd.DeficitWh.Wh()-math.Max(0, e-r-math.Min(hd, e)-g)) > tol:
					fail(i, "deficit %v where nothing more could serve %v", nd.DeficitWh, math.Max(0, e-r-math.Min(hd, e)-g))
				}
				sLo, sHi := e-math.Min(hd, e), e+hc
				b := math.Min(math.Max(sLo-r, 0), g)
				top := math.Min(math.Max(sHi-r, 0), g)
				price := 0.0
				if n.IsBS {
					price = mu
				}
				worth, draw := -n.Z.Wh(), nd.GridDrawWh().Wh()
				switch {
				case worth > price && math.Abs(draw-top) > tol:
					fail(i, "worth %v above price %v but draws %v, not b + w = %v", worth, price, draw, top)
				case worth < price && math.Abs(draw-b) > tol:
					fail(i, "worth %v below price %v but draws %v, not b = %v", worth, price, draw, b)
				case draw > b+tol && draw < top-tol && math.Abs(worth-price) > tol*math.Max(1, price):
					fail(i, "split block at worth %v, price %v", worth, price)
				}
			}
		}
	}
}

// randomRequest builds a random S4 instance.
func randomRequest(src *rng.Source, nodes int) *Request {
	req := &Request{
		V:    math.Pow(10, src.Uniform(0, 5)),
		Cost: energy.Quadratic{A: src.Uniform(0.01, 1), B: src.Uniform(0, 1)},
	}
	for i := 0; i < nodes; i++ {
		req.Nodes = append(req.Nodes, NodeInput{
			Z:                   units.Wh(src.Uniform(-20, 5) * req.V),
			DemandWh:            units.Wh(src.Uniform(0, 5)),
			RenewableWh:         units.Wh(src.Uniform(0, 4)),
			ChargeHeadroomWh:    units.Wh(src.Uniform(0, 3)),
			DischargeHeadroomWh: units.Wh(src.Uniform(0, 3)),
			GridConnected:       src.Bernoulli(0.8),
			GridCapWh:           units.Wh(src.Uniform(0, 6)),
			IsBS:                src.Bernoulli(0.6),
		})
	}
	return req
}

// randNodes draws a random node population with signed z; the first half
// are base stations so the priced dispatch and the unpriced per-node
// decisions are both exercised.
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

// randomFeasible samples a random feasible decision for req.
func randomFeasible(src *rng.Source, req *Request) []NodeDecision {
	out := make([]NodeDecision, len(req.Nodes))
	for i, n := range req.Nodes {
		var nd NodeDecision
		gridCap := units.Energy(0)
		if n.GridConnected {
			gridCap = n.GridCapWh
		}
		if src.Bernoulli(0.5) { // charge mode
			nd.RenewToBattery = units.Wh(src.Uniform(0, math.Min(n.RenewableWh.Wh(), n.ChargeHeadroomWh.Wh())))
			nd.GridToBattery = units.Wh(src.Uniform(0, math.Min(gridCap.Wh(), (n.ChargeHeadroomWh-nd.RenewToBattery).Wh())))
		} else {
			nd.DischargeWh = units.Wh(src.Uniform(0, math.Min(n.DischargeHeadroomWh.Wh(), n.DemandWh.Wh())))
		}
		// Serve demand: renewable, then grid, then deficit.
		need := n.DemandWh - nd.DischargeWh
		nd.RenewToDemand = units.Wh(math.Min(need.Wh(), (n.RenewableWh - nd.RenewToBattery).Wh()))
		need -= nd.RenewToDemand
		nd.GridToDemand = units.Wh(math.Min(need.Wh(), (gridCap - nd.GridToBattery).Wh()))
		need -= nd.GridToDemand
		nd.DeficitWh = need
		out[i] = nd
	}
	return out
}

// TestDominatesRandomFeasible checks on random instances that the solver's
// decision is at least as good as hundreds of random feasible decisions —
// the optimality spot-check that replaces CPLEX.
func TestDominatesRandomFeasible(t *testing.T) {
	src := rng.New(404)
	for trial := 0; trial < 60; trial++ {
		req := randomRequest(src, 1+src.Intn(4))
		dec, err := Solve(req)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkFeasible(t, req, dec)

		pen := autoPenalty(req)
		ours := objective(req, dec.Nodes, pen)
		for probe := 0; probe < 300; probe++ {
			cand := randomFeasible(src, req)
			if obj := objective(req, cand, pen); obj < ours-1e-6*(1+math.Abs(ours)) {
				t.Fatalf("trial %d probe %d: random feasible %v beats solver %v",
					trial, probe, obj, ours)
			}
		}
	}
}

// TestObjectiveFieldsConsistent verifies the Decision aggregates match the
// per-node rows.
func TestObjectiveFieldsConsistent(t *testing.T) {
	src := rng.New(77)
	for trial := 0; trial < 40; trial++ {
		req := randomRequest(src, 1+src.Intn(5))
		dec, err := Solve(req)
		if err != nil {
			t.Fatal(err)
		}
		p := units.Energy(0)
		deficit := units.Energy(0)
		zsum := 0.0
		for i, n := range req.Nodes {
			nd := dec.Nodes[i]
			if n.IsBS {
				p += nd.GridDrawWh()
			}
			deficit += nd.DeficitWh
			zsum += n.Z.Wh() * (nd.ChargeWh() - nd.DischargeWh).Wh()
		}
		if math.Abs((p - dec.GridTotalWh).Wh()) > 1e-9 {
			t.Fatalf("GridTotalWh %v != recomputed %v", dec.GridTotalWh, p)
		}
		if math.Abs((deficit - dec.TotalDeficitWh).Wh()) > 1e-9 {
			t.Fatalf("TotalDeficitWh %v != recomputed %v", dec.TotalDeficitWh, deficit)
		}
		want := zsum + req.V*req.Cost.Eval(p).Value()
		if math.Abs(want-dec.Objective) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("Objective %v != recomputed %v", dec.Objective, want)
		}
	}
}

func TestMarginalPrice(t *testing.T) {
	cost := energy.Quadratic{A: 1, B: 0.5}
	req := &Request{
		Nodes: []NodeInput{{DemandWh: 3, GridConnected: true, GridCapWh: 10, IsBS: true}},
		V:     2,
		Cost:  cost,
	}
	dec, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	want := cost.Deriv(dec.GridTotalWh).Scale(2)
	if math.Abs((dec.MarginalPriceWh - want).PerWh()) > 1e-9 {
		t.Errorf("MarginalPriceWh = %v, want %v", dec.MarginalPriceWh, want)
	}
}
