// Package energymgmt solves the paper's per-slot energy-management
// subproblem S4:
//
//	min  Σ_i z_i(t)·(c_i − d_i) + V·f(P)
//	s.t. constraints (9)–(14), with P = Σ_{i∈B} (g_i + c_i^g)
//
// The paper hands S4 to CPLEX as a convex program. Here it is solved
// exactly by price, as an economic dispatch:
//
//   - The no-simultaneous-charge-and-discharge constraint (9) is without
//     loss of generality: any solution with c_i > 0 and d_i > 0 converts to
//     an equal-objective complementary one by lowering both by min(c_i,d_i)
//     and redirecting the freed charging source (grid or renewable) to the
//     demand d_i was serving. Total grid draw, net battery change, and every
//     constraint are preserved. S4 is therefore jointly convex.
//   - With (9) relaxed, a node's objective depends only on its net battery
//     change c_i − d_i, worth −z_i per Wh. When z_i > 0 the node discharges
//     all it may and takes the least grid that serves the rest of its
//     demand. When z_i < 0 free renewable serves demand and charges the
//     battery first. Either way, what grid remains to choose is one
//     interval per node: a base draw b_i, the grid demand needs once the
//     battery discharges all it may, which is always taken; and a flexible
//     block w_i on top of it (zero when z_i ≥ 0), which spares discharge
//     or charges the battery and is worth −z_i per Wh.
//   - The only coupling is the convex f on the base stations' total draw
//     P. At a grid price μ a block is worth taking exactly when −z_i > μ,
//     so the optimum is a merit order at the clearing price μ* = V·f′(P*):
//     blocks are taken whole in order of −z_i while the marginal cost
//     stays below their worth, the first that does not fit is split where
//     V·f′ meets −z_i, and the rest are not taken. At a tie nothing is
//     taken.
//   - Non-base-station nodes do not appear in f (the paper prices only
//     base-station energy): their grid is unpriced, μ = 0.
//
// A node whose renewable, discharge headroom and grid together cannot
// cover its demand reports the remainder as deficit, so the simulator can
// surface it; no other decision leaves demand unserved.
package energymgmt

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"greencell/internal/energy"
	"greencell/internal/units"
)

// NodeInput is one node's state for S4.
type NodeInput struct {
	// Z is z_i(t) = x_i(t) − V·γmax − d_i^max, the shifted battery level.
	Z units.Energy
	// DemandWh is E_i(t), fixed once the slot's schedule is known (eq. (2)).
	DemandWh units.Energy
	// RenewableWh is R_i(t) expressed as energy for this slot.
	RenewableWh units.Energy
	// ChargeHeadroomWh is min(c_i^max, x_i^max − x_i) — eq. (11).
	ChargeHeadroomWh units.Energy
	// DischargeHeadroomWh is min(d_i^max, x_i) — eq. (12).
	DischargeHeadroomWh units.Energy
	// GridConnected is ω_i(t).
	GridConnected bool
	// GridCapWh is p_i^max — eq. (14).
	GridCapWh units.Energy
	// IsBS marks base stations, whose grid draw is priced by f (Section II-E).
	IsBS bool
}

// NodeDecision is one node's S4 outcome.
type NodeDecision struct {
	// RenewToDemand is r_i; RenewToBattery is c_i^r (eq. (3)).
	RenewToDemand, RenewToBattery units.Energy
	// GridToDemand is g_i; GridToBattery is c_i^g (eqs. (5), (14)).
	GridToDemand, GridToBattery units.Energy
	// DischargeWh is d_i.
	DischargeWh units.Energy
	// DeficitWh is unserved demand (0 in normally-parameterized scenarios).
	DeficitWh units.Energy
}

// ChargeWh returns c_i = c_i^r + c_i^g (grid flows are zero when the node
// is disconnected, so the ω_i gating is already applied).
func (n NodeDecision) ChargeWh() units.Energy { return n.RenewToBattery + n.GridToBattery }

// GridDrawWh returns g_i + c_i^g.
func (n NodeDecision) GridDrawWh() units.Energy { return n.GridToDemand + n.GridToBattery }

// Decision is the S4 outcome for all nodes.
type Decision struct {
	Nodes []NodeDecision
	// GridTotalWh is P(t), the total base-station grid draw.
	GridTotalWh units.Energy
	// EnergyCost is f(P(t)).
	EnergyCost units.Cost
	// Objective is Σ z_i(c_i−d_i) + V·f(P) (without deficit penalties).
	// It mixes Wh² drift terms with cost units, so it deliberately stays a
	// bare float64.
	Objective float64
	// TotalDeficitWh sums unserved demand across nodes.
	TotalDeficitWh units.Energy
	// MarginalPriceWh is the grid price μ* the dispatch cleared at, equal
	// to V·f'(P) up to rounding: every base station whose flexible grid is
	// worth more than it per Wh draws its whole block, every one worth
	// less draws only its base. It is the signal the decomposition prices
	// nodes against.
	MarginalPriceWh units.Price
}

// Request is one slot's energy-management problem.
type Request struct {
	Nodes []NodeInput
	// V is the drift-plus-penalty weight.
	V float64
	// Cost is f.
	Cost energy.CostFunc
}

// ErrRequest reports an invalid request.
var ErrRequest = errors.New("energymgmt: invalid request")

// Typed solver-outcome sentinels, mirroring package sched: they classify
// how an S4 solve failed so the controller's degradation path can branch
// with errors.Is. Solve itself returns neither (the dispatch always
// succeeds on a valid request); they label the injected S4 faults
// (docs/ROBUSTNESS.md). ErrRequest remains a caller bug and is not a
// degradation trigger.
var (
	// ErrInfeasible reports an S4 solve that failed to reach an optimum.
	ErrInfeasible = errors.New("energymgmt: infeasible")
	// ErrIterationLimit reports an S4 solve that exhausted its iteration
	// budget.
	ErrIterationLimit = errors.New("energymgmt: iteration limit")
)

// block is one base station's flexible grid: wh more Wh on top of its base
// draw, each worth value = −z_i.
type block struct {
	node      int
	value, wh float64
}

// Solve computes the S4 decision by merit-order dispatch (package doc).
func Solve(req *Request) (*Decision, error) {
	if err := validate(req); err != nil {
		return nil, err
	}
	dec := &Decision{Nodes: make([]NodeDecision, len(req.Nodes))}
	blocks := make([]block, 0, len(req.Nodes))
	base := 0.0 // Σ b_i over base stations
	for i, n := range req.Nodes {
		nd, room := baseFlows(n)
		switch {
		case room <= 0:
		case !n.IsBS:
			nd.addGrid(room) // unpriced grid: μ = 0 < −z_i
		default:
			blocks = append(blocks, block{node: i, value: -n.Z.Wh(), wh: room})
		}
		dec.Nodes[i] = nd
		if n.IsBS {
			base += nd.GridDrawWh().Wh()
		}
	}
	dec.MarginalPriceWh = dispatch(req, blocks, dec.Nodes, base)
	dec.aggregate(req)
	return dec, nil
}

// validate rejects a request the dispatch cannot price: a missing cost, a
// negative or non-finite V, a non-finite z_i, or a negative or non-finite
// magnitude.
func validate(req *Request) error {
	if req.Cost == nil {
		return fmt.Errorf("%w: nil cost function", ErrRequest)
	}
	if !magnitude(req.V) {
		return fmt.Errorf("%w: V = %v", ErrRequest, req.V)
	}
	for i, n := range req.Nodes {
		if z := n.Z.Wh(); math.IsNaN(z) || math.IsInf(z, 0) ||
			!magnitude(n.DemandWh.Wh()) || !magnitude(n.RenewableWh.Wh()) ||
			!magnitude(n.ChargeHeadroomWh.Wh()) || !magnitude(n.DischargeHeadroomWh.Wh()) ||
			!magnitude(n.GridCapWh.Wh()) {
			return fmt.Errorf("%w: node %d has a negative or non-finite field: %+v", ErrRequest, i, n)
		}
	}
	return nil
}

// magnitude reports whether x is finite and non-negative.
func magnitude(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// baseFlows returns node n's flows at its base draw b_i, the least grid
// that serves its demand, and the room w_i for more grid worth −z_i per
// Wh, grid that spares discharge or charges the battery. Grid is capped
// at ω_i·p_i^max (eq. (14)); demand nothing can serve is deficit.
func baseFlows(n NodeInput) (nd NodeDecision, room float64) {
	e, r := n.DemandWh.Wh(), n.RenewableWh.Wh()
	hc, hd := n.ChargeHeadroomWh.Wh(), n.DischargeHeadroomWh.Wh()
	gridCap := 0.0
	if n.GridConnected {
		gridCap = n.GridCapWh.Wh()
	}
	var ru, d, need float64
	if n.Z > 0 {
		// Discharge is worth z_i > 0 per Wh, so it serves demand before
		// renewable does, and unused renewable spills.
		d = math.Min(hd, e)
		ru = math.Min(r, e-d)
		need = e - d - ru
	} else {
		// Free renewable serves demand first; discharge serves what it can
		// of the rest.
		ru = math.Min(r, e)
		d = math.Min(hd, e-ru)
		need = e - ru - d
	}
	// Grid serves what remains, up to its cap; the rest is deficit.
	g := math.Min(need, gridCap)
	nd = NodeDecision{RenewToDemand: units.Wh(ru), GridToDemand: units.Wh(g),
		DischargeWh: units.Wh(d), DeficitWh: units.Wh(need - g)}
	if n.Z >= 0 {
		return nd, 0 // more grid is worth −z_i ≤ 0, so none is taken
	}
	// Charging is worth −z_i > 0 per Wh: leftover renewable fills the
	// battery first, and grid may fill the headroom it leaves.
	cr := math.Min(r-ru, hc)
	nd.RenewToBattery = units.Wh(cr)
	return nd, math.Min(e-ru+(hc-cr), gridCap) - g
}

// addGrid gives the node delta more grid: it displaces discharge first and
// charges the battery with the rest, so charge and discharge are never
// both non-zero.
func (nd *NodeDecision) addGrid(delta float64) {
	spared := math.Min(delta, nd.DischargeWh.Wh())
	nd.DischargeWh -= units.Wh(spared)
	nd.GridToDemand += units.Wh(spared)
	nd.GridToBattery += units.Wh(delta - spared)
}

// dispatch walks the base stations' flexible blocks in merit order (−z_i
// descending, ties by node index) from the base draw p, gives each node
// the grid its block takes, and returns the clearing price μ*.
func dispatch(req *Request, blocks []block, nodes []NodeDecision, p float64) units.Price {
	slices.SortFunc(blocks, func(a, b block) int {
		if c := cmp.Compare(b.value, a.value); c != 0 {
			return c
		}
		return cmp.Compare(a.node, b.node)
	})
	price := func(q float64) float64 { return req.V * req.Cost.Deriv(units.Wh(q)).PerWh() }
	for _, bl := range blocks {
		if price(p+bl.wh) <= bl.value {
			nodes[bl.node].addGrid(bl.wh)
			p += bl.wh
			continue
		}
		if price(p) < bl.value {
			// Split the block where V·f′ meets −z_i, by bisection on f′.
			lo, hi := 0.0, bl.wh
			for it := 0; it < 100; it++ {
				mid := lo + (hi-lo)/2
				if mid <= lo || mid >= hi {
					break
				}
				if price(p+mid) <= bl.value {
					lo = mid
				} else {
					hi = mid
				}
			}
			nodes[bl.node].addGrid(lo)
			p += lo
		}
		return units.PricePerWh(math.Max(price(p), bl.value))
	}
	return units.PricePerWh(price(p))
}

// aggregate fills the decision's totals from its per-node flows.
func (dec *Decision) aggregate(req *Request) {
	p := units.Energy(0)
	obj := 0.0
	deficit := units.Energy(0)
	for i, n := range req.Nodes {
		nd := dec.Nodes[i]
		if n.IsBS {
			p += nd.GridDrawWh()
		}
		obj += n.Z.Wh() * (nd.ChargeWh() - nd.DischargeWh).Wh()
		deficit += nd.DeficitWh
	}
	dec.GridTotalWh = p
	dec.EnergyCost = req.Cost.Eval(p)
	dec.Objective = obj + req.V*dec.EnergyCost.Value()
	dec.TotalDeficitWh = deficit
}

// SafeDecision returns the documented safe-action energy split used when
// the S4 solve fails or exceeds its budget (docs/ROBUSTNESS.md): per node,
// serve demand greedily from renewable first, then grid (when connected, up
// to the cap), then battery discharge (up to headroom); never charge; count
// any remainder as deficit. Eqs. (3), (11), (12), (14) and the demand
// balance (2) hold by construction — renewable use never exceeds R_i, grid
// draw never exceeds ω_i·p_i^max, discharge never exceeds the headroom, and
// charge is zero — so the invariant checker passes on degraded slots. The
// split is deliberately myopic: it ignores z_i and V·f, trading optimality
// for unconditional feasibility, and never errors.
func SafeDecision(req *Request) *Decision {
	dec := &Decision{Nodes: make([]NodeDecision, len(req.Nodes))}
	for i, n := range req.Nodes {
		need := n.DemandWh
		r := units.Wh(math.Min(n.RenewableWh.Wh(), need.Wh()))
		need -= r
		g := units.Energy(0)
		if n.GridConnected {
			g = units.Wh(math.Min(n.GridCapWh.Wh(), need.Wh()))
		}
		need -= g
		d := units.Wh(math.Min(n.DischargeHeadroomWh.Wh(), need.Wh()))
		need -= d
		dec.Nodes[i] = NodeDecision{
			RenewToDemand: r,
			GridToDemand:  g,
			DischargeWh:   d,
			DeficitWh:     need,
		}
	}
	dec.aggregate(req)
	dec.MarginalPriceWh = req.Cost.Deriv(dec.GridTotalWh).Scale(req.V)
	return dec
}
