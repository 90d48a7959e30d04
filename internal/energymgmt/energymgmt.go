// Package energymgmt solves the paper's per-slot energy-management
// subproblem S4:
//
//	min  Σ_i z_i(t)·(c_i − d_i) + V·f(P)
//	s.t. constraints (9)–(14), with P = Σ_{i∈B} (g_i + c_i^g)
//
// The paper hands S4 to CPLEX as a convex program. Here it is solved
// exactly by structure instead:
//
//   - The no-simultaneous-charge-and-discharge constraint (9) is without
//     loss of generality: any solution with c_i > 0 and d_i > 0 converts to
//     an equal-objective complementary one by lowering both by min(c_i,d_i)
//     and redirecting the freed charging source (grid or renewable) to the
//     demand d_i was serving. Total grid draw, net battery change, and every
//     constraint are preserved. S4 is therefore jointly convex.
//   - With (9) relaxed, each node's decision is linear; the only coupling
//     is the convex f on the total base-station draw P. The solver runs a
//     golden-section search over the draw budget T, evaluating an inner LP
//     (on the in-repo simplex) that optimizes all base stations under
//     Σ(g_i + c_i^g) ≤ T; inner(T) + V·f(T) is convex in T.
//   - Non-base-station nodes do not appear in f (the paper prices only
//     base-station energy) and are solved independently.
//
// A non-negative "deficit" slack with a dominating penalty keeps the
// program feasible when a node's battery+renewable+grid cannot cover its
// demand; deficits are surfaced so the simulator can report them.
package energymgmt

import (
	"errors"
	"fmt"
	"math"

	"greencell/internal/energy"
	"greencell/internal/lp"
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
	// MarginalPriceWh is V·f'(P), the shadow price of one more Wh of grid
	// energy at the optimum — the signal the decomposition prices nodes
	// against.
	MarginalPriceWh units.Price
	// LPSolves / LPIterations report the optimization work behind this
	// decision (per-node LPs plus every golden-section probe), for the
	// metrics layer (docs/METRICS.md).
	LPSolves     int
	LPIterations int
	// WarmStarts / BasisInvalidations count warm-started inner solves and
	// reused bases discarded for a cold rebuild; they feed the
	// lp_warm_starts_total and lp_basis_invalidations_total metrics
	// (docs/METRICS.md).
	WarmStarts         int
	BasisInvalidations int
}

// Request is one slot's energy-management problem.
type Request struct {
	Nodes []NodeInput
	// V is the drift-plus-penalty weight.
	V float64
	// Cost is f.
	Cost energy.CostFunc
	// DeficitPenalty is the per-Wh cost of unserved demand; 0 means an
	// automatic value that dominates every legitimate marginal cost.
	DeficitPenalty float64
	// MaxLPIterations, when positive, caps the total simplex iterations of
	// each inner LP solve (lp.Problem.SetIterationLimit). An exhausted
	// budget surfaces as an error wrapping ErrIterationLimit, on which the
	// controller falls back to the greedy safe-action energy split
	// (docs/ROBUSTNESS.md).
	MaxLPIterations int
	// Warm carries the inner programs' LP bases from one Solve call to the
	// next (WarmState, docs/PERFORMANCE.md). nil means a fresh state for
	// this call only.
	Warm *WarmState
}

// ErrRequest reports an invalid request.
var ErrRequest = errors.New("energymgmt: invalid request")

// Typed solver-outcome sentinels, mirroring package sched: they classify
// how a structurally valid solve failed so the controller's degradation
// path can branch with errors.Is. ErrRequest remains a caller bug and is
// not a degradation trigger.
var (
	// ErrInfeasible reports that an inner LP ended infeasible (or
	// otherwise failed to reach an optimum). The deficit slack makes
	// every S4 program feasible, so organically this indicates numerical
	// trouble.
	ErrInfeasible = errors.New("energymgmt: infeasible")
	// ErrIterationLimit reports that an inner LP exhausted its iteration
	// budget (Request.MaxLPIterations or the engine safety cap).
	ErrIterationLimit = errors.New("energymgmt: iteration limit")
)

// Solve computes the S4 decision.
func Solve(req *Request) (*Decision, error) {
	if req.Cost == nil {
		return nil, fmt.Errorf("%w: nil cost function", ErrRequest)
	}
	if req.V < 0 {
		return nil, fmt.Errorf("%w: negative V", ErrRequest)
	}
	for i, n := range req.Nodes {
		if n.DemandWh < 0 || n.RenewableWh < 0 || n.ChargeHeadroomWh < 0 ||
			n.DischargeHeadroomWh < 0 || n.GridCapWh < 0 {
			return nil, fmt.Errorf("%w: node %d has negative field: %+v", ErrRequest, i, n)
		}
	}

	pMax := units.Energy(0)
	maxAbsZ := 0.0
	for _, n := range req.Nodes {
		if n.IsBS && n.GridConnected {
			pMax += n.GridCapWh
		}
		if a := math.Abs(n.Z.Wh()); a > maxAbsZ {
			maxAbsZ = a
		}
	}
	pen := req.DeficitPenalty
	if pen == 0 {
		pen = 10*(maxAbsZ+req.V*req.Cost.MaxDeriv(pMax).PerWh()) + 1e6
	}

	dec := &Decision{Nodes: make([]NodeDecision, len(req.Nodes))}
	bs := make([]int, 0, len(req.Nodes))
	for i, n := range req.Nodes {
		if n.IsBS {
			bs = append(bs, i)
		}
	}

	warm := req.Warm
	if warm == nil {
		warm = &WarmState{}
	}
	if err := warm.solveInto(req, dec, bs, pen, pMax); err != nil {
		return nil, err
	}

	// Restore complementarity (9) — objective-preserving (see package doc).
	for i := range dec.Nodes {
		enforceComplementarity(&dec.Nodes[i])
	}

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
	dec.MarginalPriceWh = req.Cost.Deriv(p).Scale(req.V)
	return dec, nil
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
	p := units.Energy(0)
	obj := 0.0
	deficit := units.Energy(0)
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
		if n.IsBS {
			p += g
		}
		obj -= n.Z.Wh() * d.Wh()
		deficit += need
	}
	dec.GridTotalWh = p
	dec.EnergyCost = req.Cost.Eval(p)
	dec.Objective = obj + req.V*dec.EnergyCost.Value()
	dec.TotalDeficitWh = deficit
	dec.MarginalPriceWh = req.Cost.Deriv(p).Scale(req.V)
	return dec
}

// nodeVars holds one node's LP variable handles, in the order buildNodesLP
// adds them.
type nodeVars struct{ r, cr, g, cg, d, u lp.VarID }

// buildNodesLP constructs the relaxed joint LP over the given nodes, with
// the total-grid-draw budget row appended last (when budgeted is true and
// budget is finite). It returns the variable handles in nodes order. The
// row layout is fixed — four constraints per node in nodes order (renew,
// chargecap, gridcap, demand), then the budget row — so a basis exported
// for one slot's program fits the next slot's over the same node set.
func buildNodesLP(req *Request, nodes []int, budget, pen float64, budgeted bool) (*lp.Problem, []nodeVars) {
	p := lp.NewProblem(lp.Minimize)
	p.SetIterationLimit(req.MaxLPIterations)
	inf := math.Inf(1)
	vs := make([]nodeVars, len(nodes))

	budgetTerms := make([]lp.Term, 0, 2*len(nodes))
	for k, i := range nodes {
		n := req.Nodes[i]
		gridCap := 0.0
		if n.GridConnected {
			gridCap = n.GridCapWh.Wh()
		}
		z := n.Z.Wh()
		v := nodeVars{
			r:  p.AddVar("r", 0, inf, 0),
			cr: p.AddVar("cr", 0, inf, z),
			g:  p.AddVar("g", 0, inf, 0),
			cg: p.AddVar("cg", 0, inf, z),
			d:  p.AddVar("d", 0, n.DischargeHeadroomWh.Wh(), -z),
			u:  p.AddVar("u", 0, inf, pen),
		}
		vs[k] = v
		// (3) with spill allowed: r + c^r ≤ R.
		p.AddConstraint("renew", lp.LE, n.RenewableWh.Wh(),
			lp.Term{Var: v.r, Coef: 1}, lp.Term{Var: v.cr, Coef: 1})
		// (11): c^r + c^g ≤ charge headroom.
		p.AddConstraint("chargecap", lp.LE, n.ChargeHeadroomWh.Wh(),
			lp.Term{Var: v.cr, Coef: 1}, lp.Term{Var: v.cg, Coef: 1})
		// (14): g + c^g ≤ p^max (zero when disconnected).
		p.AddConstraint("gridcap", lp.LE, gridCap,
			lp.Term{Var: v.g, Coef: 1}, lp.Term{Var: v.cg, Coef: 1})
		// Demand balance: g + r + d + u = E.
		p.AddConstraint("demand", lp.EQ, n.DemandWh.Wh(),
			lp.Term{Var: v.g, Coef: 1}, lp.Term{Var: v.r, Coef: 1},
			lp.Term{Var: v.d, Coef: 1}, lp.Term{Var: v.u, Coef: 1})
		if budgeted {
			budgetTerms = append(budgetTerms,
				lp.Term{Var: v.g, Coef: 1}, lp.Term{Var: v.cg, Coef: 1})
		}
	}
	if budgeted && !math.IsInf(budget, 1) {
		p.AddConstraint("budget", lp.LE, budget, budgetTerms...)
	}
	return p, vs
}

// mapOutcome translates an inner-LP result onto the package's error
// vocabulary: hard solve errors pass through wrapped, non-optimal statuses
// become the typed ErrIterationLimit / ErrInfeasible sentinels the
// controller's degradation path branches on. The solution (when any) is
// returned alongside the error so callers can still report iterations.
func mapOutcome(sol *lp.Solution, err error) (*lp.Solution, error) {
	if err != nil {
		return nil, fmt.Errorf("energymgmt: node LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		if sol.Status == lp.IterationLimit {
			return sol, fmt.Errorf("node LP: %w", ErrIterationLimit)
		}
		return sol, fmt.Errorf(
			"node LP: %w (status %v; deficit slack should make it feasible)", ErrInfeasible, sol.Status)
	}
	return sol, nil
}

// decisionFrom reads one node's decision out of a solved LP.
func decisionFrom(sol *lp.Solution, v nodeVars) NodeDecision {
	return NodeDecision{
		RenewToDemand:  units.Wh(sol.Value(v.r)),
		RenewToBattery: units.Wh(sol.Value(v.cr)),
		GridToDemand:   units.Wh(sol.Value(v.g)),
		GridToBattery:  units.Wh(sol.Value(v.cg)),
		DischargeWh:    units.Wh(sol.Value(v.d)),
		DeficitWh:      units.Wh(sol.Value(v.u)),
	}
}

// enforceComplementarity converts a relaxed decision (possibly charging and
// discharging at once) into the equal-objective complementary form: reduce
// charge and discharge by m = min(c, d), redirecting the freed grid
// charging to grid-to-demand and freed renewable charging to
// renewable-to-demand.
func enforceComplementarity(nd *NodeDecision) {
	m := nd.ChargeWh()
	if nd.DischargeWh < m {
		m = nd.DischargeWh
	}
	if m <= 0 {
		return
	}
	fromGrid := units.Wh(math.Min(nd.GridToBattery.Wh(), m.Wh()))
	nd.GridToBattery -= fromGrid
	nd.GridToDemand += fromGrid
	fromRenew := m - fromGrid
	nd.RenewToBattery -= fromRenew
	nd.RenewToDemand += fromRenew
	nd.DischargeWh -= m
	if nd.DischargeWh < 1e-12 {
		nd.DischargeWh = 0
	}
	if nd.RenewToBattery < 1e-12 {
		nd.RenewToBattery = 0
	}
	if nd.GridToBattery < 1e-12 {
		nd.GridToBattery = 0
	}
}

// goldenSection minimizes a convex function on [lo, hi] to ~1e-10 relative
// interval width and returns the best point (including the endpoints).
func goldenSection(f func(float64) (float64, error), lo, hi float64) (float64, error) {
	if hi <= lo {
		return lo, nil
	}
	const invPhi = 0.6180339887498949
	a, b := lo, hi
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, err := f(x1)
	if err != nil {
		return 0, err
	}
	f2, err := f(x2)
	if err != nil {
		return 0, err
	}
	for it := 0; it < 80 && b-a > 1e-10*(1+hi-lo); it++ {
		if f1 <= f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			if f1, err = f(x1); err != nil {
				return 0, err
			}
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			if f2, err = f(x2); err != nil {
				return 0, err
			}
		}
	}
	// Candidate: interval midpoint and the original endpoints.
	best := (a + b) / 2
	fBest, err := f(best)
	if err != nil {
		return 0, err
	}
	for _, c := range []float64{lo, hi} {
		fc, err := f(c)
		if err != nil {
			return 0, err
		}
		if fc < fBest {
			best, fBest = c, fc
		}
	}
	return best, nil
}
