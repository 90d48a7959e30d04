package energymgmt

import (
	"math"

	"greencell/internal/lp"
	"greencell/internal/units"
)

// WarmState carries S4's LP bases across Solve calls on behalf of a
// controller that solves the same network slot after slot. It holds
// exported lp.Basis snapshots only — one per non-base-station node and one
// for the joint base-station program — never a live engine, so what it
// keeps alive between slots is a few index slices per program. Each Solve
// builds its programs with buildNodesLP, imports the matching snapshot,
// and exports the final basis back:
//
//   - the joint base-station program always carries the total-draw budget
//     row, and the golden-section search runs every budget probe as an
//     RHS-only edit on one lp.WarmSolver, re-solved by dual simplex from
//     the previous probe's basis — the dominant win, since the search
//     makes ~85 probes per slot;
//   - per-node programs change only in z-driven costs, headroom bounds,
//     and right-hand sides between slots, so the imported basis is a good
//     first guess that the solver validates (falling back cold when it no
//     longer fits).
//
// A snapshot whose structure no longer matches (the base-station set
// changed) is discarded and counted as a basis invalidation; toggling grid
// connectivity is an RHS edit and keeps it. A Request without a WarmState
// solves against a fresh one, which still warm-starts the probes within
// that call.
//
// The zero value is ready to use. A WarmState is not safe for concurrent
// use; use one per controller.
type WarmState struct {
	perNode []*lp.Basis // indexed like Request.Nodes; nil for base stations
	bs      *lp.Basis
}

// harvest exports the solver's final basis into slot (keeping the old
// snapshot when there is nothing exportable) and folds the solver's
// counters into the decision.
func harvest(ws *lp.WarmSolver, slot **lp.Basis, dec *Decision) {
	if b := ws.ExportBasis(); b != nil {
		*slot = b
	}
	warm, inv := ws.Stats()
	dec.WarmStarts += warm
	dec.BasisInvalidations += inv
}

// solveInto runs the S4 decomposition: independent LPs for the
// non-base-station nodes, then the golden-section search over the
// base-station draw budget. Every inner solve goes through an
// lp.WarmSolver seeded from the state's snapshots.
func (w *WarmState) solveInto(req *Request, dec *Decision, bs []int, pen float64, pMax units.Energy) error {
	if len(w.perNode) != len(req.Nodes) {
		w.perNode = make([]*lp.Basis, len(req.Nodes))
	}

	// Non-base-station nodes: independent LPs (their grid is outside f).
	one := make([]int, 1)
	for i, n := range req.Nodes {
		if n.IsBS {
			w.perNode[i] = nil
			continue
		}
		one[0] = i
		p, vs := buildNodesLP(req, one, math.Inf(1), pen, false)
		ws := lp.NewWarmSolver(p)
		ws.ImportBasis(w.perNode[i])
		sol, err := mapOutcome(ws.Solve())
		harvest(ws, &w.perNode[i], dec)
		if err != nil {
			return err
		}
		dec.LPSolves++
		dec.LPIterations += sol.Iterations
		dec.Nodes[i] = decisionFrom(sol, vs[0])
	}

	// Base stations: golden-section over the total-draw budget T; the inner
	// LP value is convex non-increasing in T and V·f(T) convex increasing.
	if len(bs) == 0 {
		return nil
	}
	p, vs := buildNodesLP(req, bs, pMax.Wh(), pen, true)
	budgetRow := p.NumConstraints() - 1
	ws := lp.NewWarmSolver(p)
	ws.ImportBasis(w.bs)
	solveAt := func(T float64) (*lp.Solution, error) {
		p.SetConstraintRHS(budgetRow, T)
		sol, err := mapOutcome(ws.Solve())
		if err != nil {
			return nil, err
		}
		dec.LPSolves++
		dec.LPIterations += sol.Iterations
		return sol, nil
	}
	value := func(T float64) (float64, error) {
		sol, err := solveAt(T)
		if err != nil {
			return 0, err
		}
		return sol.Objective + req.V*req.Cost.Eval(units.Wh(T)).Value(), nil
	}
	tStar, err := goldenSection(value, 0, pMax.Wh())
	var sol *lp.Solution
	if err == nil {
		sol, err = solveAt(tStar)
	}
	harvest(ws, &w.bs, dec)
	if err != nil {
		return err
	}
	for k, i := range bs {
		dec.Nodes[i] = decisionFrom(sol, vs[k])
	}
	return nil
}
