package energymgmt

import (
	"fmt"
	"math"
	"testing"

	"greencell/internal/energy"
	"greencell/internal/lp"
	"greencell/internal/rng"
	"greencell/internal/units"
)

// This file keeps S4's former solver as the agreement reference for the
// merit-order dispatch, the way package lp keeps its dense tableau: the
// relaxed joint LP over the base stations under a total-draw budget T,
// re-solved by dual simplex as an RHS edit for every golden-section probe
// of T, plus one independent LP per non-base-station node. A deficit
// slack priced at autoPenalty keeps every program feasible.

// autoPenalty is the per-Wh deficit price the reference charges: it
// dominates every marginal value an S4 decision can trade against.
func autoPenalty(req *Request) float64 {
	pMax := units.Energy(0)
	maxAbsZ := 0.0
	for _, n := range req.Nodes {
		if n.IsBS && n.GridConnected {
			pMax += n.GridCapWh
		}
		maxAbsZ = math.Max(maxAbsZ, math.Abs(n.Z.Wh()))
	}
	return 10*(maxAbsZ+req.V*req.Cost.MaxDeriv(pMax).PerWh()) + 1e6
}

// nodeVars holds one node's LP variable handles, in the order buildNodesLP
// adds them.
type nodeVars struct{ r, cr, g, cg, d, u lp.VarID }

// buildNodesLP constructs the relaxed joint LP over the given nodes, with
// the total-grid-draw budget row appended last when budgeted.
func buildNodesLP(req *Request, nodes []int, budget, pen float64, budgeted bool) (*lp.Problem, []nodeVars) {
	p := lp.NewProblem(lp.Minimize)
	inf := math.Inf(1)
	vs := make([]nodeVars, len(nodes))
	var budgetTerms []lp.Term
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
	if budgeted {
		p.AddConstraint("budget", lp.LE, budget, budgetTerms...)
	}
	return p, vs
}

// solveOptimal runs one warm solve and insists on an optimum.
func solveOptimal(ws *lp.WarmSolver) (*lp.Solution, error) {
	sol, err := ws.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("reference LP ended %v", sol.Status)
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

// solveLP is the reference S4 solve. It returns the relaxed LP's node
// decisions as the simplex left them, without restoring (9): the
// penalized objective is all the agreement test compares.
func solveLP(req *Request) ([]NodeDecision, error) {
	pen := autoPenalty(req)
	out := make([]NodeDecision, len(req.Nodes))
	var bs []int
	pMax := 0.0
	for i, n := range req.Nodes {
		if n.IsBS {
			bs = append(bs, i)
			if n.GridConnected {
				pMax += n.GridCapWh.Wh()
			}
			continue
		}
		p, vs := buildNodesLP(req, []int{i}, 0, pen, false)
		sol, err := solveOptimal(lp.NewWarmSolver(p))
		if err != nil {
			return nil, err
		}
		out[i] = decisionFrom(sol, vs[0])
	}
	if len(bs) == 0 {
		return out, nil
	}
	p, vs := buildNodesLP(req, bs, pMax, pen, true)
	budgetRow := p.NumConstraints() - 1
	ws := lp.NewWarmSolver(p)
	solveAt := func(T float64) (*lp.Solution, error) {
		p.SetConstraintRHS(budgetRow, T)
		return solveOptimal(ws)
	}
	tStar, err := goldenSection(func(T float64) (float64, error) {
		sol, err := solveAt(T)
		if err != nil {
			return 0, err
		}
		return sol.Objective + req.V*req.Cost.Eval(units.Wh(T)).Value(), nil
	}, 0, pMax)
	if err != nil {
		return nil, err
	}
	sol, err := solveAt(tStar)
	if err != nil {
		return nil, err
	}
	for k, i := range bs {
		out[i] = decisionFrom(sol, vs[k])
	}
	return out, nil
}

// violation sums how far a decision breaks S4's constraints other than (9):
// negative flows, (3), (11), (12), (14) and the demand balance.
func violation(req *Request, nodes []NodeDecision) float64 {
	v := 0.0
	over := func(a, b units.Energy) { v += math.Max(0, (a - b).Wh()) }
	for i, n := range req.Nodes {
		nd := nodes[i]
		for _, f := range []units.Energy{nd.RenewToDemand, nd.RenewToBattery, nd.GridToDemand,
			nd.GridToBattery, nd.DischargeWh, nd.DeficitWh} {
			over(0, f)
		}
		over(nd.RenewToDemand+nd.RenewToBattery, n.RenewableWh)
		over(nd.ChargeWh(), n.ChargeHeadroomWh)
		over(nd.DischargeWh, n.DischargeHeadroomWh)
		over(nd.GridDrawWh(), gridCapOf(n))
		v += math.Abs((nd.GridToDemand + nd.RenewToDemand + nd.DischargeWh + nd.DeficitWh - n.DemandWh).Wh())
	}
	return v
}

// gridCapOf is ω_i·p_i^max.
func gridCapOf(n NodeInput) units.Energy {
	if n.GridConnected {
		return n.GridCapWh
	}
	return 0
}

// paperRequest draws an S4 instance at the paper scenario's scale: two base
// stations and twenty users, Wh-scale flows, V = 1e5 and z_i of order
// −V·γmax. Every fourth instance prices grid linearly instead of with
// the paper's quadratic.
func paperRequest(src *rng.Source, k int) *Request {
	req := &Request{V: 1e5, Cost: energy.PaperCost()}
	if k%4 == 3 {
		req.Cost = energy.Linear{Rate: src.Uniform(100, 5000)}
	}
	for i := 0; i < 22; i++ {
		isBS := i < 2
		req.Nodes = append(req.Nodes, NodeInput{
			Z:                   units.Wh(-1e5 * src.Uniform(0, 1e4)),
			DemandWh:            units.Wh(src.Uniform(0, 0.3)),
			RenewableWh:         units.Wh(src.Uniform(0, 1.5)),
			ChargeHeadroomWh:    units.Wh(src.Uniform(0, 0.4)),
			DischargeHeadroomWh: units.Wh(src.Uniform(0, 0.4)),
			GridConnected:       isBS || src.Bernoulli(0.5),
			GridCapWh:           units.Wh(src.Uniform(0, 2)),
			IsBS:                isBS,
		})
	}
	return req
}

// generator draws the k-th random S4 instance of a named corpus.
type generator struct {
	name string
	draw func(src *rng.Source, k int) *Request
}

// corpus returns the random S4 instance generators the dispatch is checked
// on: small mixed instances (randomRequest), half-base-station populations
// with signed z (randNodes) and paper-scale instances.
func corpus() []generator {
	return []generator{
		{"randomRequest", func(src *rng.Source, _ int) *Request { return randomRequest(src, 1+src.Intn(5)) }},
		{"randNodes", func(src *rng.Source, k int) *Request {
			req := &Request{Nodes: randNodes(src, 2+src.Intn(7)), V: src.Uniform(0, 200), Cost: cheapCost()}
			if k%3 == 2 {
				req.Cost = energy.Linear{Rate: src.Uniform(0, 1)}
			}
			return req
		}},
		{"paper", paperRequest},
	}
}

// TestAgreesWithLPReference checks the dispatch against the LP reference
// on 10k random requests. The reference is feasible only to the simplex's
// tolerance (it can draw a little more renewable than exists), so the
// dispatch's penalized objective may exceed the reference's only by the
// reference's own violation priced at the deficit penalty. Where the
// reference is feasible to 1e-12 the dispatch is never worse by more than
// 1e-12 relative; on the paper-scale corpus the two agree to 1e-12 both
// ways. On the small random corpora the reference's golden section, which
// stops at a 1e-10 interval, can land measurably short of the optimum.
func TestAgreesWithLPReference(t *testing.T) {
	src := rng.New(1600)
	sizes := []int{4000, 4000, 2000}
	exact := 0
	for c, gen := range corpus() {
		for k := 0; k < sizes[c]; k++ {
			req := gen.draw(src, k)
			dec, err := Solve(req)
			if err != nil {
				t.Fatalf("%s %d: %v", gen.name, k, err)
			}
			ref, err := solveLP(req)
			if err != nil {
				t.Fatalf("%s %d: reference: %v", gen.name, k, err)
			}
			pen := autoPenalty(req)
			ours, theirs := objective(req, dec.Nodes, pen), objective(req, ref, pen)
			viol := violation(req, ref)
			scale := math.Max(1, math.Abs(theirs))
			if ours > theirs+viol*pen+1e-9*scale {
				t.Fatalf("%s %d: dispatch objective %v above reference %v (reference violation %g)",
					gen.name, k, ours, theirs, viol)
			}
			if viol > 1e-12 {
				continue
			}
			exact++
			if ours-theirs > 1e-12*scale || (gen.name == "paper" && theirs-ours > 1e-12*scale) {
				t.Fatalf("%s %d: feasible reference %v and dispatch %v disagree (Δ = %g)",
					gen.name, k, theirs, ours, ours-theirs)
			}
		}
	}
	if exact == 0 {
		t.Fatal("no request had a reference feasible to 1e-12: the exact-agreement leg is vacuous")
	}
}
