package lp

import (
	"math"
	"slices"
	"testing"

	"greencell/internal/rng"
)

// solveDuals solves p as Problem.Solve does and returns, with an optimal
// solution, the simplex multiplier of every row in the order rows were
// added: the sensitivity ∂Objective/∂rhs_i at the optimum, in the user's
// units (the engine's multipliers mapped back through its row
// equilibration and flips). For degenerate optima it is one member of the
// dual optimal set. A row presolve drops has multiplier 0; a solve that
// is not optimal has none.
func solveDuals(t *testing.T, p *Problem) (*Solution, []float64) {
	t.Helper()
	if sol, err := p.validateForSolve(); err != nil {
		t.Fatal(err)
	} else if sol != nil {
		return sol, nil
	}
	ps := presolve(p)
	if ps.infeasible {
		return &Solution{Status: Infeasible}, nil
	}
	if !ps.identity {
		red, ry := solveDuals(t, ps.reduced)
		sol := ps.expand(p, red)
		if ry == nil {
			return sol, nil
		}
		// presolve keeps, in order, the rows with a term on a free variable.
		y := make([]float64, len(p.cons))
		k := 0
		for i, c := range p.cons {
			if slices.ContainsFunc(c.terms, func(t Term) bool { return ps.varMap[t.Var] >= 0 }) {
				y[i] = ry[k]
				k++
			}
		}
		return sol, y
	}
	e := newRevised(p)
	sol := p.solution(e, e.solve())
	if sol.Status != Optimal {
		return sol, nil
	}
	sign := 1.0
	if p.sense == Maximize {
		sign = -1.0
	}
	e.computeY() // y for the final basis under phase-2 costs
	y := make([]float64, e.m)
	for i := range y {
		y[i] = sign * e.y[i] * e.rowMult[i]
	}
	return sol, y
}

func TestDualsSimple(t *testing.T) {
	// max 3x + 2y s.t. x+y <= 4, x+3y <= 6. Optimum x=4,y=0 with the first
	// constraint binding: its dual is 3 (one more unit of rhs is worth 3),
	// the slack second constraint has dual 0.
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, math.Inf(1), 3)
	y := p.AddVar("y", 0, math.Inf(1), 2)
	p.AddConstraint("c1", LE, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint("c2", LE, 6, Term{x, 1}, Term{y, 3})
	sol, duals := solveDuals(t, p)
	requireStatus(t, sol, nil, Optimal)
	if got := duals[0]; math.Abs(got-3) > 1e-9 {
		t.Errorf("dual of binding row = %v, want 3", got)
	}
	if got := duals[1]; math.Abs(got) > 1e-9 {
		t.Errorf("dual of slack row = %v, want 0", got)
	}
}

func TestDualEqualityRow(t *testing.T) {
	// min x + 2y s.t. x + y = 5, x <= 3: optimum (3,2), objective 7.
	// Raising the rhs by 1 adds one unit of y: dual = 2.
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0, 3, 1)
	y := p.AddVar("y", 0, math.Inf(1), 2)
	p.AddConstraint("bal", EQ, 5, Term{x, 1}, Term{y, 1})
	sol, duals := solveDuals(t, p)
	requireStatus(t, sol, nil, Optimal)
	if got := duals[0]; math.Abs(got-2) > 1e-9 {
		t.Errorf("equality dual = %v, want 2", got)
	}
}

func TestDualGERow(t *testing.T) {
	// min 2x s.t. x >= 5: dual = 2 (cost of one more required unit).
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0, math.Inf(1), 2)
	p.AddConstraint("req", GE, 5, Term{x, 1})
	sol, duals := solveDuals(t, p)
	requireStatus(t, sol, nil, Optimal)
	if got := duals[0]; math.Abs(got-2) > 1e-9 {
		t.Errorf("GE dual = %v, want 2", got)
	}
}

func TestDualScaledRow(t *testing.T) {
	// The equilibrated tiny-coefficient row must report the dual in the
	// USER's units: min x s.t. 1e-9·x >= 3e-9 is x >= 3; ∂obj/∂(3e-9) = 1e9.
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0, math.Inf(1), 1)
	p.AddConstraint("tiny", GE, 3e-9, Term{x, 1e-9})
	sol, duals := solveDuals(t, p)
	requireStatus(t, sol, nil, Optimal)
	if got := duals[0]; math.Abs(got-1e9)/1e9 > 1e-6 {
		t.Errorf("scaled-row dual = %v, want 1e9", got)
	}
}

// TestDualsMatchDualProblem: on random primal/dual pairs (the
// strong-duality construction), the primal's duals must be a feasible dual
// solution attaining the dual optimum: bᵀy = optimal objective.
func TestDualsMatchDualProblem(t *testing.T) {
	src := rng.New(71)
	for trial := 0; trial < 100; trial++ {
		n := 1 + src.Intn(4)
		m := 1 + src.Intn(4)
		A := make([][]float64, m)
		b := make([]float64, m)
		c := make([]float64, n)
		for j := range c {
			c[j] = src.Uniform(0, 3)
		}
		for i := range A {
			A[i] = make([]float64, n)
			for j := range A[i] {
				A[i][j] = src.Uniform(0.1, 2.1)
			}
			b[i] = src.Uniform(-1, 3)
		}
		// primal: min c'x s.t. Ax >= b, x >= 0.
		primal := NewProblem(Minimize)
		xs := make([]VarID, n)
		for j := 0; j < n; j++ {
			xs[j] = primal.AddVar("x", 0, math.Inf(1), c[j])
		}
		for i := 0; i < m; i++ {
			terms := make([]Term, n)
			for j := 0; j < n; j++ {
				terms[j] = Term{xs[j], A[i][j]}
			}
			primal.AddConstraint("row", GE, b[i], terms...)
		}
		sol, ys := solveDuals(t, primal)
		requireStatus(t, sol, nil, Optimal)

		// Dual feasibility: y >= 0 and Aᵀy <= c.
		dualObj := 0.0
		for i := 0; i < m; i++ {
			y := ys[i]
			if y < -1e-7 {
				t.Fatalf("trial %d: negative dual %v on GE row of a minimize", trial, y)
			}
			dualObj += y * b[i]
		}
		for j := 0; j < n; j++ {
			lhs := 0.0
			for i := 0; i < m; i++ {
				lhs += A[i][j] * ys[i]
			}
			if lhs > c[j]+1e-6 {
				t.Fatalf("trial %d: dual infeasible on column %d: %v > %v", trial, j, lhs, c[j])
			}
		}
		// Strong duality through the recovered multipliers.
		if math.Abs(dualObj-sol.Objective) > 1e-5*(1+math.Abs(sol.Objective)) {
			t.Fatalf("trial %d: bᵀy = %v != objective %v", trial, dualObj, sol.Objective)
		}
	}
}

// TestDualsAsSensitivities perturbs each rhs a little and compares the
// realized objective change with the reported dual.
func TestDualsAsSensitivities(t *testing.T) {
	src := rng.New(72)
	checked := 0
	for trial := 0; trial < 60 && checked < 100; trial++ {
		p, _, _ := feasibleRandomLP(src, 1+src.Intn(4), 1+src.Intn(4), Minimize)
		sol, duals := solveDuals(t, p)
		if sol.Status != Optimal {
			continue
		}
		const eps = 1e-5
		for i := 0; i < p.NumConstraints(); i++ {
			q := p.Clone()
			q.cons[i].rhs += eps
			sol2, err := q.Solve()
			if err != nil || sol2.Status != Optimal {
				continue
			}
			pred := duals[i] * eps
			actual := sol2.Objective - sol.Objective
			// Basis changes and degeneracy allow one-sided deviations; the
			// realized change can only be "better than predicted" for a
			// minimize when increasing slack, so use a loose tolerance.
			if math.Abs(actual-pred) > 1e-6+0.5*math.Abs(pred) {
				t.Fatalf("trial %d row %d: predicted Δ=%v, actual Δ=%v (dual %v)",
					trial, i, pred, actual, duals[i])
			}
			checked++
		}
	}
	if checked < 20 {
		t.Skipf("only %d sensitivity checks ran", checked)
	}
}

// TestDualNonOptimal: an infeasible solve ends in phase 1, where the
// multipliers price the artificial objective, not the problem's.
func TestDualNonOptimal(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0, 1, 1)
	p.AddConstraint("impossible", GE, 5, Term{x, 1})
	sol, duals := solveDuals(t, p)
	requireStatus(t, sol, nil, Infeasible)
	if duals != nil {
		t.Errorf("infeasible solve reported multipliers %v", duals)
	}
}
