package lp

import (
	"math"
	"testing"

	"greencell/internal/rng"
)

func TestPresolveFixedVariable(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 2, 2, 3) // fixed at 2
	y := p.AddVar("y", 0, math.Inf(1), 1)
	p.AddConstraint("c", GE, 10, Term{x, 1}, Term{y, 1}) // y >= 8
	sol, duals := solveDuals(t, p)
	requireStatus(t, sol, nil, Optimal)
	if sol.Value(x) != 2 {
		t.Errorf("fixed variable value %v", sol.Value(x))
	}
	if math.Abs(sol.Value(y)-8) > 1e-9 {
		t.Errorf("y = %v, want 8", sol.Value(y))
	}
	if math.Abs(sol.Objective-(6+8)) > 1e-9 {
		t.Errorf("objective = %v, want 14", sol.Objective)
	}
	// Dual of the (still present) row: 1 unit more demand costs 1 (via y).
	if got := duals[0]; math.Abs(got-1) > 1e-9 {
		t.Errorf("dual = %v, want 1", got)
	}
}

func TestPresolveDropsConsistentRow(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 3, 3, 1)
	y := p.AddVar("y", 0, 10, 1)
	p.AddConstraint("onlyfixed", LE, 5, Term{x, 1}) // 3 <= 5: drop
	p.AddConstraint("real", GE, 4, Term{y, 1})
	sol, duals := solveDuals(t, p)
	requireStatus(t, sol, nil, Optimal)
	if math.Abs(sol.Value(y)-4) > 1e-9 {
		t.Errorf("y = %v", sol.Value(y))
	}
	if duals[0] != 0 {
		t.Errorf("dropped row dual = %v, want 0", duals[0])
	}
	if got := duals[1]; math.Abs(got-1) > 1e-9 {
		t.Errorf("kept row dual = %v, want 1", got)
	}
}

func TestPresolveDetectsInconsistentRow(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 3, 3, 1)
	p.AddConstraint("impossible", GE, 7, Term{x, 1}) // 3 >= 7
	sol, err := p.Solve()
	requireStatus(t, sol, err, Infeasible)
}

func TestPresolveAllFixed(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 1, 1, 2)
	y := p.AddVar("y", 4, 4, 3)
	p.AddConstraint("c", EQ, 5, Term{x, 1}, Term{y, 1})
	sol, err := p.Solve()
	requireStatus(t, sol, err, Optimal)
	if math.Abs(sol.Objective-14) > 1e-9 {
		t.Errorf("objective = %v, want 14", sol.Objective)
	}
}

// TestPresolveEquivalence pins random variables of random LPs and checks
// the solved objective matches a manually-substituted formulation.
func TestPresolveEquivalence(t *testing.T) {
	src := rng.New(606)
	for trial := 0; trial < 200; trial++ {
		n := 2 + src.Intn(5)
		m := 1 + src.Intn(5)
		sense := Minimize
		if src.Bernoulli(0.5) {
			sense = Maximize
		}
		p, x0, ids := feasibleRandomLP(src, n, m, sense)
		// Pin a random subset of variables at their feasible point value —
		// feasibility at x0 is preserved.
		for j, id := range ids {
			if src.Bernoulli(0.4) {
				p.SetVarBounds(id, x0[j], x0[j])
			}
		}
		a, err := solveDense(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if a.Status != Optimal || b.Status != Optimal {
			t.Fatalf("trial %d: statuses %v/%v (x0 remains feasible)", trial, a.Status, b.Status)
		}
		if math.Abs(a.Objective-b.Objective) > 1e-6*(1+math.Abs(a.Objective)) {
			t.Fatalf("trial %d: engines disagree through presolve: %v vs %v",
				trial, a.Objective, b.Objective)
		}
		checkFeasible(t, p, a)
		// Pinned variables keep their values exactly.
		for _, id := range ids {
			lo, hi := p.VarBounds(id)
			if hi-lo <= presolveEps && math.Abs(a.Value(id)-lo) > 1e-12 {
				t.Fatalf("trial %d: pinned var drifted: %v != %v", trial, a.Value(id), lo)
			}
		}
	}
}
