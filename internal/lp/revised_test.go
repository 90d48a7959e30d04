package lp

import (
	"math"
	"testing"

	"greencell/internal/rng"
)

// solveDense is the dense reference solve: Problem.Solve's validation and
// presolve around the test-only full-tableau engine (tableau_test.go), an
// independent implementation of the same bounded-variable simplex that the
// agreement tests hold the production engine to.
func solveDense(p *Problem) (*Solution, error) {
	if sol, err := p.validateForSolve(); sol != nil || err != nil {
		return sol, err
	}
	ps := presolve(p)
	if ps.infeasible {
		return &Solution{Status: Infeasible}, nil
	}
	if !ps.identity {
		sol, err := solveDense(ps.reduced)
		if err != nil {
			return nil, err
		}
		return ps.expand(p, sol), nil
	}
	t := newTableau(p)
	sol := &Solution{Status: t.solve(), Iterations: t.iters}
	if sol.Status == Optimal {
		sign := 1.0
		if p.sense == Maximize {
			sign = -1.0
		}
		sol.y = t.duals(sign)
		sol.x = t.structuralValues()
		for j, v := range p.vars {
			sol.Objective += v.cost * sol.x[j]
		}
	}
	return sol, nil
}

// TestEnginesAgreeOnKnownProblems re-runs the hand-checked problems from
// the reference suite on the production engine.
func TestEnginesAgreeOnKnownProblems(t *testing.T) {
	build := map[string]func() (*Problem, float64, Status){
		"two-var max": func() (*Problem, float64, Status) {
			p := NewProblem(Maximize)
			x := p.AddVar("x", 0, math.Inf(1), 3)
			y := p.AddVar("y", 0, math.Inf(1), 2)
			p.AddConstraint("c1", LE, 4, Term{x, 1}, Term{y, 1})
			p.AddConstraint("c2", LE, 6, Term{x, 1}, Term{y, 3})
			return p, 12, Optimal
		},
		"equality": func() (*Problem, float64, Status) {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 0, 3, 1)
			y := p.AddVar("y", 0, math.Inf(1), 2)
			p.AddConstraint("bal", EQ, 5, Term{x, 1}, Term{y, 1})
			return p, 7, Optimal
		},
		"bounded": func() (*Problem, float64, Status) {
			p := NewProblem(Maximize)
			x := p.AddVar("x", 0, 1.5, 1)
			y := p.AddVar("y", 0, 2, 1)
			p.AddConstraint("cap", LE, 3, Term{x, 1}, Term{y, 1})
			return p, 3, Optimal
		},
		"negative-lo": func() (*Problem, float64, Status) {
			p := NewProblem(Minimize)
			x := p.AddVar("x", -5, math.Inf(1), 1)
			y := p.AddVar("y", 0, 2, 0)
			p.AddConstraint("bal", EQ, 0, Term{x, 1}, Term{y, 1})
			return p, -2, Optimal
		},
		"infeasible": func() (*Problem, float64, Status) {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 0, 1, 1)
			p.AddConstraint("low", GE, 5, Term{x, 1})
			return p, 0, Infeasible
		},
		"unbounded": func() (*Problem, float64, Status) {
			p := NewProblem(Maximize)
			p.AddVar("x", 0, math.Inf(1), 1)
			return p, 0, Unbounded
		},
		"beale": func() (*Problem, float64, Status) {
			p := NewProblem(Minimize)
			x1 := p.AddVar("x1", 0, math.Inf(1), -0.75)
			x2 := p.AddVar("x2", 0, math.Inf(1), 150)
			x3 := p.AddVar("x3", 0, math.Inf(1), -0.02)
			x4 := p.AddVar("x4", 0, math.Inf(1), 6)
			p.AddConstraint("r1", LE, 0, Term{x1, 0.25}, Term{x2, -60}, Term{x3, -0.04}, Term{x4, 9})
			p.AddConstraint("r2", LE, 0, Term{x1, 0.5}, Term{x2, -90}, Term{x3, -0.02}, Term{x4, 3})
			p.AddConstraint("r3", LE, 1, Term{x3, 1})
			return p, -0.05, Optimal
		},
		"badly-scaled": func() (*Problem, float64, Status) {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 0, math.Inf(1), 1)
			p.AddConstraint("huge", GE, 3e9, Term{x, 1e9})
			return p, 3, Optimal
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			p, wantObj, wantStatus := mk()
			sol, err := p.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != wantStatus {
				t.Fatalf("status = %v, want %v", sol.Status, wantStatus)
			}
			if wantStatus == Optimal && math.Abs(sol.Objective-wantObj) > 1e-6 {
				t.Fatalf("objective = %v, want %v", sol.Objective, wantObj)
			}
		})
	}
}

// agreementCorpus returns the random LPs of the engine agreement test:
// 400 feasible problems with up to 7 variables and 7 rows, both senses.
func agreementCorpus() []*Problem {
	src := rng.New(2718)
	corpus := make([]*Problem, 400)
	for trial := range corpus {
		n := 1 + src.Intn(7)
		m := src.Intn(8)
		sense := Minimize
		if src.Bernoulli(0.5) {
			sense = Maximize
		}
		corpus[trial], _, _ = feasibleRandomLP(src, n, m, sense)
	}
	return corpus
}

// TestEnginesAgreeOnRandomLPs is the cross-validation harness: the engine
// and the dense reference must report the same status and (when optimal) the same objective and
// duals on a large batch of random problems.
func TestEnginesAgreeOnRandomLPs(t *testing.T) {
	for trial, p := range agreementCorpus() {
		a, err := solveDense(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if a.Status != b.Status {
			t.Fatalf("trial %d: status dense=%v revised=%v", trial, a.Status, b.Status)
		}
		if a.Status != Optimal {
			continue
		}
		tol := 1e-6 * (1 + math.Abs(a.Objective))
		if math.Abs(a.Objective-b.Objective) > tol {
			t.Fatalf("trial %d: objective dense=%v revised=%v", trial, a.Objective, b.Objective)
		}
		// The revised solution must be feasible under the same checker.
		checkFeasible(t, p, b)
	}
}

// TestEnginesAgreeOnInfeasibleAndDegenerate stresses the disagreement-prone
// cases: tight equalities, redundant rows, pinned variables.
func TestEnginesAgreeOnInfeasibleAndDegenerate(t *testing.T) {
	src := rng.New(31415)
	for trial := 0; trial < 200; trial++ {
		n := 1 + src.Intn(4)
		p := NewProblem(Minimize)
		ids := make([]VarID, n)
		for j := 0; j < n; j++ {
			lo := src.Uniform(-1, 1)
			hi := lo
			if src.Bernoulli(0.7) {
				hi = lo + src.Uniform(0, 2)
			}
			ids[j] = p.AddVar("x", lo, hi, src.Uniform(-2, 2))
		}
		rows := 1 + src.Intn(4)
		for i := 0; i < rows; i++ {
			terms := make([]Term, n)
			for j := 0; j < n; j++ {
				terms[j] = Term{ids[j], src.Uniform(-1, 1)}
			}
			rel := []Rel{LE, GE, EQ}[src.Intn(3)]
			p.AddConstraint("r", rel, src.Uniform(-1, 1), terms...)
		}
		a, err := solveDense(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if a.Status != b.Status {
			t.Fatalf("trial %d: status dense=%v revised=%v", trial, a.Status, b.Status)
		}
		if a.Status == Optimal {
			tol := 1e-6 * (1 + math.Abs(a.Objective))
			if math.Abs(a.Objective-b.Objective) > tol {
				t.Fatalf("trial %d: objective dense=%v revised=%v", trial, a.Objective, b.Objective)
			}
		}
	}
}

// TestRevisedDuals checks dual recovery on the binding/slack and GE cases.
func TestRevisedDuals(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, math.Inf(1), 3)
	y := p.AddVar("y", 0, math.Inf(1), 2)
	p.AddConstraint("c1", LE, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint("c2", LE, 6, Term{x, 1}, Term{y, 3})
	sol, err := p.Solve()
	requireStatus(t, sol, err, Optimal)
	if got := sol.Dual(0); math.Abs(got-3) > 1e-9 {
		t.Errorf("dual of binding row = %v, want 3", got)
	}
	if got := sol.Dual(1); math.Abs(got) > 1e-9 {
		t.Errorf("dual of slack row = %v, want 0", got)
	}

	q := NewProblem(Minimize)
	z := q.AddVar("z", 0, math.Inf(1), 2)
	q.AddConstraint("req", GE, 5, Term{z, 1})
	sol, err = q.Solve()
	requireStatus(t, sol, err, Optimal)
	if got := sol.Dual(0); math.Abs(got-2) > 1e-9 {
		t.Errorf("GE dual = %v, want 2", got)
	}
}

// TestPricingScalesWithObjective is the regression test for a pricing
// stall: on 1e10-scale costs, a zero-cost slack on a non-binding row
// (dual ≈ 0) used to see its reduced-cost float noise (≈1e-7) pass the
// relative pricing test, because its denominator 1 + |c_j| + |y·A_j| is
// about 1. The slack then swapped in and out of the basis with
// non-degenerate steps until the safety cap. The LP is the 4-column core
// of an S1 relaxation that stalled a rural scenario; the dense reference
// solves it in a handful of pivots and the engine must too.
func TestPricingScalesWithObjective(t *testing.T) {
	build := func() *Problem {
		p := NewProblem(Maximize)
		x0 := p.AddVar("a0", 0, 1, 1e10)
		x1 := p.AddVar("a1", 0, 1, 1e9)
		x2 := p.AddVar("a2", 0, 1, 1e9)
		x3 := p.AddVar("a3", 0, 1, 1e10)
		p.AddConstraint("radio0", LE, 1, Term{x0, 1}, Term{x1, 1})
		p.AddConstraint("radio1", LE, 1, Term{x2, 1}, Term{x3, 1})
		p.AddConstraint("radio2", LE, 1, Term{x0, 1}, Term{x3, 1})
		p.AddConstraint("sinr0", LE, 1, Term{x0, 0.998}, Term{x2, 0.98}, Term{x3, 0.02})
		p.AddConstraint("sinr1", LE, 1, Term{x1, 0.999}, Term{x3, 0.021})
		return p
	}
	ref, err := solveDense(build())
	requireStatus(t, ref, err, Optimal)
	for _, c := range []struct {
		name  string
		solve func(*Problem) (*Solution, error)
	}{
		{"solve", (*Problem).Solve},
		{"warm", func(p *Problem) (*Solution, error) { return NewWarmSolver(p).Solve() }},
	} {
		name := c.name
		sol, err := c.solve(build())
		requireStatus(t, sol, err, Optimal)
		if math.Abs(sol.Objective-ref.Objective) > 1e-9*math.Abs(ref.Objective) {
			t.Errorf("%s: objective %v, dense reference %v", name, sol.Objective, ref.Objective)
		}
		if sol.Iterations > ref.Iterations+4 {
			t.Errorf("%s: %d iterations, dense reference needs %d", name, sol.Iterations, ref.Iterations)
		}
	}
}
