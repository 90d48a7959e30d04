package lp

import (
	"math"
	"testing"
)

// ownedProblem is max x + y s.t. x + 2y <= 4 (row "a"), 3x + y <= 6 (row
// "b"), 0 <= x, y <= 10, whose optimum is x = 1.6, y = 1.2. Its rows are
// added from one caller slice that the caller then rewrites.
func ownedProblem() (*Problem, []Term, VarID, VarID) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 10, 1)
	y := p.AddVar("y", 0, 10, 1)
	terms := []Term{{x, 1}, {y, 2}}
	p.AddConstraint("a", LE, 4, terms...)
	terms[0], terms[1] = Term{x, 3}, Term{y, 1}
	p.AddConstraint("b", LE, 6, terms...)
	return p, terms, x, y
}

func requireOptimum(t *testing.T, label string, sol *Solution, err error, x, y VarID) {
	t.Helper()
	requireStatus(t, sol, err, Optimal)
	if math.Abs(sol.Value(x)-1.6) > testEps || math.Abs(sol.Value(y)-1.2) > testEps {
		t.Fatalf("%s: x, y = %v, %v, want 1.6, 1.2", label, sol.Value(x), sol.Value(y))
	}
}

// TestAddConstraintCopiesTerms rewrites the caller's term slice after
// AddConstraint, before and between solves: the problem owns its copy.
func TestAddConstraintCopiesTerms(t *testing.T) {
	p, terms, x, y := ownedProblem()
	terms[0], terms[1] = Term{x, 100}, Term{y, -100}
	sol, err := p.Solve()
	requireOptimum(t, "first solve", sol, err, x, y)
	terms[0], terms[1] = Term{y, 7}, Term{x, 7}
	sol, err = p.Solve()
	requireOptimum(t, "second solve", sol, err, x, y)
	sol, err = NewWarmSolver(p).Solve()
	requireOptimum(t, "warm solve", sol, err, x, y)
}

// TestRowsAreCapped appends to every row the problem holds: each row is
// capped at its own length, so an append reallocates instead of writing
// into the next row.
func TestRowsAreCapped(t *testing.T) {
	p, _, x, y := ownedProblem()
	p.AddConstraint("c", LE, 10, Term{x, 1}, Term{y, 1})
	want := make([][]Term, len(p.cons))
	for i, c := range p.cons {
		want[i] = append([]Term(nil), c.terms...)
	}
	for _, c := range p.cons {
		_ = append(c.terms, Term{x, 99}, Term{y, 99})
	}
	for i, c := range p.cons {
		if len(c.terms) != len(want[i]) {
			t.Fatalf("row %d: %d terms, want %d", i, len(c.terms), len(want[i]))
		}
		for k := range c.terms {
			if c.terms[k] != want[i][k] {
				t.Fatalf("row %d term %d = %+v after an append to another row, want %+v", i, k, c.terms[k], want[i][k])
			}
		}
	}
	sol, err := p.Solve()
	requireOptimum(t, "after appends", sol, err, x, y)
}

// TestCloneAddConstraintKeepsRowsApart adds a different row to a problem
// and to its clone: neither sees the other's row, and each solves as a
// problem built with its own rows from scratch.
func TestCloneAddConstraintKeepsRowsApart(t *testing.T) {
	p, _, x, y := ownedProblem()
	q := p.Clone()
	p.AddConstraint("cap x", LE, 1, Term{x, 1})
	q.AddConstraint("cap y", LE, 1, Term{y, 1})
	if got := p.cons[2].terms; len(got) != 1 || got[0].Var != x {
		t.Fatalf("original's new row = %+v, want x alone", got)
	}
	if got := q.cons[2].terms; len(got) != 1 || got[0].Var != y {
		t.Fatalf("clone's new row = %+v, want y alone", got)
	}
	// x <= 1 leaves y = 1.5 on row "a"; y <= 1 leaves x = 5/3 on row "b".
	for _, c := range []struct {
		label        string
		p            *Problem
		wantX, wantY float64
	}{{"original", p, 1, 1.5}, {"clone", q, 5.0 / 3, 1}} {
		sol, err := c.p.Solve()
		requireStatus(t, sol, err, Optimal)
		if math.Abs(sol.Value(x)-c.wantX) > testEps || math.Abs(sol.Value(y)-c.wantY) > testEps {
			t.Fatalf("%s: x, y = %v, %v, want %v, %v", c.label, sol.Value(x), sol.Value(y), c.wantX, c.wantY)
		}
	}
}

// TestEditsAfterSolveAreValidated breaks a problem that has already solved
// once: a NaN right-hand side or bound is still reported by the next solve,
// on the one-shot and the warm path, with the text a problem built broken
// gets.
func TestEditsAfterSolveAreValidated(t *testing.T) {
	solvers := []struct {
		name  string
		solve func(*Problem) func() (*Solution, error)
	}{
		{"Problem.Solve", func(p *Problem) func() (*Solution, error) { return p.Solve }},
		{"WarmSolver", func(p *Problem) func() (*Solution, error) { return NewWarmSolver(p).Solve }},
	}
	edits := []struct {
		name string
		edit func(p *Problem, x VarID)
	}{
		{"rhs", func(p *Problem, _ VarID) { p.SetConstraintRHS(1, math.NaN()) }},
		{"bound", func(p *Problem, x VarID) { p.SetVarBounds(x, 0, math.NaN()) }},
	}
	for _, s := range solvers {
		for _, e := range edits {
			p, _, x, y := ownedProblem()
			solve := s.solve(p)
			sol, err := solve()
			requireOptimum(t, s.name+" before the edit", sol, err, x, y)
			e.edit(p, x)
			_, err = solve()

			broken, _, _, _ := ownedProblem()
			e.edit(broken, x)
			_, want := broken.Solve()
			if err == nil || want == nil || err.Error() != want.Error() {
				t.Fatalf("%s, NaN %s after a solve: error %v, want %v", s.name, e.name, err, want)
			}
			// The defect stays reported until it is mended.
			if _, err := solve(); err == nil {
				t.Fatalf("%s, NaN %s: second solve after the edit succeeded", s.name, e.name)
			}
		}
	}
}

// TestValidationReportsFirstBadRow breaks an accepted row's right-hand
// side and adds a row with an unknown variable: the solve reports the
// earlier row, as a scan of every row in order would.
func TestValidationReportsFirstBadRow(t *testing.T) {
	p, _, x, y := ownedProblem()
	sol, err := p.Solve()
	requireOptimum(t, "before the edits", sol, err, x, y)
	p.AddConstraint("c", LE, 1, Term{VarID(9), 1})
	p.SetConstraintRHS(0, math.Inf(1))
	_, err = p.Solve()
	if want := `lp: invalid problem: constraint "a" has non-finite rhs`; err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	p.SetConstraintRHS(0, 4)
	_, err = p.Solve()
	if want := `lp: invalid problem: constraint "c" references unknown variable 9`; err == nil || err.Error() != want {
		t.Fatalf("after mending row a: error %v, want %q", err, want)
	}
}
