// Package lp implements a two-phase, bounded-variable simplex solver for
// linear programs, with warm-started re-solves over a persistent basis.
//
// It exists because the paper's per-slot subproblems (the S1 sequential-
// fix scheduling heuristic, its exact branch-and-bound counterpart, and
// the relaxed lower-bound problem P3̄) all reduce to small/medium LPs that
// the original authors solved with CPLEX; this package is the
// from-scratch, stdlib-only substitute. Solution.Iterations exposes each
// solve's simplex work to the metrics layer (docs/METRICS.md).
//
// Scope and guarantees:
//   - Variables have a finite lower bound and a finite or +Inf upper bound.
//     (Free variables can be modeled by splitting into two non-negatives.)
//   - Constraints are <=, >=, or = rows.
//   - Phase 1 uses artificial variables; Phase 2 optimizes the real
//     objective. Dantzig pricing with an automatic switch to Bland's rule
//     guards against cycling.
//   - Status is one of Optimal, Infeasible, Unbounded, or IterationLimit.
//
// # Solve flow and basis lifecycle
//
// A one-shot Solve runs presolve (fixed-variable substitution, empty-row
// elimination) and then the two-phase primal simplex: phase 1 drives
// artificial variables out of the basis to find a feasible point, phase 2
// optimizes the real objective. One engine implements it: a revised
// simplex holding an explicit basis inverse over sparse columns. The test
// suite cross-validates it against a dense full-tableau reference.
//
// Repeated solves of the same Problem after small edits should go through
// a WarmSolver instead. It keeps the engine (columns, basis, and
// factorized basis inverse) alive between Solve calls and classifies each
// re-solve by what the edit preserved:
//
//   - bounds, costs, and right-hand sides unchanged enough that the old
//     basis is still primal feasible → phase-2 primal simplex finishes in
//     a few pivots (often zero);
//   - RHS or bound changes only (costs intact) → the old basis stays DUAL
//     feasible, and the dual simplex restores primal feasibility without
//     ever re-running phase 1;
//   - anything else → cold fallback, counted as a basis invalidation.
//
// The basis itself can outlive the solver: ExportBasis snapshots the
// final column statuses, ImportBasis seeds a WarmSolver for a different
// Problem instance with the same structure (checked by signature), and
// the engine revalidates the snapshot by refactorizing before trusting
// it. docs/PERFORMANCE.md documents the reuse and invalidation rules.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense selects minimization or maximization of the objective.
type Sense int

// Objective senses.
const (
	Minimize Sense = iota + 1
	Maximize
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota + 1 // <=
	GE                // >=
	EQ                // =
)

// String implements fmt.Stringer.
func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// VarID identifies a variable within a Problem.
type VarID int

// Term is one coefficient of a linear expression.
type Term struct {
	Var  VarID
	Coef float64
}

// Status reports the outcome of Solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
	IterationLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ErrBadProblem reports a structurally invalid problem (e.g. inconsistent
// bounds or an unknown variable in a constraint).
var ErrBadProblem = errors.New("lp: invalid problem")

type variable struct {
	name string
	lo   float64
	hi   float64
	cost float64
}

type constraint struct {
	name  string
	rel   Rel
	rhs   float64
	terms []Term
}

// Problem is a linear program under construction. The zero value is not
// usable; create one with NewProblem.
type Problem struct {
	sense Sense
	vars  []variable
	cons  []constraint
	// maxIters caps the total simplex iterations of a solve (both phases);
	// 0 means the engines' built-in safety cap only. See SetIterationLimit.
	maxIters int

	// muts journals bound/cost/RHS edits since the last warm-engine sync,
	// letting WarmSolver refreshes update only what changed instead of
	// rescanning every column and recomputing the basic values from
	// scratch (docs/PERFORMANCE.md). Structural edits and journal overflow
	// set mutsFull, which sends the next refresh down the full rescan
	// path. The journal is consumed (truncated) by the engine it syncs.
	muts     []mutation
	mutsFull bool

	// slab holds the terms of the rows added since it was last grown;
	// AddConstraint carves each row from its tail, capped at the row's
	// length so appending to one row cannot overwrite the next.
	slab []Term
	// checked counts the leading constraints whose terms and right-hand
	// sides validateForSolve has accepted. Terms never change after
	// AddConstraint and variables are never removed, so a solve re-checks
	// only rows added since; rhsEdited, set by SetConstraintRHS, makes it
	// re-check the accepted rows' right-hand sides too.
	checked   int
	rhsEdited bool
}

// mutation is one journaled edit: which kind of mutable field changed and
// its index (a VarID for bounds/costs, a constraint index for RHS). The
// new value is not recorded — the consumer rereads the problem, which
// makes replaying duplicates idempotent.
type mutation struct {
	kind mutKind
	idx  int32
}

type mutKind uint8

const (
	mutBound mutKind = iota
	mutCost
	mutRHS
)

// maxJournal bounds the edit journal: past this many pending edits a full
// refresh rescan is cheaper than replaying them one by one.
const maxJournal = 512

func (p *Problem) journal(k mutKind, idx int) {
	if p.mutsFull {
		return
	}
	if len(p.muts) >= maxJournal {
		p.mutsFull = true
		p.muts = p.muts[:0]
		return
	}
	p.muts = append(p.muts, mutation{kind: k, idx: int32(idx)})
}

// NewProblem returns an empty problem with the given objective sense.
func NewProblem(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// AddVar adds a variable with bounds [lo, hi] and objective coefficient
// cost, returning its identifier. hi may be math.Inf(1); lo must be finite.
func (p *Problem) AddVar(name string, lo, hi, cost float64) VarID {
	p.vars = append(p.vars, variable{name: name, lo: lo, hi: hi, cost: cost})
	p.mutsFull = true // structural edit: no incremental refresh across it
	p.muts = p.muts[:0]
	return VarID(len(p.vars) - 1)
}

// Sense returns the objective sense the problem was created with.
func (p *Problem) Sense() Sense { return p.sense }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// SetVarBounds replaces the bounds of v. It panics if v is unknown.
func (p *Problem) SetVarBounds(v VarID, lo, hi float64) {
	p.vars[v].lo = lo
	p.vars[v].hi = hi
	p.journal(mutBound, int(v))
}

// SetIterationLimit caps the total simplex iterations (pivots and bound
// flips, both phases) a Solve may spend; a solve that exhausts the budget
// reports Status IterationLimit. n <= 0 restores the default behavior: the
// engines' built-in anti-cycling safety cap only. The limit is a solve
// budget for callers with per-slot deadlines (docs/ROBUSTNESS.md), so it
// survives Clone and presolve reduction.
func (p *Problem) SetIterationLimit(n int) {
	if n < 0 {
		n = 0
	}
	p.maxIters = n
}

// SetVarCost replaces the objective coefficient of v.
func (p *Problem) SetVarCost(v VarID, cost float64) {
	p.vars[v].cost = cost
	p.journal(mutCost, int(v))
}

// SetConstraintRHS replaces the right-hand side of constraint i (in the
// order constraints were added). It panics if i is out of range. Together
// with SetVarBounds this is the mutation vocabulary of warm-started
// re-solves: RHS and bound edits preserve dual feasibility of the previous
// basis, so a WarmSolver can continue with dual simplex instead of
// re-running phase 1.
func (p *Problem) SetConstraintRHS(i int, rhs float64) {
	p.cons[i].rhs = rhs
	p.rhsEdited = true
	p.journal(mutRHS, i)
}

// ConstraintRHS returns the current right-hand side of constraint i.
func (p *Problem) ConstraintRHS(i int) float64 { return p.cons[i].rhs }

// VarBounds returns the current bounds of v.
func (p *Problem) VarBounds(v VarID) (lo, hi float64) {
	return p.vars[v].lo, p.vars[v].hi
}

// AddConstraint adds the row "sum(terms) rel rhs". Duplicate variables in
// terms are summed. Rows with no terms are allowed and checked for
// consistency at solve time. The terms are copied: the caller may reuse
// its slice at once.
func (p *Problem) AddConstraint(name string, rel Rel, rhs float64, terms ...Term) {
	p.mutsFull = true // structural edit: no incremental refresh across it
	p.muts = p.muts[:0]
	if cap(p.slab)-len(p.slab) < len(terms) {
		// A fresh slab, double the last up to maxSlab terms: rows already
		// added keep the old one, so nothing is copied.
		p.slab = make([]Term, 0, max(min(2*cap(p.slab), maxSlab), len(terms), minSlab))
	}
	start := len(p.slab)
	p.slab = append(p.slab, terms...)
	row := p.slab[start:len(p.slab):len(p.slab)]
	p.cons = append(p.cons, constraint{name: name, rel: rel, rhs: rhs, terms: row})
}

// minSlab and maxSlab bound the term slabs AddConstraint allocates (a
// longer row gets a slab of its own length). 2048 terms are 32 KiB, the
// largest size class of the runtime's small-object allocator; doubling
// without a cap left up to half of a paper-scale S1 problem's last slab
// unused.
const (
	minSlab = 64
	maxSlab = 2048
)

// Clone returns a deep copy of p; bound changes on the clone do not affect
// the original. Constraint term slices are shared structurally but never
// mutated by the solver, so cloning copies only the headers; the clone
// starts a slab of its own for the rows it adds.
func (p *Problem) Clone() *Problem {
	q := &Problem{sense: p.sense, maxIters: p.maxIters, checked: p.checked, rhsEdited: p.rhsEdited}
	q.vars = make([]variable, len(p.vars))
	copy(q.vars, p.vars)
	q.cons = make([]constraint, len(p.cons))
	copy(q.cons, p.cons)
	return q
}

// Solution holds the result of Solve.
type Solution struct {
	Status    Status
	Objective float64
	// Iterations is the total number of simplex iterations (pivots and
	// bound flips, phases 1 and 2) the engine spent on this solve — the
	// work measure surfaced by the metrics layer (docs/METRICS.md).
	Iterations int

	x []float64
	y []float64
}

// Value returns the optimal value of v. It returns 0 for non-Optimal
// solutions.
func (s *Solution) Value(v VarID) float64 {
	if s.Status != Optimal || int(v) >= len(s.x) {
		return 0
	}
	return s.x[v]
}

// Dual returns the simplex multiplier of constraint i (in the order
// constraints were added): the sensitivity ∂Objective/∂rhs_i at the
// optimum. For degenerate optima the multiplier is one valid member of the
// dual optimal set. It returns 0 for non-Optimal solutions.
func (s *Solution) Dual(i int) float64 {
	if s.Status != Optimal || i < 0 || i >= len(s.y) {
		return 0
	}
	return s.y[i]
}

// Values returns a copy of the full primal solution vector (structural
// variables only), or nil for non-Optimal solutions.
func (s *Solution) Values() []float64 {
	if s.Status != Optimal {
		return nil
	}
	out := make([]float64, len(s.x))
	copy(out, s.x)
	return out
}

// Solve optimizes the problem from scratch. An error is returned only for
// structurally invalid input; solver outcomes (infeasible, unbounded,
// iteration limit) are reported via Solution.Status.
func (p *Problem) Solve() (*Solution, error) {
	if sol, err := p.validateForSolve(); sol != nil || err != nil {
		return sol, err
	}

	// Presolve: substitute fixed variables and drop rows that become
	// empty. Branch-and-bound (internal/bip) pins more variables at every
	// node, so this shrinks its LPs substantially.
	ps := presolve(p)
	if ps.infeasible {
		return &Solution{Status: Infeasible}, nil
	}
	if !ps.identity {
		sol, err := ps.reduced.Solve()
		if err != nil {
			return nil, err
		}
		return ps.expand(p, sol), nil
	}
	e := newRevised(p)
	return p.solution(e, e.solve()), nil
}

// validateForSolve checks the problem for structural validity. It returns
// a non-nil Solution for trivially infeasible bound boxes, a non-nil error
// for malformed input, and (nil, nil) when the problem may be solved.
// Bounds are checked on every call; a constraint's terms only until they
// are accepted once, and its right-hand side again after SetConstraintRHS.
// The first offending row in index order is reported either way.
func (p *Problem) validateForSolve() (*Solution, error) {
	for i, v := range p.vars {
		if math.IsInf(v.lo, 0) || math.IsNaN(v.lo) || math.IsNaN(v.hi) || math.IsInf(v.hi, -1) {
			return nil, fmt.Errorf("%w: variable %d (%s) has invalid bounds [%v,%v]",
				ErrBadProblem, i, v.name, v.lo, v.hi)
		}
		if v.lo > v.hi {
			// Inconsistent box: trivially infeasible, but catch the
			// clearly-bogus construction cases too.
			if v.lo > v.hi+1e-12 {
				return &Solution{Status: Infeasible}, nil
			}
		}
	}
	from := p.checked
	if p.rhsEdited {
		from = 0
	}
	for i := from; i < len(p.cons); i++ {
		c := &p.cons[i]
		if i >= p.checked {
			for _, t := range c.terms {
				if int(t.Var) < 0 || int(t.Var) >= len(p.vars) {
					return nil, fmt.Errorf("%w: constraint %q references unknown variable %d",
						ErrBadProblem, c.name, t.Var)
				}
				if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
					return nil, fmt.Errorf("%w: constraint %q has non-finite coefficient",
						ErrBadProblem, c.name)
				}
			}
		}
		if math.IsNaN(c.rhs) || math.IsInf(c.rhs, 0) {
			return nil, fmt.Errorf("%w: constraint %q has non-finite rhs", ErrBadProblem, c.name)
		}
	}
	p.checked, p.rhsEdited = len(p.cons), false
	return nil, nil
}

// solution assembles the Solution of an engine that ended with status st
// on p: iterations always, values, duals, and objective when optimal.
func (p *Problem) solution(e *revisedEngine, st Status) *Solution {
	sol := &Solution{Status: st, Iterations: e.iters}
	if st == Optimal {
		sign := 1.0
		if p.sense == Maximize {
			sign = -1.0
		}
		sol.y = e.duals(sign)
		sol.x = e.structuralValues()
		obj := 0.0
		for j, v := range p.vars {
			obj += v.cost * sol.x[j]
		}
		sol.Objective = obj
	}
	return sol
}
