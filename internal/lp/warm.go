package lp

// WarmSolver re-solves one Problem many times, carrying the simplex basis —
// and the live engine holding its factorized inverse — from each solve into
// the next. Between solves the caller may edit the problem through
// SetVarBounds, SetVarCost, SetConstraintRHS, and SetIterationLimit;
// constraint terms, relations, and dimensions are frozen (they define the
// basis layout — rebuild the solver to change them).
//
// Each Solve classifies what the edits preserved:
//
//   - the previous optimal basis is still primal feasible → phase-2 primal
//     simplex polishes it in a few pivots (often zero);
//   - only dual feasibility survived (RHS/bound edits with costs intact) →
//     dual simplex restores primal feasibility, skipping phase 1 entirely;
//   - neither survived, or the warm attempt ends anywhere other than a
//     clean optimum → a from-scratch solve confirms the outcome, counted
//     as a basis invalidation.
//
// Infeasible and Unbounded verdicts reached from reused state are never
// reported directly: they are re-derived cold first, so a stale basis can
// slow a solve down but cannot change its answer. Iteration budgets
// (Problem.SetIterationLimit) span the warm attempt and any cold fallback
// of one Solve call, preserving the one-shot budget semantics.
//
// The zero WarmSolver is not usable; create one with NewWarmSolver. A
// WarmSolver is not safe for concurrent use.
type WarmSolver struct {
	p        *Problem
	eng      *revisedEngine
	sig      uint64
	imported *Basis

	warmStarts    int
	invalidations int
}

// NewWarmSolver wraps p for repeated warm-started solves. The solver keeps
// a reference to p — callers mutate p between Solve calls rather than
// rebuilding it.
func NewWarmSolver(p *Problem) *WarmSolver {
	return &WarmSolver{p: p, sig: p.StructureSignature()}
}

// Problem returns the wrapped problem, for callers that thread only the
// solver through their plumbing.
func (w *WarmSolver) Problem() *Problem { return w.p }

// ImportBasis seeds the next Solve with a basis exported from another
// solver over a structurally identical problem (same StructureSignature).
// A nil basis is ignored; a snapshot with a mismatched signature is
// discarded and counted as an invalidation. The import takes effect only
// while the solver has no live engine of its own (i.e. before its first
// Solve), which is the cross-slot handoff it exists for.
func (w *WarmSolver) ImportBasis(b *Basis) {
	if b == nil {
		return
	}
	if b.sig != w.sig {
		w.invalidations++
		return
	}
	w.imported = b
}

// ExportBasis snapshots the current basis for a future ImportBasis, or nil
// when there is nothing exportable (no solve yet, or an artificial
// variable is still basic).
func (w *WarmSolver) ExportBasis() *Basis {
	if w.eng == nil {
		return nil
	}
	return w.eng.exportBasis(w.sig)
}

// Stats returns the cumulative counts of warm-started solves and basis
// invalidations (reused state discarded for a cold rebuild). These feed
// the lp_warm_starts_total and lp_basis_invalidations_total metrics
// (docs/METRICS.md).
func (w *WarmSolver) Stats() (warmStarts, invalidations int) {
	return w.warmStarts, w.invalidations
}

// Solve optimizes the wrapped problem, reusing the previous solve's basis
// when possible. Semantics match Problem.Solve: errors only for
// structurally invalid input, outcomes via Solution.Status.
func (w *WarmSolver) Solve() (*Solution, error) {
	if sol, err := w.p.validateForSolve(); sol != nil || err != nil {
		return sol, err
	}
	if len(w.p.cons) == 0 {
		// Row-free problems solve by inspection; nothing to warm-start.
		w.eng = nil
		return w.cold(0)
	}
	if w.eng != nil {
		w.eng.refresh(w.p)
		if sol, ok := w.warmAttempt(w.eng); ok {
			return sol, nil
		}
		spent := w.eng.iters
		w.eng = nil
		w.invalidations++
		return w.cold(spent)
	}
	if b := w.imported; b != nil {
		w.imported = nil
		if e := newRevisedFromBasis(w.p, b); e != nil {
			if sol, ok := w.warmAttempt(e); ok {
				return sol, nil
			}
			w.invalidations++
			return w.cold(e.iters)
		}
		w.invalidations++
	}
	return w.cold(0)
}

// warmAttempt classifies the engine's basis and finishes the solve with
// primal and/or dual simplex. It reports ok=false when the attempt is
// inconclusive — classification failed, the safety cap tripped, or the
// verdict (infeasible/unbounded) needs cold confirmation — in which case
// the caller discards the engine and re-solves from scratch.
func (w *WarmSolver) warmAttempt(e *revisedEngine) (*Solution, bool) {
	copy(e.cvec, e.cost)
	for j := e.artStart; j < e.ncol; j++ {
		e.cvec[j] = 0
	}
	var st Status
	switch {
	case e.primalFeasible():
		if e.dualClean {
			// Only dual-feasibility-preserving edits since the last
			// verified optimum, and the updated basic values are still in
			// bounds: the basis is optimal as it stands. Skipping the
			// pricing pass makes a pure-RHS probe sequence (a search over
			// one row's right-hand side) nearly free.
			e.snap()
			st = Optimal
		} else {
			st = e.iterate()
		}
	case e.dualClean || e.dualFeasible():
		clean := e.dualClean
		st = e.dualIterate()
		if st == Optimal {
			if clean {
				// Dual simplex from an exactly dual-feasible start preserves
				// dual feasibility pivot by pivot, so the primal-feasible
				// end state is optimal without a confirming pricing pass.
				// A basis that merely passed the toleranced dualFeasible
				// scan still gets the primal polish below.
				e.snap()
			} else {
				st = e.iterate()
			}
		}
	default:
		return nil, false
	}
	if st == Optimal {
		w.eng = e
		w.warmStarts++
		return w.p.solution(e, st), true
	}
	if st == IterationLimit && e.limit > 0 && e.iters >= e.limit {
		// The caller's budget, not the safety cap: report it faithfully,
		// keeping the (consistent, mid-solve) basis for the next round.
		w.eng = e
		w.warmStarts++
		return &Solution{Status: IterationLimit, Iterations: e.iters}, true
	}
	return nil, false
}

// cold solves from scratch with the revised engine, charging any
// iterations a failed warm attempt already spent (prior) against the
// problem's budget so a Solve call never exceeds it.
func (w *WarmSolver) cold(prior int) (*Solution, error) {
	e := newRevised(w.p)
	if e.limit > 0 {
		if prior >= e.limit {
			return &Solution{Status: IterationLimit, Iterations: prior}, nil
		}
		e.limit -= prior
	}
	st := e.solve()
	if st == Optimal {
		w.eng = e
	} else {
		w.eng = nil
	}
	sol := w.p.solution(e, st)
	sol.Iterations += prior
	return sol, nil
}
