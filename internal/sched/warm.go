package sched

import "greencell/internal/lp"

// WarmState carries LP warm-start state across Schedule calls on behalf of
// a caller that schedules the same network slot after slot (the
// controller's S1 stage). The LP-backed strategies always solve through an
// lp.WarmSolver: within one Schedule call the sequential-fix rounds reuse a
// single live engine (each fixing round is a bound-only edit, re-solved by
// dual simplex), and across calls the final basis is exported here and
// re-imported next slot when the candidate-pair structure matches
// (lp.Problem.StructureSignature). A Request without a WarmState solves
// against a fresh one, so it starts cold and keeps nothing.
//
// The state holds exported bases only, never a live engine, and survives
// structure changes gracefully — a mismatched basis is discarded and
// counted in SolveStats.BasisInvalidations. Separate slots for the
// SequentialFix and Relaxed strategies keep sched.Instrumented's
// side-by-side comparison (which schedules the same request with both)
// from cross-contaminating their bases.
//
// A WarmState is not safe for concurrent use; use one per controller.
type WarmState struct {
	sf      *lp.Basis
	relaxed *lp.Basis
}

// warmState returns the request's carried state, or a fresh one for this
// call when it carries none.
func (r *Request) warmState() *WarmState {
	if r.Warm != nil {
		return r.Warm
	}
	return &WarmState{}
}

// warmSolve wraps a built LP in a WarmSolver seeded from the given basis
// slot.
func warmSolve(prob *lp.Problem, prior *lp.Basis) *lp.WarmSolver {
	ws := lp.NewWarmSolver(prob)
	ws.ImportBasis(prior)
	return ws
}

// harvest exports the solver's final basis into the given slot and folds
// its counters into stats.
func harvest(ws *lp.WarmSolver, slot **lp.Basis, stats *SolveStats) {
	if b := ws.ExportBasis(); b != nil {
		*slot = b
	}
	w, inv := ws.Stats()
	stats.WarmStarts += w
	stats.BasisInvalidations += inv
}
