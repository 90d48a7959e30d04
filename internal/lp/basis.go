package lp

import "math"

// Basis is an opaque snapshot of a simplex solve's final basis: the
// bound placement of every structural and slack column plus which column
// is basic in each row. A Basis is exported from one WarmSolver
// (WarmSolver.ExportBasis) and imported into another whose Problem shares
// the same structure (WarmSolver.ImportBasis); the import path rebuilds
// and refactorizes the basis matrix under the new problem's coefficients,
// so a snapshot is always a starting guess, never trusted state.
//
// Snapshots are row-scale invariant — they record placements, not values —
// which is what makes them portable across problems whose coefficients
// (and therefore equilibration) differ.
type Basis struct {
	sig      uint64
	status   []colStatus
	rowBasic []int32
}

// FNV-1a-style 64-bit mixing, one multiply per word instead of one per
// byte: signatures are hashed over every constraint term of LPs rebuilt
// each slot, and the byte-wise loop was measurable in slot profiles. The
// values are ephemeral (never persisted), and a collision only means a
// basis import starts from a nonsense guess — the dimension checks and
// refactorization validate it, and the solver falls back cold.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	h ^= v
	h *= fnvPrime64
	h ^= h >> 29
	return h
}

// StructureSignature hashes the problem's immutable structure — objective
// sense, dimensions, constraint relations, and the term sparsity pattern —
// into a 64-bit FNV-1a value. Two problems with equal signatures have
// interchangeable basis layouts, so a Basis exported from one can seed the
// other. Bounds, costs, right-hand sides, and coefficient values are
// deliberately excluded: those are exactly what warm-started re-solves
// change between slots, and a basis remains a usable starting guess across
// them (the import path refactorizes under the new coefficients and the
// solver falls back cold if the guess has gone singular or stale).
func (p *Problem) StructureSignature() uint64 {
	h := uint64(fnvOffset64)
	h = fnvMix(h, uint64(p.sense))
	h = fnvMix(h, uint64(len(p.vars)))
	h = fnvMix(h, uint64(len(p.cons)))
	for _, c := range p.cons {
		h = fnvMix(h, uint64(c.rel))
		h = fnvMix(h, uint64(len(c.terms)))
		for _, t := range c.terms {
			h = fnvMix(h, uint64(t.Var))
		}
	}
	return h
}

// Matches reports whether the snapshot was taken from a problem whose
// structure signature equals p's — the precondition for ImportBasis to
// accept it. Callers with one-solve-per-structure workloads (no fixing
// rounds) use it to decide between a warm-started solve and the cheaper
// presolved one-shot Problem.Solve before committing to either.
func (b *Basis) Matches(p *Problem) bool {
	return b != nil && b.sig == p.StructureSignature()
}

// exportBasis snapshots the engine's basis in the canonical column layout
// (structural variables 0..n−1, then slacks in row order). It returns nil
// while an artificial variable is still basic: such a basis has no meaning
// for an engine built without artificial columns.
func (e *revisedEngine) exportBasis(sig uint64) *Basis {
	for _, b := range e.basis {
		if b >= e.artStart {
			return nil
		}
	}
	st := make([]colStatus, e.artStart)
	copy(st, e.status[:e.artStart])
	rb := make([]int32, e.m)
	for i, b := range e.basis {
		rb[i] = int32(b)
	}
	return &Basis{sig: sig, status: st, rowBasic: rb}
}

// newRevisedFromBasis builds an engine for p with the snapshot's basis
// installed in place of the cold slack/artificial starting basis. No
// artificials and no row flips are introduced: the snapshot's basis matrix
// is factorized directly (one O(m³) Gauss-Jordan — the price of crossing a
// problem-instance boundary, paid once per import). It returns nil when
// the snapshot does not fit p's column layout or its basis matrix is
// singular under p's coefficients; callers fall back to a cold solve.
func newRevisedFromBasis(p *Problem, b *Basis) *revisedEngine {
	e := newEngineShell(p)
	e.ncol = len(e.status)
	e.artStart = e.ncol
	if len(b.status) != e.ncol || len(b.rowBasic) != e.m {
		return nil
	}
	nbasic := 0
	for _, st := range b.status {
		if st == basic {
			nbasic++
		}
	}
	if nbasic != e.m {
		return nil
	}
	seen := make([]bool, e.ncol)
	for i, bj := range b.rowBasic {
		j := int(bj)
		if j < 0 || j >= e.ncol || b.status[j] != basic || seen[j] {
			return nil
		}
		seen[j] = true
		e.basis[i] = j
	}
	for j := 0; j < e.ncol; j++ {
		st := b.status[j]
		if st == atUpper && math.IsInf(e.hi[j], 1) {
			st = atLower
		}
		switch st {
		case basic:
			e.status[j] = basic
		case atUpper:
			e.status[j] = atUpper
			e.xval[j] = e.hi[j]
		default:
			e.status[j] = atLower
			e.xval[j] = e.lo[j]
		}
	}
	e.binv = make([][]float64, e.m) // all implicit until refactorize fills them
	e.cvec = e.cvec[:e.ncol]
	if !e.refactorize() {
		return nil
	}
	copy(e.cvec, e.cost)
	e.syncJournal(p) // built from p's current state: pending edits covered
	return e
}
