package lp

import "math"

// Numerical tolerances for the simplex engine.
const (
	priceTol  = 1e-9    // reduced-cost tolerance for optimality
	pivTol    = 1e-9    // smallest acceptable pivot magnitude
	relPivTol = 0x1p-52 // smallest primal pivot relative to its column (ratioTol)
	feasTol   = 1e-7    // phase-1 residual tolerance for feasibility
	boundEps  = 1e-12   // slack when clamping values onto bounds
)

// priceScaleFloor sets the smallest pricing denominator relative to the
// largest active cost magnitude (see priceFloor).
const priceScaleFloor = 1e-6

type colStatus int8

const (
	atLower colStatus = iota
	atUpper
	basic
)

// revisedEngine is the simplex implementation behind every solve: a
// bounded-variable revised simplex with an explicitly maintained basis
// inverse (refactorized periodically) over sparse constraint storage. The
// inverse is held by columns that start implicit (unit columns): a pivot
// multiplies B⁻¹ by an eta matrix that differs from I only in column
// leave, so from the slack basis column c stays e_c until row c becomes a
// pivot row, and a cold solve of k pivots holds at most k explicit
// columns. Pricing scatters the rows of A where the multipliers are
// nonzero (in phase 2, only the explicit columns' rows), so an iteration
// costs the nonzeros it multiplies rather than all of A. The test suite
// cross-validates the engine against a dense full-tableau reference on
// thousands of random LPs.
type revisedEngine struct {
	m    int // rows
	n    int // structural columns
	ncol int // total columns (with slacks and artificials)

	// cols[j] is column j of the setup matrix A in sparse form.
	cols []sparseCol
	// rowStart, rowCol and rowVal hold the final setup matrix (after
	// equilibration and row flips, artificials included) by rows: row r's
	// entries are rowCol/rowVal[rowStart[r]:rowStart[r+1]], columns
	// ascending. Pricing scatters over them (rowProducts).
	rowStart []int
	rowCol   []int
	rowVal   []float64
	// binv is the basis inverse B^{-1} by columns. A nil column is the unit
	// column e_c: columns start implicit and are materialized by
	// materialize on first write, and every reader treats a nil column as
	// e_c. explicit lists the columns that are not nil.
	binv     [][]float64
	explicit []int
	// colSlab is zeroed room for columns yet to be materialized.
	colSlab []float64
	// cost is the phase-2 objective (sense-adjusted to minimize).
	cost []float64

	lo, hi []float64
	status []colStatus
	xval   []float64
	basis  []int
	xB     []float64

	artStart int

	// iters counts simplex iterations (pivots + bound flips) across both
	// phases, reported on Solution.Iterations.
	iters int
	// limit, when positive, caps iters across both phases (the caller's
	// solve budget from Problem.SetIterationLimit).
	limit int

	// rowMult maps final setup rows back to the user's rows for duals.
	rowMult []float64
	// bvec is the setup right-hand side (post equilibration and flips),
	// kept for refactorization.
	bvec []float64

	// stalePivots counts basis changes since the last refactorization,
	// across solves: a WarmSolver re-solve inherits the drift of the pivots
	// before it and refactorizes when the count crosses the cadence.
	stalePivots int

	// journalSynced records that this engine's bounds/costs/rhs mirror the
	// problem exactly and the problem's edit journal covers everything that
	// changed since — the precondition for an incremental refresh.
	journalSynced bool
	// staleRefreshes counts incremental xB updates since the basic values
	// were last recomputed exactly; recomputeXB resets it.
	staleRefreshes int
	// dualClean records that the basis is dual feasible under the current
	// phase-2 costs by construction (it ended an Optimal solve, or only
	// dual-feasibility-preserving edits happened since), so warm
	// classification can skip the O(m·n) reduced-cost scan.
	dualClean bool

	// Scratch buffers reused across iterations.
	y         []float64   // simplex multipliers
	yA        []float64   // A_j·y for every column j
	rho       []float64   // a gathered row of B^{-1} (dual ratio test)
	rhoA      []float64   // A_j·rho for every column j
	costRows  []int       // rows whose basic variable has a nonzero cost
	dir       []float64   // B^{-1} A_q
	pivNZ     []int       // nonzero entries of dir, or of a Gauss-Jordan pivot row
	cvec      []float64   // active-phase cost vector
	resid     []float64   // rhs residual for recomputeXB
	refacWork [][]float64 // m×2m Gauss-Jordan workspace for refactorize
}

type sparseCol struct {
	idx []int
	val []float64
}

func (c *sparseCol) add(row int, v float64) {
	if v == 0 {
		return
	}
	c.idx = append(c.idx, row)
	c.val = append(c.val, v)
}

// newEngineShell builds the structural and slack columns of p in sparse,
// row-equilibrated form — the part of engine setup shared by the cold
// constructor newRevised (which adds row flips and artificials on top) and
// the basis-import constructor newRevisedFromBasis (which installs a
// caller-provided basis instead). It leaves the equilibrated, unflipped
// right-hand side in bvec, and slackOf maps each row to its slack column
// (−1 for EQ rows).
//
// Every float and int array the engine and its constructors use is carved
// from one float slab and one int slab, sized up front: ncap = n+2m bounds
// structural, slack, and artificial columns together, so addCol's appends
// stay within each array's carved capacity, and total+m bounds the entries
// of the final setup matrix (artificials add at most one per row), so the
// row copy buildRows fills fits its carved arrays.
func newEngineShell(p *Problem) (e *revisedEngine, slackOf []int) {
	m := len(p.cons)
	n := len(p.vars)
	ncap := n + 2*m

	// Each term is at most one structural entry, and every slack column
	// holds one.
	total := 0
	for _, c := range p.cons {
		total += len(c.terms)
		if c.rel != EQ {
			total++
		}
	}
	fs := make([]float64, 2*total+10*m+7*ncap)
	is := make([]int, 2*total+3*n+8*m+1)
	takeF := func(k int) []float64 {
		s := fs[:k:k]
		fs = fs[k:]
		return s
	}
	takeI := func(k int) []int {
		s := is[:k:k]
		is = is[k:]
		return s
	}
	idxSlab, valSlab := takeI(total), takeF(total)

	e = &revisedEngine{
		m: m, n: n,
		limit:    p.maxIters,
		rowMult:  takeF(m),
		bvec:     takeF(m),
		xB:       takeF(m),
		y:        takeF(m),
		rho:      takeF(m),
		dir:      takeF(m),
		resid:    takeF(m),
		lo:       takeF(ncap)[:n],
		hi:       takeF(ncap)[:n],
		cost:     takeF(ncap)[:n],
		xval:     takeF(ncap)[:n],
		cvec:     takeF(ncap),
		yA:       takeF(ncap),
		rhoA:     takeF(ncap),
		rowVal:   takeF(total + m)[:0],
		basis:    takeI(m),
		pivNZ:    takeI(2 * m)[:0],
		costRows: takeI(m)[:0],
		explicit: takeI(m)[:0],
		rowStart: takeI(m + 1),
		rowCol:   takeI(total + m)[:0],
		status:   make([]colStatus, n, ncap),
	}
	for i := range e.rowMult {
		e.rowMult[i] = 1
	}

	sign := 1.0
	if p.sense == Maximize {
		sign = -1.0
	}

	// Column storage is carved from the index and value slabs: each
	// variable's term count (duplicates included) bounds its entries.
	// take hands out an empty column with room for k entries.
	nnzOf := takeI(n)
	for _, c := range p.cons {
		for _, t := range c.terms {
			nnzOf[t.Var]++
		}
	}
	take := func(k int) sparseCol {
		c := sparseCol{idx: idxSlab[:0:k], val: valSlab[:0:k]}
		idxSlab, valSlab = idxSlab[k:], valSlab[k:]
		return c
	}

	// Structural columns straight from the constraint terms, duplicate
	// variables summed in place (lastRow/lastPos find a duplicate of the
	// current row in O(1) because terms arrive row by row).
	e.cols = make([]sparseCol, n, ncap)
	for j, k := range nnzOf {
		e.cols[j] = take(k)
	}
	lastRow := takeI(n)
	lastPos := takeI(n)
	for j := range lastRow {
		lastRow[j] = -1
	}
	rhs := e.bvec
	for i, c := range p.cons {
		rhs[i] = c.rhs
		for _, t := range c.terms {
			j := int(t.Var)
			if lastRow[j] == i {
				e.cols[j].val[lastPos[j]] += t.Coef
			} else {
				lastRow[j] = i
				lastPos[j] = len(e.cols[j].idx)
				e.cols[j].idx = append(e.cols[j].idx, i)
				e.cols[j].val = append(e.cols[j].val, t.Coef)
			}
		}
	}

	// Row equilibration over the structural coefficients.
	rowScale := takeF(m)
	rowMax := takeF(m)
	for i := range rowScale {
		rowScale[i] = 1
	}
	for j := 0; j < n; j++ {
		col := &e.cols[j]
		for k, i := range col.idx {
			if a := math.Abs(col.val[k]); a > rowMax[i] {
				rowMax[i] = a
			}
		}
	}
	for i, mx := range rowMax {
		if mx > 0 && (mx < 1e-3 || mx > 1e3) {
			inv := 1 / mx
			rowScale[i] = inv
			rhs[i] *= inv
			e.rowMult[i] *= inv
		}
	}
	// Scale the columns and drop entries whose duplicates summed to zero
	// (the dense staging path never materialized those as sparse entries).
	for j := 0; j < n; j++ {
		col := &e.cols[j]
		w := 0
		for k, i := range col.idx {
			v := col.val[k] * rowScale[i]
			if v == 0 {
				continue
			}
			col.idx[w], col.val[w] = i, v
			w++
		}
		col.idx, col.val = col.idx[:w], col.val[:w]
	}

	for j, v := range p.vars {
		lo, hi := v.lo, v.hi
		if lo > hi {
			lo, hi = hi, lo
		}
		e.lo[j], e.hi[j], e.cost[j] = lo, hi, sign*v.cost
		e.status[j] = atLower
		e.xval[j] = lo
	}

	// Slack columns, in row order: the canonical column layout a Basis
	// snapshot refers to is structural 0..n−1 followed by these.
	slackOf = takeI(m)
	for i := range slackOf {
		slackOf[i] = -1
	}
	for i, c := range p.cons {
		switch c.rel {
		case LE:
			j := e.addCol(0, math.Inf(1), 0, take(1))
			e.cols[j].add(i, 1)
			slackOf[i] = j
		case GE:
			j := e.addCol(0, math.Inf(1), 0, take(1))
			e.cols[j].add(i, -1)
			slackOf[i] = j
		}
	}
	return e, slackOf
}

// addCol appends a nonbasic column at its lower bound and returns its
// index.
func (e *revisedEngine) addCol(lo, hi, cost float64, col sparseCol) int {
	e.lo = append(e.lo, lo)
	e.hi = append(e.hi, hi)
	e.cost = append(e.cost, cost)
	e.status = append(e.status, atLower)
	e.xval = append(e.xval, lo)
	e.cols = append(e.cols, col)
	return len(e.status) - 1
}

// newRevised builds a cold engine: equality form, equilibrated rows,
// slacks, artificials, and the slack/artificial starting basis. Columns are
// built directly in sparse form, with no dense staging matrix.
func newRevised(p *Problem) *revisedEngine {
	e, slackOf := newEngineShell(p)
	m, n := e.m, e.n
	flip := make([]bool, m)

	// Initial basis: slack where its value is admissible, else artificial,
	// flipping rows so basic values are non-negative. The residuals
	// rhs − Σ_j A_j x_j accumulate column-by-column in ascending j — the
	// same per-row subtraction order as a dense row scan.
	residual := e.resid // recomputeXB's scratch, free until the first solve
	copy(residual, e.bvec)
	for j := 0; j < n; j++ {
		if e.xval[j] == 0 {
			continue
		}
		col := &e.cols[j]
		for k, i := range col.idx {
			residual[i] -= col.val[k] * e.xval[j]
		}
	}
	for i, c := range p.cons {
		r := residual[i]
		if s := slackOf[i]; s >= 0 {
			coef := 1.0
			if c.rel == GE {
				coef = -1.0
			}
			sv := r / coef
			if sv >= 0 {
				if coef < 0 {
					flip[i] = true
				}
				e.status[s] = basic
				e.basis[i] = s
				e.xB[i] = sv
				continue
			}
		}
		if r < 0 {
			flip[i] = !flip[i]
			r = -r
		}
		j := e.addCol(0, math.Inf(1), 0, sparseCol{})
		// The artificial enters post-flip with +1.
		e.cols[j].add(i, 1)
		e.status[j] = basic
		e.basis[i] = j
		e.xB[i] = r
	}
	// The artificial region starts after structural + slack columns.
	e.artStart = n
	for i := range slackOf {
		if slackOf[i] >= 0 {
			e.artStart++
		}
	}
	// Apply row flips to structural and slack columns. Artificials were
	// added with +1 after their row's flip was decided, so they are
	// excluded.
	for j := 0; j < e.artStart; j++ {
		col := &e.cols[j]
		for k, i := range col.idx {
			if flip[i] {
				col.val[k] = -col.val[k]
			}
		}
	}
	for i, f := range flip {
		if f {
			e.rowMult[i] = -e.rowMult[i]
			e.bvec[i] = -e.bvec[i]
		}
	}

	e.ncol = len(e.status)

	// Identity basis inverse: after the row flips every initial basic
	// column (slack or artificial) carries +1 on its own row, so B = I,
	// every column implicit.
	e.binv = make([][]float64, m)

	e.cvec = e.cvec[:e.ncol]
	e.buildRows()
	e.syncJournal(p) // built from p's current state: pending edits covered
	return e
}

// buildRows fills the row copy of the final setup matrix. Columns are
// visited in ascending order, so each row lists its columns ascending.
func (e *revisedEngine) buildRows() {
	start := e.rowStart
	for j := 0; j < e.ncol; j++ {
		for _, i := range e.cols[j].idx {
			start[i+1]++
		}
	}
	for i := 0; i < e.m; i++ {
		start[i+1] += start[i]
	}
	nnz := start[e.m]
	e.rowCol, e.rowVal = e.rowCol[:nnz], e.rowVal[:nnz]
	next := e.costRows[:e.m] // computeY's scratch, free until the first solve
	copy(next, start)
	for j := 0; j < e.ncol; j++ {
		col := &e.cols[j]
		for k, i := range col.idx {
			e.rowCol[next[i]], e.rowVal[next[i]] = j, col.val[k]
			next[i]++
		}
	}
}

// rowProducts sets out[j] = A_j·v for every column j by scattering the
// rows r with v[r] ≠ 0, in ascending r. Column j thus receives its
// products in the order of its own (ascending) entries, the order a
// column-by-column dot product sums them in, and a skipped row adds only
// an exact zero to a sum that starts at +0: out[j] is bit-identical to
// that dot product, at the cost of the rows v touches instead of all of A.
func (e *revisedEngine) rowProducts(v, out []float64) {
	out = out[:e.ncol]
	for j := range out {
		out[j] = 0
	}
	for r, vr := range v {
		if vr == 0 {
			continue
		}
		lo, hi := e.rowStart[r], e.rowStart[r+1]
		vals := e.rowVal[lo:hi]
		for k, j := range e.rowCol[lo:hi] {
			out[j] += vals[k] * vr
		}
	}
}

// materialize makes column c of B^{-1} explicit as the unit column e_c
// and returns it.
func (e *revisedEngine) materialize(c int) []float64 {
	col := e.takeCol()
	col[c] = 1
	e.binv[c] = col
	e.explicit = append(e.explicit, c)
	return col
}

// colChunkBytes bounds one refill of colSlab: 32 KiB, the largest size
// class of the runtime's small-object allocator.
const colChunkBytes = 32 << 10

// takeCol carves one zeroed m-long column from colSlab. An exhausted slab
// is refilled with as many columns as fit in colChunkBytes (at least one),
// but never more than are still implicit. A solve that materializes k
// columns thus allocates about k/chunk slabs and at most one chunk of
// columns it never uses.
func (e *revisedEngine) takeCol() []float64 {
	m := e.m
	if len(e.colSlab) < m {
		e.colSlab = make([]float64, min(max(colChunkBytes/(8*m), 1), m-len(e.explicit))*m)
	}
	col := e.colSlab[:m:m]
	e.colSlab = e.colSlab[m:]
	return col
}

// applyBinv computes dst = B^{-1} A_j as the sum of the inverse's columns
// at A_j's rows, weighted by A_j's entries: one axpy per entry on an
// explicit column, one add per entry on an implicit one. Each dst[i]
// sums its products in the order of A_j's entries, the order of a dot
// product of row i of B^{-1} with A_j.
func (e *revisedEngine) applyBinv(j int, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	col := &e.cols[j]
	for k, r := range col.idx {
		v := col.val[k]
		b := e.binv[r]
		if b == nil {
			dst[r] += v // the unit column e_r
			continue
		}
		for i, x := range b {
			dst[i] += x * v
		}
	}
}

// pivotBinv applies the eta update that turns dir = B^{-1}A_q into
// e_leave: row leave of B^{-1} is scaled by 1/dir[leave], and every other
// row with dir[i] ≠ 0 subtracts dir[i] times it. An implicit column c ≠
// leave has a zero in row leave, so the update leaves it e_c; only column
// leave is materialized. dir's nonzero rows are collected once, and a
// column whose scaled pivot entry is zero is skipped: the same operations,
// in the same order, as a dense sweep that skips the pivot row's zeros.
func (e *revisedEngine) pivotBinv(leave int) {
	inv := 1 / e.dir[leave]
	nz := e.pivNZ[:0]
	for i, f := range e.dir {
		if i != leave && f != 0 {
			nz = append(nz, i)
		}
	}
	e.pivNZ = nz
	if e.binv[leave] == nil {
		e.materialize(leave)
	}
	for _, c := range e.explicit {
		col := e.binv[c]
		v := col[leave] * inv
		col[leave] = v
		if v == 0 {
			continue
		}
		for _, i := range nz {
			col[i] -= e.dir[i] * v
		}
	}
}

// binvRowInto gathers row r of B^{-1} into dst.
func (e *revisedEngine) binvRowInto(r int, dst []float64) {
	for c, col := range e.binv {
		switch {
		case col != nil:
			dst[c] = col[r]
		case c == r:
			dst[c] = 1 // the unit column e_r
		default:
			dst[c] = 0
		}
	}
}

// solve runs both phases and returns the status.
func (e *revisedEngine) solve() Status {
	if e.m == 0 {
		for j := 0; j < e.n; j++ {
			if e.cost[j] < 0 {
				if math.IsInf(e.hi[j], 1) {
					return Unbounded
				}
				e.status[j] = atUpper
				e.xval[j] = e.hi[j]
			}
		}
		return Optimal
	}
	if e.ncol > e.artStart {
		for j := range e.cvec {
			e.cvec[j] = 0
		}
		for j := e.artStart; j < e.ncol; j++ {
			e.cvec[j] = 1
		}
		st := e.iterate()
		if st != Optimal {
			if st == IterationLimit {
				return st
			}
			return Infeasible
		}
		res := 0.0
		for i, b := range e.basis {
			if b >= e.artStart {
				res += math.Abs(e.xB[i])
			}
		}
		if res > feasTol {
			return Infeasible
		}
		// Pin artificials.
		for j := e.artStart; j < e.ncol; j++ {
			e.hi[j] = 0
			if e.status[j] != basic {
				e.status[j] = atLower
				e.xval[j] = 0
			}
		}
	}
	copy(e.cvec, e.cost)
	for j := e.artStart; j < e.ncol; j++ {
		e.cvec[j] = 0
	}
	return e.iterate()
}

// iterate runs primal simplex with Dantzig pricing and a Bland fallback.
func (e *revisedEngine) iterate() Status {
	maxIter := 200*(e.m+e.ncol) + 2000
	blandAfter := 40 * (e.m + e.ncol)

	// Mid-solve primal bases are not dual feasible; snap restores the flag
	// when the solve ends at a verified optimum.
	e.dualClean = false
	floor := e.priceFloor()
	pivots := 0
	for iter := 0; iter < maxIter; iter++ {
		bland := iter >= blandAfter
		if pivots > 0 && pivots%64 == 0 {
			e.refactorize()
			pivots++ // avoid refactorizing repeatedly on bound-flip loops
		}
		e.computeY()
		e.rowProducts(e.y, e.yA)
		// Price and choose entering. Reduced costs are recomputed from y
		// every iteration, so the optimality test must be RELATIVE to the
		// magnitudes involved — with 1e7-scale objective coefficients the
		// float noise in c_j − y·A_j dwarfs any absolute tolerance. The
		// floor keeps the test relative for columns whose own cost and
		// y·A_j are both near zero (a slack on a non-binding row).
		q := -1
		best := priceTol
		for j := 0; j < e.ncol; j++ {
			if e.status[j] == basic || e.hi[j]-e.lo[j] <= boundEps {
				continue
			}
			dot := e.yA[j]
			dj := e.cvec[j] - dot
			if dj == 0 {
				continue // scores 0, never above priceTol
			}
			denom := math.Max(1+math.Abs(e.cvec[j])+math.Abs(dot), floor)
			var score float64
			if e.status[j] == atLower {
				score = -dj / denom
			} else {
				score = dj / denom
			}
			if score > best {
				if bland {
					q = j
					break
				}
				q = j
				best = score
			}
		}
		if q < 0 {
			// Optimality under a possibly-drifted inverse: refresh and
			// re-price once before declaring victory — but only when enough
			// row operations have accumulated since the last factorization
			// for drift to be plausible. Warm re-solves finish in a handful
			// of pivots and must not pay an O(m³) confirmation each; drift
			// from a few rank-one updates is at machine-epsilon scale.
			if e.stalePivots >= confirmPivots {
				if e.refactorize() {
					continue
				}
			}
			e.snap()
			return Optimal
		}
		// Another pivot is needed; stop if the caller's budget is spent.
		if e.limit > 0 && e.iters >= e.limit {
			return IterationLimit
		}
		e.iters++

		sigma := 1.0
		if e.status[q] == atUpper {
			sigma = -1.0
		}
		e.applyBinv(q, e.dir)
		tol := e.ratioTol()

		limit := math.Inf(1)
		if !math.IsInf(e.hi[q], 1) {
			limit = e.hi[q] - e.lo[q]
		}
		leave := -1
		leaveToUpper := false
		for i := 0; i < e.m; i++ {
			a := sigma * e.dir[i]
			b := e.basis[i]
			if a > tol {
				room := e.xB[i] - e.lo[b]
				if room < 0 {
					room = 0
				}
				if step := room / a; step < limit-boundEps ||
					(step < limit+boundEps && e.betterLeaving(leave, i, bland)) {
					if step < limit {
						limit = step
					}
					leave = i
					leaveToUpper = false
				}
			} else if a < -tol {
				if math.IsInf(e.hi[b], 1) {
					continue
				}
				room := e.hi[b] - e.xB[i]
				if room < 0 {
					room = 0
				}
				if step := room / -a; step < limit-boundEps ||
					(step < limit+boundEps && e.betterLeaving(leave, i, bland)) {
					if step < limit {
						limit = step
					}
					leave = i
					leaveToUpper = true
				}
			}
		}
		if math.IsInf(limit, 1) {
			return Unbounded
		}

		if leave < 0 {
			// Bound flip.
			for i := 0; i < e.m; i++ {
				if e.dir[i] != 0 {
					e.xB[i] -= sigma * limit * e.dir[i]
				}
			}
			if e.status[q] == atLower {
				e.status[q] = atUpper
				e.xval[q] = e.hi[q]
			} else {
				e.status[q] = atLower
				e.xval[q] = e.lo[q]
			}
			continue
		}

		// Pivot: q enters at row leave.
		enterVal := e.xval[q] + sigma*limit
		leaveVar := e.basis[leave]
		for i := 0; i < e.m; i++ {
			if i != leave && e.dir[i] != 0 {
				e.xB[i] -= sigma * limit * e.dir[i]
			}
		}
		if leaveToUpper {
			e.status[leaveVar] = atUpper
			e.xval[leaveVar] = e.hi[leaveVar]
		} else {
			e.status[leaveVar] = atLower
			e.xval[leaveVar] = e.lo[leaveVar]
		}
		e.pivotBinv(leave)
		e.status[q] = basic
		e.basis[leave] = q
		e.xB[leave] = enterVal
		pivots++
		e.stalePivots++
	}
	return IterationLimit
}

// ratioTol is the smallest |dir[i]| the primal ratio test accepts as a
// pivot: pivTol, or relPivTol (the float64 machine epsilon) times the
// largest |dir[i]| when that is larger. An entry below the rounding
// noise of its own column can pass the absolute test (a 1.6e-9 entry in a
// column whose largest is 2.3e8), but pivoting on it leaves B numerically
// singular: every later refactorization fails and the solve can cycle to
// the safety cap.
func (e *revisedEngine) ratioTol() float64 {
	mx := 0.0
	for _, d := range e.dir {
		if a := math.Abs(d); a > mx {
			mx = a
		}
	}
	return math.Max(pivTol, relPivTol*mx)
}

// computeY fills e.y with the simplex multipliers y = c_B^T B^{-1} under
// the active-phase cost vector: one dot product over the rows with a
// nonzero basic cost per explicit column, and y[c] = c_B[c] on an implicit
// column e_c. Each y[c] sums its products in ascending row order, as a
// row-by-row accumulation of c_B[i]·(row i of B^{-1}) would.
func (e *revisedEngine) computeY() {
	rows := e.costRows[:0]
	for i, b := range e.basis {
		if e.cvec[b] != 0 {
			rows = append(rows, i)
		}
	}
	e.costRows = rows
	for c, col := range e.binv {
		if col == nil {
			y := 0.0 // a zero cost of either sign contributes nothing
			if cb := e.cvec[e.basis[c]]; cb != 0 {
				y = cb
			}
			e.y[c] = y
			continue
		}
		y := 0.0
		for _, i := range rows {
			y += e.cvec[e.basis[i]] * col[i]
		}
		e.y[c] = y
	}
}

// refactorize rebuilds B^{-1} from the basis columns by Gauss-Jordan
// elimination and recomputes the basic values, absorbing the numerical
// drift of long pivot sequences. It reports whether the basis matrix was
// invertible (it always should be; on failure the previous inverse is
// kept).
func (e *revisedEngine) refactorize() bool {
	m := e.m
	// Assemble [B | I] in the cached workspace (a warm solver refactorizes
	// many times over the engine's lifetime; reallocating m×2m each call
	// shows up as GC pressure).
	if e.refacWork == nil {
		e.refacWork = make([][]float64, m)
		slab := make([]float64, 2*m*m)
		for i := range e.refacWork {
			e.refacWork[i], slab = slab[:2*m:2*m], slab[2*m:]
		}
	}
	work := e.refacWork
	for i := range work {
		row := work[i]
		for k := range row {
			row[k] = 0
		}
		row[m+i] = 1
	}
	for pos, b := range e.basis {
		col := &e.cols[b]
		for k, r := range col.idx {
			work[r][pos] = col.val[k]
		}
	}
	for colIdx := 0; colIdx < m; colIdx++ {
		piv := colIdx
		for r := colIdx + 1; r < m; r++ {
			if math.Abs(work[r][colIdx]) > math.Abs(work[piv][colIdx]) {
				piv = r
			}
		}
		if math.Abs(work[piv][colIdx]) < 1e-12 {
			return false
		}
		work[colIdx], work[piv] = work[piv], work[colIdx]
		pr := work[colIdx]
		inv := 1 / pr[colIdx]
		// The scaled pivot row's nonzero columns are collected once, and
		// the other rows are updated only there: subtracting f times a zero
		// changes at most the sign of a zero.
		nz := e.pivNZ[:0]
		for k := range pr {
			pr[k] *= inv
			if pr[k] != 0 {
				nz = append(nz, k)
			}
		}
		e.pivNZ = nz
		for r := 0; r < m; r++ {
			if r == colIdx {
				continue
			}
			row := work[r]
			f := row[colIdx]
			if f == 0 {
				continue
			}
			for _, k := range nz {
				row[k] -= f * pr[k]
			}
		}
	}
	// Copy the inverse into columns. An implicit column that came out
	// exactly e_c stays implicit: that is the usual result for a position
	// whose own row's slack is still basic there, so a factorization costs
	// no more columns than the pivots before it materialized.
	for c := 0; c < m; c++ {
		col := e.binv[c]
		if col == nil {
			if unitColumn(work, m+c, c) {
				continue
			}
			col = e.materialize(c)
		}
		for i := range col {
			col[i] = work[i][m+c]
		}
	}
	e.recomputeXB()
	e.stalePivots = 0
	return true
}

// unitColumn reports whether column k of the row-major work holds exactly
// the unit vector e_c (a zero of either sign off row c).
func unitColumn(work [][]float64, k, c int) bool {
	for i, row := range work {
		if v := row[k]; i == c && v != 1 || i != c && v != 0 {
			return false
		}
	}
	return true
}

// recomputeXB recomputes the basic values xB = B^{-1}(b − Σ_nonbasic A_j x_j)
// under the current basis inverse and nonbasic placements.
func (e *revisedEngine) recomputeXB() {
	e.staleRefreshes = 0
	resid := e.resid
	copy(resid, e.bvec)
	for j := 0; j < e.ncol; j++ {
		if e.status[j] == basic || e.xval[j] == 0 {
			continue
		}
		col := &e.cols[j]
		for k, r := range col.idx {
			resid[r] -= col.val[k] * e.xval[j]
		}
	}
	// xB accumulates the inverse's columns in ascending order, so each
	// xB[i] sums its products in the order of row i of B^{-1}.
	for i := range e.xB {
		e.xB[i] = 0
	}
	for c, col := range e.binv {
		rc := resid[c]
		if rc == 0 {
			continue
		}
		if col == nil {
			e.xB[c] += rc // the unit column e_c
			continue
		}
		for i, v := range col {
			e.xB[i] += v * rc
		}
	}
}

// dualFeasTol gates warm-start classification: a basis whose reduced costs
// are within this relative tolerance of the right sign counts as dual
// feasible. Looser than priceTol on purpose — a marginally wrong-signed
// reduced cost makes the dual ratio test pick that column first (ratio ≈ 0)
// rather than corrupting the solve, and the final primal cleanup pass
// restores exact optimality conditions either way.
const dualFeasTol = 1e-7

// confirmPivots is the drift budget below which iterate trusts the product-
// form inverse when declaring optimality. Each pivot applies one rank-one
// row operation to binv; after fewer than this many since the last exact
// factorization, the accumulated error is far below the pricing tolerance,
// so the O(m³) confirm-refactorize is pure overhead. Warm re-solves (dual
// repair after an RHS edit, SF fixing rounds) typically finish in one to a
// handful of pivots and would otherwise pay the confirmation every round.
// 64 matches the periodic in-solve refactorization interval and refresh's
// staleness threshold, so the engine has one drift budget everywhere.
const confirmPivots = 64

// refresh re-reads the mutable pieces of p — bounds, costs, right-hand
// sides, and the iteration budget — into the engine without rebuilding
// columns, the basis, or the inverse. When the engine is synced to p's
// edit journal, only the journaled edits are applied and the basic values
// are updated incrementally (a rank-one correction per effective edit);
// otherwise everything is rescanned and xB recomputed from scratch.
// The caller must not have changed p's constraint terms, relations, or
// dimensions (the column layout and equilibration are frozen at
// construction). The iteration counter resets: each refresh starts a new
// solve with a fresh budget, matching one-shot Solve semantics.
func (e *revisedEngine) refresh(p *Problem) {
	incremental := e.journalSynced && !p.mutsFull
	e.limit = p.maxIters
	e.iters = 0
	if incremental {
		e.applyJournal(p)
	} else {
		e.rescan(p)
	}
	e.syncJournal(p)
	if e.stalePivots >= confirmPivots {
		e.refactorize() // also recomputes xB
		return
	}
	if !incremental {
		e.recomputeXB()
		return
	}
	e.staleRefreshes++
	if e.staleRefreshes >= confirmPivots {
		e.recomputeXB() // absorb incremental-update float drift
	}
}

// syncJournal truncates p's edit journal and marks the engine as covering
// it: after the caller applies the pending edits (or rescans everything),
// future journal entries describe exactly the edits this engine has not
// yet seen.
func (e *revisedEngine) syncJournal(p *Problem) {
	p.muts = p.muts[:0]
	p.mutsFull = false
	e.journalSynced = true
}

// rescan re-reads every bound, cost, and right-hand side from p — the
// full-refresh path used when the edit journal does not cover the changes.
func (e *revisedEngine) rescan(p *Problem) {
	sign := 1.0
	if p.sense == Maximize {
		sign = -1.0
	}
	for j, v := range p.vars {
		lo, hi := v.lo, v.hi
		if lo > hi {
			lo, hi = hi, lo
		}
		e.lo[j], e.hi[j] = lo, hi
		e.cost[j] = sign * v.cost
	}
	// Re-place nonbasic columns on their (possibly moved) bounds.
	// Artificials keep hi=0 from the pin after phase 1, so they stay at 0.
	for j := 0; j < e.ncol; j++ {
		if e.status[j] == basic {
			continue
		}
		if e.status[j] == atUpper && math.IsInf(e.hi[j], 1) {
			e.status[j] = atLower
		}
		if e.status[j] == atUpper {
			e.xval[j] = e.hi[j]
		} else {
			e.xval[j] = e.lo[j]
		}
	}
	// rowMult folds the setup-time equilibration and row flips, so the
	// setup rhs is always rhs_user scaled by it.
	for i, c := range p.cons {
		e.bvec[i] = c.rhs * e.rowMult[i]
	}
	// The rescan gives no cost-edit information, so dual feasibility of
	// the carried basis must be re-established by the explicit scan.
	e.dualClean = false
}

// applyJournal replays p's journaled edits against the engine state,
// folding each effective change into the basic values:
//
//   - an RHS edit on row i moves xB by Δb_i · B^{-1}e_i (one inverse
//     column, O(m));
//   - a bound edit that moves a nonbasic variable by Δ moves xB by
//     −Δ · B^{-1}A_j (one ftran, O(m·nnz));
//   - a cost edit rewrites one objective coefficient and, when the value
//     actually changed, invalidates dualClean (reduced-cost signs are no
//     longer guaranteed).
//
// Rereading current values from p makes duplicate journal entries
// idempotent: the second replay sees a zero delta and does nothing.
// The caller is responsible for journal truncation (syncJournal).
func (e *revisedEngine) applyJournal(p *Problem) {
	sign := 1.0
	if p.sense == Maximize {
		sign = -1.0
	}
	for _, mu := range p.muts {
		switch mu.kind {
		case mutCost:
			j := int(mu.idx)
			c := sign * p.vars[j].cost
			//lint:allow nofloateq -- no-op-replay guard: values are assigned, not computed, and any bit-level change must invalidate dualClean
			if c != e.cost[j] {
				e.cost[j] = c
				e.dualClean = false
			}
		case mutRHS:
			i := int(mu.idx)
			nb := p.cons[i].rhs * e.rowMult[i]
			d := nb - e.bvec[i]
			if d == 0 {
				continue
			}
			e.bvec[i] = nb
			col := e.binv[i]
			if col == nil {
				e.xB[i] += d // the unit column e_i
				continue
			}
			for r, v := range col {
				if v != 0 {
					e.xB[r] += v * d
				}
			}
		case mutBound:
			j := int(mu.idx)
			lo, hi := p.vars[j].lo, p.vars[j].hi
			if lo > hi {
				lo, hi = hi, lo
			}
			//lint:allow nofloateq -- no-op-replay guard: bounds are assigned, not computed; duplicate journal entries see an exact match and skip
			if lo == e.lo[j] && hi == e.hi[j] {
				continue
			}
			e.lo[j], e.hi[j] = lo, hi
			if e.status[j] == basic {
				continue
			}
			v0 := e.xval[j]
			if e.status[j] == atUpper && math.IsInf(hi, 1) {
				// Placement flips sides, so the reduced-cost sign
				// requirement flips with it: dual feasibility is no longer
				// implied by the previous optimum.
				e.status[j] = atLower
				e.dualClean = false
			}
			if e.status[j] == atUpper {
				e.xval[j] = e.hi[j]
			} else {
				e.xval[j] = e.lo[j]
			}
			d := e.xval[j] - v0
			if d == 0 {
				continue
			}
			e.applyBinv(j, e.dir)
			for i := 0; i < e.m; i++ {
				if e.dir[i] != 0 {
					e.xB[i] -= d * e.dir[i]
				}
			}
		}
	}
}

// primalFeasible reports whether every basic value lies within its bounds
// (relative feasTol), i.e. whether phase-2 primal simplex can continue
// directly from this basis.
func (e *revisedEngine) primalFeasible() bool {
	for i, b := range e.basis {
		tol := feasTol * (1 + math.Abs(e.xB[i]))
		if e.xB[i] < e.lo[b]-tol || e.xB[i] > e.hi[b]+tol {
			return false
		}
	}
	return true
}

// dualFeasible reports whether every nonbasic reduced cost has the
// optimality sign for its bound placement under the active costs — the
// precondition for re-solving with dual simplex after RHS or bound edits.
func (e *revisedEngine) dualFeasible() bool {
	e.computeY()
	e.rowProducts(e.y, e.yA)
	floor := e.priceFloor()
	for j := 0; j < e.ncol; j++ {
		if e.status[j] == basic || e.hi[j]-e.lo[j] <= boundEps {
			continue
		}
		dot := e.yA[j]
		dj := e.cvec[j] - dot
		denom := math.Max(1+math.Abs(e.cvec[j])+math.Abs(dot), floor)
		if e.status[j] == atLower {
			if -dj/denom > dualFeasTol {
				return false
			}
		} else {
			if dj/denom > dualFeasTol {
				return false
			}
		}
	}
	return true
}

// priceFloor is the smallest denominator the reduced-cost tests divide
// by: priceScaleFloor times the largest active cost magnitude. A reduced
// cost d_j = c_j − y·A_j carries float noise proportional to the objective
// scale (y is c_B·B⁻¹), not to the column's own |c_j| + |y·A_j|. Without
// the floor, a zero-cost slack on a non-binding row (dual ≈ 0) has a
// denominator near 1, so noise of order 1e-7 on a 1e10-scale objective
// passes priceTol and the slack re-enters forever with non-degenerate
// steps that Bland's rule cannot stop. In phase 1 the costs are 0/1 and
// the floor never binds.
func (e *revisedEngine) priceFloor() float64 {
	mx := 0.0
	for _, c := range e.cvec {
		if a := math.Abs(c); a > mx {
			mx = a
		}
	}
	return priceScaleFloor * mx
}

// dualIterate runs bounded-variable dual simplex from a dual-feasible
// basis: each iteration drives the most-violated basic variable out to its
// nearest bound, with the entering column chosen by the dual ratio test so
// reduced costs keep their optimality signs. It returns Optimal once the
// basis is primal feasible (run iterate afterwards for the final primal
// polish), Infeasible when a violated row admits no entering column (the
// dual is unbounded), or IterationLimit on the caller's budget or the
// safety cap.
//
// The dual ratio test compares |d_j|/|α_j| with no sign tolerance, so the
// cost-scale noise that priceFloor absorbs in pricing cannot make it loop.
func (e *revisedEngine) dualIterate() Status {
	maxIter := 200*(e.m+e.ncol) + 2000
	blandAfter := 40 * (e.m + e.ncol)

	pivots := 0
	for iter := 0; iter < maxIter; iter++ {
		bland := iter >= blandAfter
		if pivots > 0 && pivots%64 == 0 {
			e.refactorize()
			pivots++
		}
		// Leaving row: largest relative bound violation among the basics.
		r := -1
		above := false
		worst := feasTol
		for i, b := range e.basis {
			denom := 1 + math.Abs(e.xB[i])
			if d := (e.lo[b] - e.xB[i]) / denom; d > worst {
				r, above, worst = i, false, d
			}
			if math.IsInf(e.hi[b], 1) {
				continue
			}
			if d := (e.xB[i] - e.hi[b]) / denom; d > worst {
				r, above, worst = i, true, d
			}
		}
		if r < 0 {
			return Optimal // primal feasible: hand back to primal simplex
		}
		if e.limit > 0 && e.iters >= e.limit {
			return IterationLimit
		}
		e.iters++

		leaveVar := e.basis[r]
		var bound float64
		if above {
			bound = e.hi[leaveVar]
		} else {
			bound = e.lo[leaveVar]
		}
		delta := e.xB[r] - bound // >0 above the upper bound, <0 below lower

		// Dual ratio test over row r of B^{-1}A: eligible entering columns
		// are those whose step direction both respects their own bound and
		// keeps the leaving variable's new reduced cost on the right side.
		e.binvRowInto(r, e.rho)
		e.rowProducts(e.rho, e.rhoA)
		e.computeY()
		e.rowProducts(e.y, e.yA)
		q := -1
		bestRatio := math.Inf(1)
		bestAlpha := 0.0
		for j := 0; j < e.ncol; j++ {
			if e.status[j] == basic || e.hi[j]-e.lo[j] <= boundEps {
				continue
			}
			alpha := e.rhoA[j]
			if math.Abs(alpha) <= pivTol {
				continue
			}
			atLo := e.status[j] == atLower
			if above {
				if atLo && alpha <= 0 || !atLo && alpha >= 0 {
					continue
				}
			} else {
				if atLo && alpha >= 0 || !atLo && alpha <= 0 {
					continue
				}
			}
			if bland {
				if q < 0 || j < q {
					q, bestAlpha = j, alpha
				}
				continue
			}
			dj := e.cvec[j] - e.yA[j]
			ratio := math.Abs(dj) / math.Abs(alpha)
			if ratio < bestRatio-boundEps ||
				(ratio < bestRatio+boundEps && math.Abs(alpha) > math.Abs(bestAlpha)) {
				q, bestRatio, bestAlpha = j, ratio, alpha
			}
		}
		if q < 0 {
			// No column can repair the violated row: primal infeasible.
			return Infeasible
		}

		// Pivot: q enters at row r, the leaving variable lands on the bound
		// it was violating.
		e.applyBinv(q, e.dir)
		alphaQ := e.dir[r]
		if math.Abs(alphaQ) <= pivTol {
			// rho was drifted; refactorize and retry the row selection.
			e.refactorize()
			pivots++
			continue
		}
		step := delta / alphaQ
		for i := 0; i < e.m; i++ {
			if i != r && e.dir[i] != 0 {
				e.xB[i] -= step * e.dir[i]
			}
		}
		if above {
			e.status[leaveVar] = atUpper
			e.xval[leaveVar] = e.hi[leaveVar]
		} else {
			e.status[leaveVar] = atLower
			e.xval[leaveVar] = e.lo[leaveVar]
		}
		e.pivotBinv(r)
		newVal := e.xval[q] + step
		e.status[q] = basic
		e.basis[r] = q
		e.xB[r] = newVal
		pivots++
		e.stalePivots++
	}
	return IterationLimit
}

func (e *revisedEngine) betterLeaving(cur, cand int, bland bool) bool {
	if cur < 0 {
		return true
	}
	if bland {
		return e.basis[cand] < e.basis[cur]
	}
	return math.Abs(e.dir[cand]) > math.Abs(e.dir[cur])
}

// snap clamps the basic values onto their bounds at a declared optimum and
// records that the basis is dual feasible under the active costs, so later
// RHS-only re-solves can skip the explicit reduced-cost scan.
func (e *revisedEngine) snap() {
	e.dualClean = true
	for i, b := range e.basis {
		if e.xB[i] < e.lo[b] {
			e.xB[i] = e.lo[b]
		}
		if e.xB[i] > e.hi[b] {
			e.xB[i] = e.hi[b]
		}
	}
}

func (e *revisedEngine) structuralValues() []float64 {
	x := make([]float64, e.n)
	for j := 0; j < e.n; j++ {
		x[j] = e.xval[j]
	}
	for i, b := range e.basis {
		if b < e.n {
			x[b] = e.xB[i]
		}
	}
	return x
}

// duals reads the simplex multipliers directly from y at optimality,
// mapped back through the row equilibration and flips.
func (e *revisedEngine) duals(sign float64) []float64 {
	e.computeY() // y for the final basis under phase-2 costs
	out := make([]float64, e.m)
	for i := 0; i < e.m; i++ {
		out[i] = sign * e.y[i] * e.rowMult[i]
	}
	return out
}
