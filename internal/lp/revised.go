package lp

import (
	"math"
	"math/bits"
	"unsafe"
)

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
// columns. Pricing scatters the problem's own rows where the multipliers
// are nonzero (in phase 2, only the explicit columns' rows), so an
// iteration costs the nonzeros it multiplies rather than all of A. The
// test suite cross-validates the engine against a dense full-tableau
// reference on thousands of random LPs.
type revisedEngine struct {
	m    int // rows
	n    int // structural columns
	ncol int // total columns (with slacks and artificials)

	// rows are the problem's constraints. Their terms are row r of the
	// setup matrix before equilibration and flips, which rowMult[r] folds
	// in: pricing scatters them (rowProducts).
	rows []constraint
	// The setup matrix A by columns (after equilibration and row flips,
	// artificials included), in compressed sparse column form over
	// pieces: column j is the colLen[j] entries from colAt[j] of one
	// piece, addressed piece<<colShift | offset, rows in colRows and
	// values in colVals. col returns it.
	colAt    []int32
	colLen   []int32
	colShift uint
	colRows  [][]int32
	colVals  [][]float64
	// slackOf and artOf map each row to its slack and artificial columns,
	// −1 where it has none.
	slackOf []int
	artOf   []int
	// binv is the basis inverse B^{-1} by columns. A nil column is the unit
	// column e_c: columns start implicit and are materialized by
	// materialize on first write, and every reader treats a nil column as
	// e_c. explicit lists the columns that are not nil.
	binv     [][]float64
	explicit []int
	// colPieces is the room for columns yet to be materialized.
	colPieces pieces[float64]
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

	// rowMult is the factor (equilibration scale, negated on a flipped
	// row) that takes a user row to its setup row.
	rowMult []float64
	// bvec is the setup right-hand side (post equilibration and flips),
	// kept for refactorization.
	bvec []float64

	// stalePivots counts basis changes since the last refactorization,
	// across solves: a WarmSolver re-solve inherits the drift of the pivots
	// before it and refactorizes when the count crosses the cadence.
	stalePivots int
	// refacFailed records that the last refactorization inside a solve
	// failed (refactorizeOrStop).
	refacFailed bool

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

// maxPieceBytes is the largest array an engine allocates while it solves
// (and the largest term slab of a Problem): the runtime serves anything
// above 32,760 bytes — its largest small size class, 32 KiB, less the
// malloc header — as a large object, with a span of its own, a locked
// page allocation, eager zeroing and a sweep of its own, which made the
// allocator and the GC the largest cost of building a cold engine.
const maxPieceBytes = 32760

// pieces hands out exact-length arrays carved from pieces of at most
// maxPieceBytes. left is the number of elements still to be handed out,
// and a new piece is sized to it, up to that cap, so the last piece holds
// exactly what remains. An array longer than a piece gets one of its own
// length. A piece is fresh memory, so every array comes out zeroed.
type pieces[T any] struct {
	cur  []T
	left int
}

func (s *pieces[T]) take(k int) []T {
	if len(s.cur) < k {
		var zero T
		per := maxPieceBytes / int(unsafe.Sizeof(zero))
		s.cur = make([]T, max(k, min(s.left, per)))
	}
	a := s.cur[:k:k]
	s.cur = s.cur[k:]
	s.left -= k
	return a
}

// col returns column j of the setup matrix: its rows, ascending, and its
// values.
func (e *revisedEngine) col(j int) ([]int32, []float64) {
	at := int(e.colAt[j])
	p, o := at>>e.colShift, at&(1<<e.colShift-1)
	end := o + int(e.colLen[j])
	return e.colRows[p][o:end], e.colVals[p][o:end]
}

// newEngineShell builds the structural and slack columns of p in sparse,
// row-equilibrated form — the part of engine setup shared by the cold
// constructor newRevised (which adds row flips and artificials on top) and
// the basis-import constructor newRevisedFromBasis (which installs a
// caller-provided basis instead). It leaves the equilibrated, unflipped
// right-hand side in bvec.
//
// The columns are built in two passes over p's rows (which list each
// variable once). The first finds each row's largest |coefficient|, which
// sets its equilibration, and counts each column's nonzero scaled entries;
// the second scatters them. Every array is exact-size and carved from
// pieces (see pieces): ncap = n + (slack columns) + m bounds the columns,
// since a cold start adds at most one artificial per row, so addCol's
// appends stay within each array's carved capacity.
func newEngineShell(p *Problem) *revisedEngine {
	m := len(p.cons)
	n := len(p.vars)
	ncap := n + m
	for _, c := range p.cons {
		if c.rel != EQ {
			ncap++
		}
	}
	fs := pieces[float64]{left: 7*m + 7*ncap}
	is := pieces[int]{left: 7 * m}
	js := pieces[int32]{left: 2 * ncap}
	e := &revisedEngine{
		m: m, n: n,
		limit:    p.maxIters,
		rows:     p.cons[:m:m],
		rowMult:  fs.take(m),
		bvec:     fs.take(m),
		xB:       fs.take(m),
		y:        fs.take(m),
		rho:      fs.take(m),
		dir:      fs.take(m),
		resid:    fs.take(m),
		lo:       fs.take(ncap)[:n],
		hi:       fs.take(ncap)[:n],
		cost:     fs.take(ncap)[:n],
		xval:     fs.take(ncap)[:n],
		cvec:     fs.take(ncap),
		yA:       fs.take(ncap),
		rhoA:     fs.take(ncap),
		basis:    is.take(m),
		pivNZ:    is.take(2 * m)[:0],
		costRows: is.take(m)[:0],
		explicit: is.take(m)[:0],
		slackOf:  is.take(m),
		artOf:    is.take(m),
		colAt:    js.take(ncap),
		colLen:   js.take(ncap),
		status:   make([]colStatus, n, ncap),
	}
	// Room for the inverse columns, carved as they materialize: at most m.
	e.colPieces = pieces[float64]{left: m * m}

	sign := 1.0
	if p.sense == Maximize {
		sign = -1.0
	}

	// Pass 1: row equilibration over the structural coefficients, and the
	// count of each column's entries that stay nonzero once scaled.
	for i, c := range p.cons {
		mx := 0.0
		for _, t := range c.terms {
			if a := math.Abs(t.Coef); a > mx {
				mx = a
			}
		}
		s := 1.0
		if mx > 0 && (mx < 1e-3 || mx > 1e3) {
			s = 1 / mx
		}
		e.rowMult[i] = s
		e.bvec[i] = c.rhs * s
		for _, t := range c.terms {
			if t.Coef*s != 0 {
				e.colLen[t.Var]++
			}
		}
	}
	// Every slack and artificial column holds one entry.
	for j := n; j < ncap; j++ {
		e.colLen[j] = 1
	}
	e.placeColumns()

	// Pass 2: scatter the scaled entries, rows ascending within each column.
	for j := range e.colLen {
		e.colLen[j] = 0
	}
	for i, c := range p.cons {
		s := e.rowMult[i]
		for _, t := range c.terms {
			if v := t.Coef * s; v != 0 {
				e.push(int(t.Var), i, v)
			}
		}
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
	for i, c := range p.cons {
		e.slackOf[i], e.artOf[i] = -1, -1
		switch c.rel {
		case LE:
			e.slackOf[i] = e.addCol(i, 1)
		case GE:
			e.slackOf[i] = e.addCol(i, -1)
		}
	}
	return e
}

// placeColumns lays out the columns, whose lengths colLen holds, over
// pieces of at most maxPieceBytes of values: each column is consecutive
// within one piece, and a piece holds the columns that fit in it in
// order, so it is exactly as long as they are. colLen is left as it was.
func (e *revisedEngine) placeColumns() {
	perPiece := max(maxPieceBytes/8, e.m) // a column never exceeds m entries
	e.colShift = uint(bits.Len(uint(perPiece)))
	total := 0
	for _, k := range e.colLen {
		total += int(k)
	}
	rs := pieces[int32]{left: total}
	vs := pieces[float64]{left: total}
	piece, at := 0, 0
	for j, k := range e.colLen {
		if at+int(k) > perPiece {
			e.colRows = append(e.colRows, rs.take(at))
			e.colVals = append(e.colVals, vs.take(at))
			piece, at = piece+1, 0
		}
		e.colAt[j] = int32(piece<<e.colShift | at)
		at += int(k)
	}
	e.colRows = append(e.colRows, rs.take(at))
	e.colVals = append(e.colVals, vs.take(at))
}

// push appends the entry (row, v) to column j.
func (e *revisedEngine) push(j, row int, v float64) {
	at := int(e.colAt[j]) + int(e.colLen[j])
	p, o := at>>e.colShift, at&(1<<e.colShift-1)
	e.colRows[p][o], e.colVals[p][o] = int32(row), v
	e.colLen[j]++
}

// addCol appends a nonbasic column at its lower bound [0, +Inf) with zero
// cost and the single entry v in row, and returns its index.
func (e *revisedEngine) addCol(row int, v float64) int {
	j := len(e.status)
	e.lo = append(e.lo, 0)
	e.hi = append(e.hi, math.Inf(1))
	e.cost = append(e.cost, 0)
	e.status = append(e.status, atLower)
	e.xval = append(e.xval, 0)
	e.push(j, row, v)
	return j
}

// newRevised builds a cold engine: equality form, equilibrated rows,
// slacks, artificials, and the slack/artificial starting basis. Columns are
// built directly in sparse form, with no dense staging matrix.
func newRevised(p *Problem) *revisedEngine {
	e := newEngineShell(p)
	m, n := e.m, e.n

	// Initial basis: slack where its value is admissible, else artificial,
	// flipping rows so basic values are non-negative. A flipped row's
	// rowMult turns negative (it is positive before). The residuals
	// rhs − Σ_j A_j x_j accumulate column-by-column in ascending j — the
	// same per-row subtraction order as a dense row scan.
	residual := e.resid // recomputeXB's scratch, free until the first solve
	copy(residual, e.bvec)
	for j := 0; j < n; j++ {
		x := e.xval[j]
		if x == 0 {
			continue
		}
		rows, vals := e.col(j)
		for k, i := range rows {
			residual[i] -= vals[k] * x
		}
	}
	flips := false
	for i, c := range p.cons {
		r := residual[i]
		if s := e.slackOf[i]; s >= 0 {
			coef := 1.0
			if c.rel == GE {
				coef = -1.0
			}
			if sv := r / coef; sv >= 0 {
				if coef < 0 {
					e.flip(i)
					flips = true
				}
				e.status[s] = basic
				e.basis[i] = s
				e.xB[i] = sv
				continue
			}
		}
		if r < 0 {
			e.flip(i)
			flips = true
			r = -r
		}
		// The artificial enters post-flip with +1.
		j := e.addCol(i, 1)
		e.artOf[i] = j
		e.status[j] = basic
		e.basis[i] = j
		e.xB[i] = r
	}
	// The artificial region starts after structural + slack columns.
	e.artStart = n
	for _, s := range e.slackOf {
		if s >= 0 {
			e.artStart++
		}
	}
	// Apply row flips to structural and slack columns. Artificials were
	// added with +1 after their row's flip was decided, so they are
	// excluded.
	if flips {
		for j := 0; j < e.artStart; j++ {
			rows, vals := e.col(j)
			for k, i := range rows {
				if e.rowMult[i] < 0 {
					vals[k] = -vals[k]
				}
			}
		}
	}

	e.ncol = len(e.status)

	// Identity basis inverse: after the row flips every initial basic
	// column (slack or artificial) carries +1 on its own row, so B = I,
	// every column implicit.
	e.binv = make([][]float64, m)

	e.cvec = e.cvec[:e.ncol]
	e.syncJournal(p) // built from p's current state: pending edits covered
	return e
}

// flip negates row i of the setup problem: its multiplier and right-hand
// side here, its column entries once every flip is known.
func (e *revisedEngine) flip(i int) {
	e.rowMult[i] = -e.rowMult[i]
	e.bvec[i] = -e.bvec[i]
}

// rowProducts sets out[j] = A_j·v for every column j by scattering the
// rows r with v[r] ≠ 0, in ascending r: the terms of p's row r, each
// scaled by rowMult[r] (bit for bit the entry column j stores), then its
// slack and artificial entries. Column j thus receives its products in
// the order of its own (ascending) entries, the order a column-by-column
// dot product sums them in, and a skipped row, or an entry the columns
// drop as zero, adds only an exact zero to a sum that starts at +0: out[j]
// is bit-identical to that dot product, at the cost of the rows v touches
// instead of all of A.
func (e *revisedEngine) rowProducts(v, out []float64) {
	out = out[:e.ncol]
	for j := range out {
		out[j] = 0
	}
	for r, vr := range v {
		if vr == 0 {
			continue
		}
		s := e.rowMult[r]
		for _, t := range e.rows[r].terms {
			out[t.Var] += t.Coef * s * vr
		}
		if j := e.slackOf[r]; j >= 0 {
			_, vals := e.col(j)
			out[j] += vals[0] * vr
		}
		if j := e.artOf[r]; j >= 0 {
			out[j] += vr // the artificial's +1
		}
	}
}

// materialize makes column c of B^{-1} explicit as the unit column e_c
// and returns it.
func (e *revisedEngine) materialize(c int) []float64 {
	col := e.colPieces.take(e.m)
	col[c] = 1
	e.binv[c] = col
	e.explicit = append(e.explicit, c)
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
	rows, vals := e.col(j)
	for k, r := range rows {
		v := vals[k]
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
			if !e.refactorizeOrStop() {
				return IterationLimit
			}
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
			atLo := e.status[j] == atLower
			if atLo && dj >= 0 || !atLo && dj <= 0 {
				continue // scores at most 0, never above priceTol
			}
			denom := math.Max(1+math.Abs(e.cvec[j])+math.Abs(dot), floor)
			var score float64
			if atLo {
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
			// from a few rank-one updates is at machine-epsilon scale. A
			// failed refactorization leaves the count where it was, so an
			// optimum is never declared on an inverse that did not
			// refactorize: the confirmation repeats and the second failure
			// ends the solve.
			if e.stalePivots >= confirmPivots {
				if !e.refactorizeOrStop() {
					return IterationLimit
				}
				continue
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

// refactorizeOrStop refactorizes inside a solve and reports whether the
// solve may go on. A failed refactorization leaves the product-form
// inverse in place, and the solve may pivot on it until its next
// refactorization: a pivot on an entry that is rounding noise can make B
// singular while that inverse stays a usable operator, and the dependent
// column leaves within a few pivots (a paper sf S1 solve of scenario seed
// 9000764 failed at pivot 64 and confirmed its optimum at pivot 75). A
// second failure in a row means the basis did not recover, and the solve
// ends without a verdict (IterationLimit) instead of cycling to the
// safety cap on a stale inverse.
func (e *revisedEngine) refactorizeOrStop() bool {
	if e.refactorize() {
		e.refacFailed = false
		return true
	}
	if e.refacFailed {
		return false
	}
	e.refacFailed = true
	return true
}

// refactorize rebuilds B^{-1} from the basis columns by Gauss-Jordan
// elimination and recomputes the basic values, absorbing the numerical
// drift of long pivot sequences. It reports whether the basis matrix was
// invertible; a basis that is not (numerically singular) leaves the
// previous inverse, the basic values and stalePivots as they were.
func (e *revisedEngine) refactorize() bool {
	m := e.m
	// Assemble [B | I] in the cached workspace (a warm solver refactorizes
	// many times over the engine's lifetime; reallocating m×2m each call
	// shows up as GC pressure). Its rows are carved from pieces.
	if e.refacWork == nil {
		e.refacWork = make([][]float64, m)
		rows := pieces[float64]{left: 2 * m * m}
		for i := range e.refacWork {
			e.refacWork[i] = rows.take(2 * m)
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
		rows, vals := e.col(b)
		for k, r := range rows {
			work[r][pos] = vals[k]
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
		x := e.xval[j]
		if e.status[j] == basic || x == 0 {
			continue
		}
		rows, vals := e.col(j)
		for k, r := range rows {
			resid[r] -= vals[k] * x
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
// solve with a fresh budget, matching one-shot Solve semantics. It reports
// false when a due refactorization fails: the basis is numerically
// singular, and the caller solves cold instead of pivoting on the stale
// inverse.
func (e *revisedEngine) refresh(p *Problem) bool {
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
		return e.refactorize() // also recomputes xB
	}
	if !incremental {
		e.recomputeXB()
		return true
	}
	e.staleRefreshes++
	if e.staleRefreshes >= confirmPivots {
		e.recomputeXB() // absorb incremental-update float drift
	}
	return true
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
			if !e.refactorizeOrStop() {
				return IterationLimit
			}
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
			if !e.refactorizeOrStop() {
				return IterationLimit
			}
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
