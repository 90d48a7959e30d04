package lp

import "math"

// tableau is the dense simplex working state. Columns are ordered:
// structural variables, then slacks/surpluses, then artificials.
type tableau struct {
	m    int // rows
	n    int // structural variables
	ncol int // total columns

	// T is the current dictionary B^{-1}A, row-major (m rows of ncol).
	T [][]float64
	// d is the current reduced-cost row for the active phase objective.
	d []float64
	// cost is the phase-2 objective (sense-adjusted to minimize).
	cost []float64

	lo, hi []float64
	status []colStatus
	// xval holds the value of each nonbasic column (its active bound).
	xval []float64
	// basis[i] is the column basic in row i; xB[i] its value.
	basis []int
	xB    []float64

	nart     int // number of artificial columns (they occupy the tail)
	artStart int

	// iters counts simplex iterations (pivots + bound flips) across both
	// phases, reported on Solution.Iterations.
	iters int
	// limit, when positive, caps iters across both phases (the caller's
	// solve budget from Problem.SetIterationLimit).
	limit int
}

// newTableau converts p into equality standard form with slacks and
// artificials and installs an initial basic feasible point for phase 1.
func newTableau(p *Problem) *tableau {
	m := len(p.cons)
	n := len(p.vars)

	// Count slacks: one per inequality row.
	nslack := 0
	for _, c := range p.cons {
		if c.rel != EQ {
			nslack++
		}
	}
	// Reserve space for up to one artificial per row; unused ones are
	// simply never created.
	maxCols := n + nslack + m

	t := &tableau{
		m:      m,
		n:      n,
		limit:  p.maxIters,
		T:      make([][]float64, m),
		lo:     make([]float64, 0, maxCols),
		hi:     make([]float64, 0, maxCols),
		status: make([]colStatus, 0, maxCols),
		xval:   make([]float64, 0, maxCols),
		cost:   make([]float64, 0, maxCols),
		basis:  make([]int, m),
		xB:     make([]float64, m),
	}

	sign := 1.0
	if p.sense == Maximize {
		sign = -1.0
	}
	for _, v := range p.vars {
		lo, hi := v.lo, v.hi
		if lo > hi { // numerically-equal inverted box: pin
			lo, hi = hi, lo
		}
		t.addCol(lo, hi, sign*v.cost)
	}

	// Dense rows, slack columns, RHS.
	rhs := make([]float64, m)
	for i := range t.T {
		t.T[i] = make([]float64, maxCols)
	}
	for i, c := range p.cons {
		row := t.T[i]
		for _, term := range c.terms {
			row[term.Var] += term.Coef
		}
		rhs[i] = c.rhs
	}
	// Row equilibration: scale each row so its largest structural
	// coefficient has magnitude 1. Row scaling leaves the primal solution
	// unchanged and keeps badly-scaled models (e.g. SINR rows mixing
	// ~1e-12 gains with ~1e7 objective weights) inside the pivot
	// tolerances. Done before slack insertion so slack columns keep ±1.
	for i := range p.cons {
		row := t.T[i]
		maxAbs := 0.0
		for j := 0; j < n; j++ {
			if a := math.Abs(row[j]); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs > 0 && (maxAbs < 1e-3 || maxAbs > 1e3) {
			inv := 1 / maxAbs
			for j := 0; j < n; j++ {
				if row[j] != 0 {
					row[j] *= inv
				}
			}
			rhs[i] *= inv
		}
	}
	slackOf := make([]int, m)
	for i := range slackOf {
		slackOf[i] = -1
	}
	for i, c := range p.cons {
		switch c.rel {
		case LE:
			j := t.addCol(0, math.Inf(1), 0)
			t.T[i][j] = 1
			slackOf[i] = j
		case GE:
			j := t.addCol(0, math.Inf(1), 0)
			t.T[i][j] = -1
			slackOf[i] = j
		}
	}

	// Initial point: every column nonbasic at its lower bound.
	// Residual r_i = rhs_i - A_i . x  determines the initial basic column.
	t.artStart = len(t.status)
	for i := range p.cons {
		r := rhs[i]
		for j := 0; j < t.artStart; j++ {
			if t.T[i][j] != 0 {
				r -= t.T[i][j] * t.xval[j]
			}
		}
		if s := slackOf[i]; s >= 0 {
			// Slack value that would balance the row.
			sv := r / t.T[i][s] // coefficient is ±1
			if sv >= 0 {
				// Normalize the row so the basic (slack) column has +1.
				if t.T[i][s] < 0 {
					scaleRow(t.T[i], -1)
					rhs[i] = -rhs[i]
				}
				t.makeBasic(s, i, sv)
				continue
			}
		}
		// Need an artificial. Flip the row so the residual is >= 0.
		if r < 0 {
			scaleRow(t.T[i], -1)
			rhs[i] = -rhs[i]
			r = -r
		}
		j := t.addCol(0, math.Inf(1), 0)
		t.T[i][j] = 1
		t.makeBasic(j, i, r)
	}
	t.ncol = len(t.status)
	t.nart = t.ncol - t.artStart
	// Trim rows to the realized column count.
	for i := range t.T {
		t.T[i] = t.T[i][:t.ncol]
	}
	t.d = make([]float64, t.ncol)
	return t
}

func (t *tableau) addCol(lo, hi, cost float64) int {
	t.lo = append(t.lo, lo)
	t.hi = append(t.hi, hi)
	t.cost = append(t.cost, cost)
	t.status = append(t.status, atLower)
	t.xval = append(t.xval, lo)
	return len(t.status) - 1
}

func (t *tableau) makeBasic(j, row int, value float64) {
	t.status[j] = basic
	t.basis[row] = j
	t.xB[row] = value
}

func scaleRow(row []float64, f float64) {
	for k := range row {
		if row[k] != 0 {
			row[k] *= f
		}
	}
}

// solve runs phase 1 then phase 2 and returns the final status.
func (t *tableau) solve() Status {
	if t.m == 0 {
		// No constraints: each variable sits at whichever bound its cost
		// prefers; unbounded if an improving direction has no bound.
		for j := 0; j < t.n; j++ {
			if t.cost[j] < 0 {
				if math.IsInf(t.hi[j], 1) {
					return Unbounded
				}
				t.status[j] = atUpper
				t.xval[j] = t.hi[j]
			}
		}
		return Optimal
	}

	if t.nart > 0 {
		// Phase 1: minimize the sum of artificials.
		phase1 := make([]float64, t.ncol)
		for j := t.artStart; j < t.ncol; j++ {
			phase1[j] = 1
		}
		t.computeReducedCosts(phase1)
		st := t.iterate()
		if st != Optimal {
			// Phase-1 objective is bounded below by zero, so Unbounded
			// cannot legitimately occur; propagate limit errors.
			if st == IterationLimit {
				return IterationLimit
			}
			return Infeasible
		}
		if t.artificialResidual() > feasTol {
			return Infeasible
		}
		t.driveOutArtificials()
		// Pin artificials to zero so they never re-enter.
		for j := t.artStart; j < t.ncol; j++ {
			t.hi[j] = 0
			if t.status[j] != basic {
				t.status[j] = atLower
				t.xval[j] = 0
			}
		}
	}

	t.computeReducedCosts(t.cost)
	return t.iterate()
}

// artificialResidual returns the total value carried by artificial columns.
func (t *tableau) artificialResidual() float64 {
	sum := 0.0
	for i, j := range t.basis {
		if j >= t.artStart {
			sum += math.Abs(t.xB[i])
		}
	}
	for j := t.artStart; j < t.ncol; j++ {
		if t.status[j] != basic {
			sum += math.Abs(t.xval[j])
		}
	}
	return sum
}

// driveOutArtificials pivots basic artificials (all at value ~0 after a
// feasible phase 1) out of the basis where a usable pivot exists. Rows with
// no eligible pivot are redundant; their artificial stays basic at zero.
func (t *tableau) driveOutArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		// Find a non-artificial, nonbasic column with a usable pivot.
		for j := 0; j < t.artStart; j++ {
			if t.status[j] == basic {
				continue
			}
			if math.Abs(t.T[i][j]) > 1e-7 {
				t.pivot(i, j, t.xval[j])
				break
			}
		}
	}
}

// computeReducedCosts sets t.d = cost - y^T T where y = cost over the basis.
func (t *tableau) computeReducedCosts(cost []float64) {
	copy(t.d, cost)
	for i := 0; i < t.m; i++ {
		cb := cost[t.basis[i]]
		if cb == 0 {
			continue
		}
		row := t.T[i]
		for j := 0; j < t.ncol; j++ {
			if row[j] != 0 {
				t.d[j] -= cb * row[j]
			}
		}
	}
	// Basic columns have exactly-zero reduced cost by construction.
	for _, j := range t.basis {
		t.d[j] = 0
	}
}

// iterate runs primal simplex iterations until optimality, unboundedness,
// or the iteration cap, maintaining the reduced-cost row d across pivots.
func (t *tableau) iterate() Status {
	maxIter := 200*(t.m+t.ncol) + 2000
	blandAfter := 40 * (t.m + t.ncol)

	for iter := 0; iter < maxIter; iter++ {
		useBland := iter >= blandAfter
		q := t.chooseEntering(useBland)
		if q < 0 {
			t.snapBasics()
			return Optimal
		}
		// Another pivot is needed; stop if the caller's budget is spent.
		if t.limit > 0 && t.iters >= t.limit {
			return IterationLimit
		}
		t.iters++
		// sigma: +1 entering increases from lower, -1 decreases from upper.
		sigma := 1.0
		if t.status[q] == atUpper {
			sigma = -1.0
		}

		// Ratio test.
		limit := math.Inf(1)
		if !math.IsInf(t.hi[q], 1) {
			limit = t.hi[q] - t.lo[q] // full bound flip
		}
		leave := -1           // row index of leaving variable
		leaveToUpper := false // which bound the leaving variable hits
		for i := 0; i < t.m; i++ {
			a := sigma * t.T[i][q]
			if a > pivTol {
				// Basic value decreases toward its lower bound.
				b := t.basis[i]
				room := t.xB[i] - t.lo[b]
				if room < 0 {
					room = 0
				}
				if step := room / a; step < limit-boundEps ||
					(step < limit+boundEps && t.betterLeaving(leave, i, q, useBland)) {
					if step < limit {
						limit = step
					}
					leave = i
					leaveToUpper = false
				}
			} else if a < -pivTol {
				b := t.basis[i]
				if math.IsInf(t.hi[b], 1) {
					continue
				}
				room := t.hi[b] - t.xB[i]
				if room < 0 {
					room = 0
				}
				if step := room / -a; step < limit-boundEps ||
					(step < limit+boundEps && t.betterLeaving(leave, i, q, useBland)) {
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
			// Bound flip: q runs from one bound to the other.
			delta := limit
			for i := 0; i < t.m; i++ {
				if t.T[i][q] != 0 {
					t.xB[i] -= sigma * delta * t.T[i][q]
				}
			}
			if t.status[q] == atLower {
				t.status[q] = atUpper
				t.xval[q] = t.hi[q]
			} else {
				t.status[q] = atLower
				t.xval[q] = t.lo[q]
			}
			continue
		}

		// Pivot q into the basis at row leave.
		delta := limit
		enterVal := t.xval[q] + sigma*delta
		leaveVar := t.basis[leave]
		for i := 0; i < t.m; i++ {
			if i != leave && t.T[i][q] != 0 {
				t.xB[i] -= sigma * delta * t.T[i][q]
			}
		}
		if leaveToUpper {
			t.status[leaveVar] = atUpper
			t.xval[leaveVar] = t.hi[leaveVar]
		} else {
			t.status[leaveVar] = atLower
			t.xval[leaveVar] = t.lo[leaveVar]
		}
		t.pivot(leave, q, enterVal)
	}
	return IterationLimit
}

// betterLeaving breaks ratio-test ties: under Bland's rule pick the lowest
// variable index (anti-cycling); otherwise prefer the larger pivot for
// numerical stability.
func (t *tableau) betterLeaving(cur, cand, q int, bland bool) bool {
	if cur < 0 {
		return true
	}
	if bland {
		return t.basis[cand] < t.basis[cur]
	}
	return math.Abs(t.T[cand][q]) > math.Abs(t.T[cur][q])
}

// chooseEntering returns an improving nonbasic column, or -1 at optimality.
func (t *tableau) chooseEntering(bland bool) int {
	best := -1
	bestScore := priceTol
	for j := 0; j < t.ncol; j++ {
		if t.status[j] == basic {
			continue
		}
		if t.hi[j]-t.lo[j] <= boundEps {
			continue // pinned column cannot move
		}
		var score float64
		switch t.status[j] {
		case atLower:
			score = -t.d[j]
		case atUpper:
			score = t.d[j]
		}
		if score > bestScore {
			if bland {
				return j
			}
			best = j
			bestScore = score
		}
	}
	return best
}

// pivot makes column q basic in row r with value enterVal, eliminating q
// from all other rows and from the reduced-cost row.
func (t *tableau) pivot(r, q int, enterVal float64) {
	prow := t.T[r]
	piv := prow[q]
	inv := 1.0 / piv
	for k := 0; k < t.ncol; k++ {
		if prow[k] != 0 {
			prow[k] *= inv
		}
	}
	prow[q] = 1 // kill roundoff
	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		f := t.T[i][q]
		if f == 0 {
			continue
		}
		row := t.T[i]
		for k := 0; k < t.ncol; k++ {
			if prow[k] != 0 {
				row[k] -= f * prow[k]
			}
		}
		row[q] = 0
	}
	if f := t.d[q]; f != 0 {
		for k := 0; k < t.ncol; k++ {
			if prow[k] != 0 {
				t.d[k] -= f * prow[k]
			}
		}
		t.d[q] = 0
	}
	t.status[q] = basic
	t.basis[r] = q
	t.xB[r] = enterVal
}

// snapBasics clamps basic values onto their boxes to absorb roundoff.
func (t *tableau) snapBasics() {
	for i, j := range t.basis {
		if t.xB[i] < t.lo[j] {
			t.xB[i] = t.lo[j]
		}
		if t.xB[i] > t.hi[j] {
			t.xB[i] = t.hi[j]
		}
	}
}

// structuralValues extracts the primal solution for structural columns.
func (t *tableau) structuralValues() []float64 {
	x := make([]float64, t.n)
	for j := 0; j < t.n; j++ {
		x[j] = t.xval[j]
	}
	for i, j := range t.basis {
		if j < t.n {
			x[j] = t.xB[i]
		}
	}
	return x
}
