package lp

import (
	"fmt"
	"math"
	"testing"

	"greencell/internal/rng"
)

// densifyBinv materializes every implicit column of e's basis inverse:
// the eager m×m layout in which the inverse starts as an explicit
// identity.
func densifyBinv(e *revisedEngine) {
	for c, col := range e.binv {
		if col == nil {
			e.materialize(c)
		}
	}
}

// inverseCol returns column c of e's basis inverse with an implicit
// column expanded to the unit column e_c.
func inverseCol(e *revisedEngine, c int) []float64 {
	if col := e.binv[c]; col != nil {
		return col
	}
	col := make([]float64, e.m)
	col[c] = 1
	return col
}

// colDot is the column-wise reference product A_j·v (v indexed by row),
// summed over column j's entries in their stored (ascending row) order.
func colDot(e *revisedEngine, j int, v []float64) float64 {
	col := &e.cols[j]
	sum := 0.0
	for k, i := range col.idx {
		sum += col.val[k] * v[i]
	}
	return sum
}

// requireInverse checks B·B⁻¹ ≈ I for e's current basis, column by
// column, implicit columns expanded.
func requireInverse(t *testing.T, e *revisedEngine, label string) {
	t.Helper()
	prod := make([]float64, e.m)
	for c := 0; c < e.m; c++ {
		inv := inverseCol(e, c)
		for i := range prod {
			prod[i] = 0
		}
		for pos, b := range e.basis {
			col := &e.cols[b]
			for k, i := range col.idx {
				prod[i] += col.val[k] * inv[pos]
			}
		}
		for i, got := range prod {
			want := 0.0
			if i == c {
				want = 1
			}
			if math.Abs(got-want) > 1e-8 {
				t.Fatalf("%s: (B·B⁻¹)[%d][%d] = %v, want %v", label, i, c, got, want)
			}
		}
	}
}

// exactCase is an LP of the exactness corpus with the edits its warm
// re-solves apply between rounds.
type exactCase struct {
	p    *Problem
	edit func(*rng.Source, *Problem)
}

// inverseRun solves c's LP cold, then re-solves it warm after each of
// rounds batches of c's edits drawn from seed, all on one engine, and
// returns every solution. With eager set, every row of the inverse is
// materialized at construction. The run stops early at a non-optimal solve
// or a warm attempt that would fall back cold (the fallback builds a new
// engine). A positive warmLimit caps the iterations of the last warm
// round, so a caller can stop the run after any pivot of it.
func inverseRun(c exactCase, eager bool, seed int64, rounds, warmLimit int) ([]*Solution, *revisedEngine) {
	p := c.p.Clone()
	e := newRevised(p)
	if eager {
		densifyBinv(e)
	}
	sols := []*Solution{p.solution(e, e.solve())}
	src := rng.New(seed)
	w := NewWarmSolver(p)
	for r := 0; r < rounds && sols[len(sols)-1].Status == Optimal; r++ {
		c.edit(src, p)
		if r == rounds-1 && warmLimit > 0 {
			p.SetIterationLimit(warmLimit)
		}
		e.refresh(p)
		sol, ok := w.warmAttempt(e)
		if !ok {
			break
		}
		sols = append(sols, sol)
	}
	return sols, e
}

// requireBitIdentical fails unless a and b agree bit for bit: status,
// iterations, objective, values, and duals.
func requireBitIdentical(t *testing.T, label string, a, b *Solution) {
	t.Helper()
	if a.Status != b.Status || a.Iterations != b.Iterations {
		t.Fatalf("%s: status/iterations %v/%d vs %v/%d", label, a.Status, a.Iterations, b.Status, b.Iterations)
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.Objective, b.Objective) || len(a.x) != len(b.x) || len(a.y) != len(b.y) {
		t.Fatalf("%s: objective %v vs %v", label, a.Objective, b.Objective)
	}
	for j := range a.x {
		if !same(a.x[j], b.x[j]) {
			t.Fatalf("%s: x[%d] = %v vs %v", label, j, a.x[j], b.x[j])
		}
	}
	for i := range a.y {
		if !same(a.y[i], b.y[i]) {
			t.Fatalf("%s: y[%d] = %v vs %v", label, i, a.y[i], b.y[i])
		}
	}
}

// s1ShapedLP builds an LP with the structure of the S1 scheduling
// relaxation (internal/sched buildLP) over a random planar network: nodes
// in a square, links to each node's nearest neighbours on every band, path
// loss d⁻⁴, and one variable per (link, band) pair that closes
// interference-free. Rows are the single-radio node rows and one big-M
// SINR row per pair over the same-band pairs of other transmitters whose
// interference at the receiver is above the noise floor, each normalized
// to a unit right-hand side.
func s1ShapedLP(src *rng.Source, nodes, neighbours, bands int) *Problem {
	const (
		side  = 10.0
		gamma = 2.0 // SINR threshold
		noise = 0.1 // per band, against unit transmit power
	)
	px := make([]float64, nodes)
	py := make([]float64, nodes)
	for i := range px {
		px[i], py[i] = src.Uniform(0, side), src.Uniform(0, side)
	}
	gain := func(a, b int) float64 {
		d2 := (px[a]-px[b])*(px[a]-px[b]) + (py[a]-py[b])*(py[a]-py[b])
		return 1 / (d2*d2 + 1e-9)
	}
	type pair struct{ from, to, band int }
	var pairs []pair
	for a := 0; a < nodes; a++ {
		// The nearest neighbours of a, by selection.
		used := make([]bool, nodes)
		used[a] = true
		for k := 0; k < neighbours && k < nodes-1; k++ {
			best := -1
			for b := 0; b < nodes; b++ {
				if !used[b] && (best < 0 || gain(a, b) > gain(a, best)) {
					best = b
				}
			}
			used[best] = true
			if gain(a, best)/noise < gamma {
				continue // the screen: cannot close even without interference
			}
			for band := 0; band < bands; band++ {
				pairs = append(pairs, pair{a, best, band})
			}
		}
	}
	p := NewProblem(Maximize)
	ids := make([]VarID, len(pairs))
	for k := range pairs {
		ids[k] = p.AddVar("a", 0, 1, src.Uniform(1e5, 1e7))
	}
	byNode := make([][]Term, nodes)
	for k, pr := range pairs {
		byNode[pr.from] = append(byNode[pr.from], Term{Var: ids[k], Coef: 1})
		byNode[pr.to] = append(byNode[pr.to], Term{Var: ids[k], Coef: 1})
	}
	for _, terms := range byNode {
		if len(terms) > 1 {
			p.AddConstraint("radio", LE, 1, terms...)
		}
	}
	for k, pr := range pairs {
		bigM := noise
		for o := 0; o < nodes; o++ {
			if o != pr.from && o != pr.to && gain(o, pr.to) >= noise {
				bigM += gain(o, pr.to)
			}
		}
		bigM *= gamma
		rhs := bigM - gamma*noise
		terms := []Term{{Var: ids[k], Coef: (bigM - gain(pr.from, pr.to)) / rhs}}
		for k2, pr2 := range pairs {
			if k2 == k || pr2.band != pr.band || pr2.from == pr.from || pr2.from == pr.to {
				continue
			}
			if g := gain(pr2.from, pr.to); g >= noise { // beyond the noise floor: out of range
				terms = append(terms, Term{Var: ids[k2], Coef: gamma * g / rhs})
			}
		}
		p.AddConstraint("sinr", LE, 1, terms...)
	}
	return p
}

// fixPair is the edit of a sequential-fix round: one variable of a
// [0,1]-boxed LP pinned to 1.
func fixPair(src *rng.Source, p *Problem) {
	p.SetVarBounds(VarID(src.Intn(len(p.vars))), 1, 1)
}

// exactnessCorpus is the random agreement corpus, edited like the warm
// property tests, plus an S1-shaped sparse LP edited like sequential-fix
// rounds.
func exactnessCorpus() []exactCase {
	var corpus []exactCase
	for _, p := range agreementCorpus() {
		corpus = append(corpus, exactCase{p, mutateForWarm})
	}
	return append(corpus, exactCase{s1ShapedLP(rng.New(2), 30, 2, 2), fixPair})
}

// TestLazyInverseMatchesEager pins the lazy inverse to the eager layout:
// implicit columns and eta updates restricted to the nonzeros of dir and
// of the pivot row must skip only products with a zero factor, so every
// solve, cold and warm (primal and dual simplex), is bit-identical to the
// same solve on an engine whose inverse is fully materialized from the
// start.
func TestLazyInverseMatchesEager(t *testing.T) {
	for trial, c := range exactnessCorpus() {
		lazy, _ := inverseRun(c, false, int64(trial), 6, 0)
		eager, _ := inverseRun(c, true, int64(trial), 6, 0)
		if len(lazy) != len(eager) {
			t.Fatalf("trial %d: %d lazy solves vs %d eager", trial, len(lazy), len(eager))
		}
		for r := range lazy {
			requireBitIdentical(t, fmt.Sprintf("trial %d round %d", trial, r), lazy[r], eager[r])
		}
	}
}

// TestLazyInverseAfterEveryPivot checks B·B⁻¹ ≈ I, implicit columns
// expanded, after every iteration of the cold solve and of the first warm
// re-solve of each corpus LP (the run is replayed with the iteration
// budget raised one step at a time), and after refactorizing the inverse a
// cold solve left partly implicit.
func TestLazyInverseAfterEveryPivot(t *testing.T) {
	for trial, c := range exactnessCorpus() {
		full, _ := inverseRun(c, false, int64(trial), 1, 0)
		for k := 1; k <= full[0].Iterations; k++ {
			q := c.p.Clone()
			q.SetIterationLimit(k)
			e := newRevised(q)
			e.solve()
			requireInverse(t, e, fmt.Sprintf("trial %d cold iteration %d", trial, k))
		}
		// A refactorization leaves implicit only columns that are exactly
		// unit columns (requireInverse checks that they are), and lists
		// every explicit one.
		if _, e := inverseRun(c, false, int64(trial), 0, 0); e.refactorize() {
			listed := 0
			for _, col := range e.binv {
				if col != nil {
					listed++
				}
			}
			if listed != len(e.explicit) {
				t.Fatalf("trial %d: %d explicit columns, %d listed", trial, listed, len(e.explicit))
			}
			requireInverse(t, e, fmt.Sprintf("trial %d refactorized", trial))
		}
		if len(full) < 2 {
			continue
		}
		for k := 1; k <= full[1].Iterations; k++ {
			_, e := inverseRun(c, false, int64(trial), 1, k)
			requireInverse(t, e, fmt.Sprintf("trial %d warm iteration %d", trial, k))
		}
	}
}

// TestColdSolveMaterializesFewColumns pins the point of the column-wise
// inverse: each pivot materializes at most the one column of its pivot
// row, so until the first refactorization a solve holds no more explicit
// columns than it has pivoted, and a cold solve of an S1-shaped LP ends
// with fewer than m.
func TestColdSolveMaterializesFewColumns(t *testing.T) {
	for trial, c := range exactnessCorpus() {
		full, _ := inverseRun(c, false, int64(trial), 1, 0)
		for k := 1; k <= full[0].Iterations; k++ {
			q := c.p.Clone()
			q.SetIterationLimit(k)
			e := newRevised(q)
			e.solve()
			listed := 0
			for _, col := range e.binv {
				if col != nil {
					listed++
				}
			}
			if listed != len(e.explicit) {
				t.Fatalf("trial %d iteration %d: %d explicit columns, %d listed", trial, k, listed, len(e.explicit))
			}
			if e.refacWork == nil && len(e.explicit) > e.stalePivots {
				t.Fatalf("trial %d iteration %d: %d explicit columns after %d pivots", trial, k, len(e.explicit), e.stalePivots)
			}
		}
	}
	p := s1ShapedLP(rng.New(2), 30, 2, 2)
	e := newRevised(p)
	if st := e.solve(); st != Optimal {
		t.Fatalf("status %v", st)
	}
	t.Logf("%d of %d columns materialized after %d iterations", len(e.explicit), e.m, e.iters)
	if len(e.explicit) >= e.m {
		t.Fatalf("cold solve materialized %d of %d inverse columns", len(e.explicit), e.m)
	}
}

// requireProductsMatch checks the engine's kernels against their
// reference definitions, bit for bit: rowProducts against colDot for the
// multipliers and for every row of B⁻¹ (the dual ratio test's ρ),
// computeY against an ascending-row accumulation of c_B[i]·(row i of
// B⁻¹), and applyBinv against the dot product of each row of B⁻¹ with
// A_j.
func requireProductsMatch(t *testing.T, e *revisedEngine, label string) {
	t.Helper()
	same := func(what string, j int, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %s[%d] = %v (%x), reference %v (%x)", label, what, j, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	m := e.m
	inv := make([][]float64, m) // inv[c] is column c, implicit ones expanded
	for c := range inv {
		inv[c] = inverseCol(e, c)
	}
	e.computeY()
	for c := 0; c < m; c++ {
		want := 0.0
		for i, b := range e.basis {
			if cb := e.cvec[b]; cb != 0 && inv[c][i] != 0 {
				want += cb * inv[c][i]
			}
		}
		same("y", c, e.y[c], want)
	}
	e.rowProducts(e.y, e.yA)
	for j := 0; j < e.ncol; j++ {
		same("A·y", j, e.yA[j], colDot(e, j, e.y))
	}
	for r := 0; r < m; r++ {
		e.binvRowInto(r, e.rho)
		for c := 0; c < m; c++ {
			same("ρ", c, e.rho[c], inv[c][r])
		}
		e.rowProducts(e.rho, e.rhoA)
		for j := 0; j < e.ncol; j++ {
			same("A·ρ", j, e.rhoA[j], colDot(e, j, e.rho))
		}
	}
	row := make([]float64, m)
	for j := 0; j < e.ncol; j++ {
		e.applyBinv(j, e.dir)
		for i := 0; i < m; i++ {
			for c := range row {
				row[c] = inv[c][i]
			}
			same("B⁻¹A_j", i, e.dir[i], colDot(e, j, row))
		}
	}
}

// TestKernelsMatchReference runs requireProductsMatch after every
// iteration of each corpus LP's cold solve and of its warm re-solves, so
// the kernels are checked on slack-basis inverses, on partly and fully
// explicit ones, and in both phases.
func TestKernelsMatchReference(t *testing.T) {
	for trial, c := range exactnessCorpus() {
		full, _ := inverseRun(c, false, int64(trial), 1, 0)
		for k := 1; k <= full[0].Iterations; k++ {
			q := c.p.Clone()
			q.SetIterationLimit(k)
			e := newRevised(q)
			e.solve()
			requireProductsMatch(t, e, fmt.Sprintf("trial %d cold iteration %d", trial, k))
		}
		_, e := inverseRun(c, false, int64(trial), 3, 0)
		requireProductsMatch(t, e, fmt.Sprintf("trial %d after warm rounds", trial))
		if e.refactorize() {
			requireProductsMatch(t, e, fmt.Sprintf("trial %d refactorized", trial))
		}
	}
}
