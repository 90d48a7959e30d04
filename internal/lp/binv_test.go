package lp

import (
	"fmt"
	"math"
	"testing"

	"greencell/internal/rng"
)

// densifyBinv materializes every implicit row of e's basis inverse: the
// eager m×m layout in which the inverse starts as an explicit identity.
func densifyBinv(e *revisedEngine) {
	for i := range e.binv {
		e.binvRow(i)
	}
}

// inverseRow returns row i of e's basis inverse with an implicit row
// expanded to the unit row e_i.
func inverseRow(e *revisedEngine, i int) []float64 {
	if row := e.binv[i]; row != nil {
		return row
	}
	row := make([]float64, e.m)
	row[i] = 1
	return row
}

// requireInverse checks B⁻¹·B ≈ I for e's current basis, implicit rows
// expanded.
func requireInverse(t *testing.T, e *revisedEngine, label string) {
	t.Helper()
	for i := 0; i < e.m; i++ {
		row := inverseRow(e, i)
		for pos, b := range e.basis {
			want := 0.0
			if pos == i {
				want = 1
			}
			if got := e.colDot(b, row); math.Abs(got-want) > 1e-8 {
				t.Fatalf("%s: (B⁻¹B)[%d][%d] = %v, want %v", label, i, pos, got, want)
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
	p.SetVarBounds(VarID(src.Intn(p.NumVars())), 1, 1)
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
// implicit rows and pivot updates restricted to the pivot row's nonzeros
// must skip only products with a zero factor, so every solve, cold and
// warm (primal and dual simplex), is bit-identical to the same solve on an
// engine whose inverse is fully materialized from the start.
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

// TestLazyInverseAfterEveryPivot checks B⁻¹·B ≈ I, implicit rows
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
		// A refactorization makes every row explicit.
		if _, e := inverseRun(c, false, int64(trial), 0, 0); e.refactorize() {
			for i, row := range e.binv {
				if row == nil {
					t.Fatalf("trial %d: row %d implicit after refactorization", trial, i)
				}
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

// TestColdSolveMaterializesFewRows pins the point of the lazy inverse: a
// cold solve of an S1-shaped LP writes only the rows its pivots touch, so
// it materializes fewer than m rows instead of allocating all m².
func TestColdSolveMaterializesFewRows(t *testing.T) {
	p := s1ShapedLP(rng.New(2), 30, 2, 2)
	e := newRevised(p)
	if st := e.solve(); st != Optimal {
		t.Fatalf("status %v", st)
	}
	explicit := 0
	for _, row := range e.binv {
		if row != nil {
			explicit++
		}
	}
	t.Logf("%d of %d rows materialized after %d iterations", explicit, e.m, e.iters)
	if explicit >= e.m {
		t.Fatalf("cold solve materialized %d of %d inverse rows", explicit, e.m)
	}
}
