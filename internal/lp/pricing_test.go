package lp

import (
	"fmt"
	"math"
	"testing"

	"greencell/internal/rng"
)

// specialRowsLP has one row of every kind whose setup entries differ from
// its terms: equilibrated rows (largest |coefficient| above 1e3 and below
// 1e-3), flipped rows (GE, and LE or EQ with a negative right-hand side),
// EQ rows that start on an artificial, a row with a zero coefficient, a
// row whose scaled entry underflows to zero, and rows with repeated
// variables, whose repeats sum to zero in two of them (in one only when
// summed in order of appearance). With merged set every row is written
// with its repeats pre-summed in order of appearance.
func specialRowsLP(merged bool) *Problem {
	p := NewProblem(Maximize)
	x := make([]VarID, 6)
	for j := range x {
		x[j] = p.AddVar("x", 0, 1+float64(j), 1+0.5*float64(j))
	}
	row := func(rel Rel, rhs float64, terms, pre []Term) {
		if merged && pre != nil {
			terms = pre
		}
		p.AddConstraint("r", rel, rhs, terms...)
	}
	// sum adds in float64, left to right (untyped constant expressions
	// would be summed exactly and rounded once).
	sum := func(cs ...float64) float64 {
		s := cs[0]
		for _, c := range cs[1:] {
			s += c
		}
		return s
	}
	row(LE, 4e4, []Term{{x[0], 2.5e4}, {x[1], -3e3}, {x[2], 7}}, nil)
	row(LE, 3e-4, []Term{{x[1], 4e-4}, {x[3], -1e-5}}, nil)
	row(GE, 0.5, []Term{{x[0], 1}, {x[4], 0.25}}, nil)
	row(LE, -0.5, []Term{{x[2], -1}, {x[5], -2}}, nil)
	row(EQ, 1.5, []Term{{x[3], 1}, {x[4], 1}}, nil)
	row(EQ, -2, []Term{{x[1], -1}, {x[5], -1.5}}, nil)
	row(GE, 2e-3, []Term{{x[2], 1e-3}, {x[3], 0}, {x[4], 5e-4}}, nil)
	row(LE, 1e10, []Term{{x[0], 1e10}, {x[5], 1e-320}}, nil)
	row(LE, 9,
		[]Term{{x[0], 1.1}, {x[2], 2}, {x[0], -0.3}, {x[4], 1}, {x[0], 1e-17}, {x[2], 0.5}},
		[]Term{{x[0], sum(1.1, -0.3, 1e-17)}, {x[2], sum(2, 0.5)}, {x[4], 1}})
	row(GE, -3,
		[]Term{{x[5], 3e3}, {x[1], 1}, {x[5], -3e3}, {x[3], -2e3}},
		[]Term{{x[5], sum(3e3, -3e3)}, {x[1], 1}, {x[3], -2e3}})
	row(LE, 5,
		[]Term{{x[3], 1e16}, {x[1], 2}, {x[3], 1}, {x[3], -1e16}},
		[]Term{{x[3], sum(1e16, 1, -1e16)}, {x[1], 2}})
	return p
}

// requireRowProductsMatch checks rowProducts over p's own rows against the
// column-wise reference colDot, bit for bit, for every column and for
// each vector of vs.
func requireRowProductsMatch(t *testing.T, e *revisedEngine, label string, vs ...[]float64) {
	t.Helper()
	for k, v := range vs {
		e.rowProducts(v, e.yA)
		for j := 0; j < e.ncol; j++ {
			if got, want := e.yA[j], colDot(e, j, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: vector %d: A_%d·v = %v (%x), column reference %v (%x)",
					label, k, j, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// probeVectors returns row-indexed vectors for requireRowProductsMatch:
// random signs and scales with zeros of both signs, all ones, and one unit
// vector per row.
func probeVectors(src *rng.Source, m int) [][]float64 {
	var vs [][]float64
	for k := 0; k < 3; k++ {
		v := make([]float64, m)
		for i := range v {
			switch src.Intn(4) {
			case 0:
			case 1:
				v[i] = math.Copysign(0, -1)
			default:
				v[i] = src.Uniform(-1, 1) * math.Pow(10, float64(src.Intn(13)-6))
			}
		}
		vs = append(vs, v)
	}
	ones := make([]float64, m)
	for i := range ones {
		ones[i] = 1
	}
	vs = append(vs, ones)
	for i := 0; i < m; i++ {
		u := make([]float64, m)
		u[i] = 1
		vs = append(vs, u)
	}
	return vs
}

// requireEveryKind guards specialRowsLP: its engine must equilibrate,
// flip, start an artificial on an EQ row, and drop zero entries from the
// columns.
func requireEveryKind(t *testing.T, p *Problem, e *revisedEngine) {
	t.Helper()
	scaled, flipped, eqArt, dropped := 0, 0, 0, 0
	for i, c := range p.cons {
		if math.Abs(e.rowMult[i]) != 1 {
			scaled++
		}
		if e.rowMult[i] < 0 {
			flipped++
		}
		if c.rel == EQ && e.artOf[i] >= 0 {
			eqArt++
		}
		dropped += len(c.terms)
	}
	for j := 0; j < e.n; j++ {
		rows, _ := e.col(j)
		dropped -= len(rows)
	}
	if scaled < 2 || flipped < 2 || eqArt < 1 || dropped < 3 {
		t.Fatalf("special rows: scaled %d, flipped %d, EQ rows on artificials %d, dropped entries %d", scaled, flipped, eqArt, dropped)
	}
}

// TestRowProductsMatchColumns pins pricing over the problem's own rows to
// the setup columns: each term scaled by its row's multiplier (the
// equilibration scale, negated on a flipped row), plus the row's slack and
// artificial, must give every column exactly the dot product of its
// stored column, on the agreement corpus, an S1-shaped LP, and rows of
// every special kind, both fresh from construction and at the end of a
// solve.
func TestRowProductsMatchColumns(t *testing.T) {
	special := specialRowsLP(false)
	requireEveryKind(t, special, newRevised(special))
	problems := append(agreementCorpus(), s1ShapedLP(rng.New(2), 30, 2, 2), special)
	src := rng.New(31)
	for trial, p := range problems {
		if p.NumConstraints() == 0 {
			continue
		}
		e := newRevised(p)
		vs := probeVectors(src, e.m)
		label := fmt.Sprintf("problem %d", trial)
		requireRowProductsMatch(t, e, label+" cold", vs...)
		if st := e.solve(); st != Optimal && p == special {
			t.Fatalf("special rows: status %v", st)
		}
		e.computeY()
		requireRowProductsMatch(t, e, label+" solved", append(vs, e.y)...)
	}
}

// TestRepeatedTermsMerge builds the special rows once with repeated
// variables and once pre-merged: AddConstraint's merge must give the same
// rows, the same setup columns and multipliers bit for bit, and the same
// solve.
func TestRepeatedTermsMerge(t *testing.T) {
	p, q := specialRowsLP(false), specialRowsLP(true)
	for i := range p.cons {
		a, b := p.cons[i].terms, q.cons[i].terms
		if len(a) != len(b) {
			t.Fatalf("row %d: %d terms, pre-merged %d", i, len(a), len(b))
		}
		for k := range a {
			if a[k].Var != b[k].Var || math.Float64bits(a[k].Coef) != math.Float64bits(b[k].Coef) {
				t.Fatalf("row %d term %d: %v, pre-merged %v", i, k, a[k], b[k])
			}
		}
	}
	e, f := newRevised(p), newRevised(q)
	if e.ncol != f.ncol {
		t.Fatalf("%d columns, pre-merged %d", e.ncol, f.ncol)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for j := 0; j < e.ncol; j++ {
		ra, va := e.col(j)
		rb, vb := f.col(j)
		if len(ra) != len(rb) {
			t.Fatalf("column %d: %d entries, pre-merged %d", j, len(ra), len(rb))
		}
		for k := range ra {
			if ra[k] != rb[k] || !same(va[k], vb[k]) {
				t.Fatalf("column %d entry %d: (%d, %v), pre-merged (%d, %v)", j, k, ra[k], va[k], rb[k], vb[k])
			}
		}
	}
	for i := 0; i < e.m; i++ {
		if !same(e.rowMult[i], f.rowMult[i]) || !same(e.bvec[i], f.bvec[i]) {
			t.Fatalf("row %d: multiplier %v, rhs %v; pre-merged %v, %v", i, e.rowMult[i], e.bvec[i], f.rowMult[i], f.bvec[i])
		}
	}
	requireBitIdentical(t, "merged vs pre-merged", p.solution(e, e.solve()), q.solution(f, f.solve()))
}

// TestAddConstraintMergesUnknownVariables: a row may name a variable the
// problem adds only later, and its repeats merge all the same.
func TestAddConstraintMergesUnknownVariables(t *testing.T) {
	p := NewProblem(Maximize)
	p.AddConstraint("early", LE, 4, Term{1, 1}, Term{1, 2}, Term{0, 1})
	x := p.AddVar("x", 0, 10, 1)
	y := p.AddVar("y", 0, 10, 1)
	terms := p.cons[0].terms
	if len(terms) != 2 || terms[0] != (Term{y, 3}) || terms[1] != (Term{x, 1}) {
		t.Fatalf("terms %v, want [{1 3} {0 1}]", terms)
	}
	sol, err := p.Solve()
	requireStatus(t, sol, err, Optimal)
	if math.Abs(sol.Objective-4) > testEps {
		t.Fatalf("objective %v, want 4", sol.Objective)
	}
}
