package lp

import (
	"math"
	"testing"

	"greencell/internal/rng"
)

// buildDense builds a random feasible dense LP with n variables and m rows.
func buildDense(src *rng.Source, n, m int) *Problem {
	p := NewProblem(Maximize)
	ids := make([]VarID, n)
	for j := 0; j < n; j++ {
		ids[j] = p.AddVar("x", 0, 1, src.Uniform(0, 10))
	}
	for i := 0; i < m; i++ {
		terms := make([]Term, n)
		for j := 0; j < n; j++ {
			terms[j] = Term{Var: ids[j], Coef: src.Uniform(0, 2)}
		}
		p.AddConstraint("row", LE, src.Uniform(1, float64(n)/2), terms...)
	}
	return p
}

func benchSolve(b *testing.B, n, m int) {
	b.Helper()
	src := rng.New(1)
	p := buildDense(src, n, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := p.Solve()
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != Optimal {
			b.Fatalf("status %v", sol.Status)
		}
		if math.IsNaN(sol.Objective) {
			b.Fatal("NaN objective")
		}
	}
}

func BenchmarkSolveSmall(b *testing.B)  { benchSolve(b, 10, 8) }
func BenchmarkSolveMedium(b *testing.B) { benchSolve(b, 60, 50) }
func BenchmarkSolveLarge(b *testing.B)  { benchSolve(b, 200, 150) }

// BenchmarkSolveSchedulingShaped mirrors the structure of the per-slot S1
// LPs: binary-boxed variables, sparse node-capacity rows, dense SINR rows.
func BenchmarkSolveSchedulingShaped(b *testing.B) {
	src := rng.New(2)
	const pairs = 120
	p := NewProblem(Maximize)
	ids := make([]VarID, pairs)
	for k := 0; k < pairs; k++ {
		ids[k] = p.AddVar("a", 0, 1, src.Uniform(1e5, 1e7))
	}
	// Node rows: each touches ~10 variables.
	for nrow := 0; nrow < 22; nrow++ {
		terms := make([]Term, 0, 12)
		for _, k := range src.Subset(pairs, 10) {
			terms = append(terms, Term{Var: ids[k], Coef: 1})
		}
		p.AddConstraint("radio", LE, 1, terms...)
	}
	// SINR-like rows: one per pair over ~pairs/5 band-mates.
	for k := 0; k < pairs; k++ {
		terms := []Term{{Var: ids[k], Coef: src.Uniform(-1, 1)}}
		for _, k2 := range src.Subset(pairs, pairs/5) {
			if k2 == k {
				continue
			}
			terms = append(terms, Term{Var: ids[k2], Coef: src.Uniform(0, 0.5)})
		}
		p.AddConstraint("sinr", LE, src.Uniform(0.5, 1), terms...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sol, err := p.Solve(); err != nil || sol.Status != Optimal {
			b.Fatalf("err=%v status", err)
		}
	}
}
