package lp

import "math"

// presolveEps is the width under which a variable counts as fixed.
const presolveEps = 1e-12

// presolved carries a reduced problem plus the mappings to undo it.
type presolved struct {
	reduced *Problem
	// varMap[j] is the reduced index of original variable j, or -1 when
	// the variable was fixed and substituted out.
	varMap []int
	// fixedVal[j] is the value of a substituted variable.
	fixedVal []float64
	// rowMap[i] is the reduced index of original row i, or -1 when the row
	// became empty and was dropped (its dual is 0).
	rowMap []int
	// infeasible is set when a dropped row's residual was inconsistent.
	infeasible bool
	// identity is set when nothing was reduced (solve the original).
	identity bool
}

// presolve substitutes fixed variables (lo == hi) out of the problem and
// drops rows that become empty, checking their consistency. These are the
// only transformations applied: they shrink the one-shot LPs of
// branch-and-bound (which pins more variables at every node) while leaving
// every remaining row's dual multiplier unchanged, so dual recovery needs
// no adjustment.
func presolve(p *Problem) *presolved {
	ps := &presolved{
		varMap:   make([]int, len(p.vars)),
		fixedVal: make([]float64, len(p.vars)),
		rowMap:   make([]int, len(p.cons)),
	}
	nFixed := 0
	for j, v := range p.vars {
		if v.hi-v.lo <= presolveEps {
			ps.varMap[j] = -1
			ps.fixedVal[j] = (v.lo + v.hi) / 2
			nFixed++
		}
	}
	if nFixed == 0 {
		ps.identity = true
		return ps
	}

	red := NewProblem(p.sense)
	red.maxIters = p.maxIters // the solve budget applies to the reduced solve
	for j, v := range p.vars {
		if ps.varMap[j] == -1 {
			continue
		}
		ps.varMap[j] = int(red.AddVar(v.name, v.lo, v.hi, v.cost))
	}
	// One scratch row serves every reduced row: AddConstraint copies its
	// terms.
	maxTerms := 0
	for _, c := range p.cons {
		maxTerms = max(maxTerms, len(c.terms))
	}
	terms := make([]Term, 0, maxTerms)
	for i, c := range p.cons {
		terms = terms[:0]
		rhs := c.rhs
		for _, t := range c.terms {
			if rj := ps.varMap[t.Var]; rj >= 0 {
				terms = append(terms, Term{Var: VarID(rj), Coef: t.Coef})
			} else {
				rhs -= t.Coef * ps.fixedVal[t.Var]
			}
		}
		if len(terms) == 0 {
			// Row fully substituted: verify it holds.
			const tol = 1e-7
			ok := true
			switch c.rel {
			case LE:
				ok = 0 <= rhs+tol
			case GE:
				ok = 0 >= rhs-tol
			case EQ:
				ok = math.Abs(rhs) <= tol
			}
			if !ok {
				ps.infeasible = true
				return ps
			}
			ps.rowMap[i] = -1
			continue
		}
		ps.rowMap[i] = red.NumConstraints()
		red.AddConstraint(c.name, c.rel, rhs, terms...)
	}
	ps.reduced = red
	return ps
}

// expand maps a reduced solution back onto the original problem.
func (ps *presolved) expand(p *Problem, sol *Solution) *Solution {
	out := &Solution{Status: sol.Status, Iterations: sol.Iterations}
	if sol.Status != Optimal {
		return out
	}
	out.x = make([]float64, len(p.vars))
	for j := range p.vars {
		if rj := ps.varMap[j]; rj >= 0 {
			out.x[j] = sol.x[rj]
		} else {
			out.x[j] = ps.fixedVal[j]
		}
	}
	obj := 0.0
	for j, v := range p.vars {
		obj += v.cost * out.x[j]
	}
	out.Objective = obj
	out.y = make([]float64, len(p.cons))
	for i := range p.cons {
		if ri := ps.rowMap[i]; ri >= 0 && ri < len(sol.y) {
			out.y[i] = sol.y[ri]
		}
	}
	return out
}
