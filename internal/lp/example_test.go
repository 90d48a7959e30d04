package lp_test

import (
	"fmt"

	"greencell/internal/lp"
)

// Example solves a two-variable production problem and reads the optimum.
func Example() {
	p := lp.NewProblem(lp.Maximize)
	x := p.AddVar("x", 0, 40, 3) // product 1
	y := p.AddVar("y", 0, 30, 5) // product 2
	p.AddConstraint("hours", lp.LE, 120, lp.Term{Var: x, Coef: 2}, lp.Term{Var: y, Coef: 3})

	sol, err := p.Solve()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("status:", sol.Status)
	fmt.Println("objective:", sol.Objective)
	fmt.Println("x:", sol.Value(x), "y:", sol.Value(y))
	// Output:
	// status: optimal
	// objective: 195
	// x: 15 y: 30
}
