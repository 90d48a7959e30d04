// Package greencell reproduces "Optimal Energy Cost for Strongly Stable
// Multi-hop Green Cellular Networks" (Liao, Li, Salinas, Li, Pan — ICDCS
// 2014): a Lyapunov drift-plus-penalty controller that minimizes a cellular
// provider's long-term expected energy cost over a multi-hop network with
// dynamic spectrum, renewable energy sources, and battery storage, while
// keeping every data and energy queue strongly stable.
//
// This package is the stable facade over the implementation in internal/:
// it exposes the scenario configuration, the simulation runner, and the
// experiment drivers behind every panel of the paper's Figure 2.
//
// Quick start:
//
//	sc := greencell.PaperScenario()
//	sc.Slots = 100
//	res, err := greencell.Run(sc)
//	// res.AvgEnergyCost is the time-averaged f(P(t)); res.*Trace hold the
//	// per-slot series of Fig. 2(b)-(e).
//
// The Theorem 4/5 bound sandwich of Fig. 2(a):
//
//	bounds, err := greencell.SweepV(sc, []float64{1e5, 5e5, 1e6})
//
// The four-architecture comparison of Fig. 2(f):
//
//	costs, err := greencell.CompareArchitectures(sc, []float64{1e5, 3e5, 5e5})
//
// The whole evaluation at once — every Fig. 2 panel and the seven
// certificate checks, each distinct run simulated once:
//
//	rep, err := greencell.Reproduce(sc, greencell.PaperGrid)
package greencell

import (
	"greencell/internal/sim"
)

// Core types, re-exported from the simulation engine.
type (
	// Scenario fully describes one simulation run.
	Scenario = sim.Scenario
	// Result aggregates a run's metrics and per-slot traces.
	Result = sim.Result
	// Bounds is the Theorem 4/5 sandwich for one V.
	Bounds = sim.Bounds
	// Architecture selects one of the four Fig. 2(f) network designs.
	Architecture = sim.Architecture
	// ArchitectureCost is one point of the Fig. 2(f) comparison.
	ArchitectureCost = sim.ArchitectureCost
	// Grid is the V values a reproduction sweeps.
	Grid = sim.Grid
	// Reproduction is every Fig. 2 panel plus the certificate checks.
	Reproduction = sim.Reproduction
	// Check is one certificate check's verdict.
	Check = sim.Check
	// Panel is one Fig. 2 panel's table and chart.
	Panel = sim.Panel
)

// The two reproduction grids: the paper's (29 runs) and a smoke-scale one
// (9 runs).
var (
	PaperGrid = sim.PaperGrid
	QuickGrid = sim.QuickGrid
)

// The four architectures compared in the paper's Fig. 2(f).
const (
	Proposed            = sim.Proposed
	MultiHopNoRenewable = sim.MultiHopNoRenewable
	OneHopRenewable     = sim.OneHopRenewable
	OneHopNoRenewable   = sim.OneHopNoRenewable
)

// PaperScenario returns the scenario of the paper's Section VI (see
// DESIGN.md for the documented unit recalibrations).
func PaperScenario() Scenario { return sim.Paper() }

// UrbanScenario returns a denser 4-BS deployment with hotspot users,
// shadowing, and Markov band availability — the realism extensions
// composed.
func UrbanScenario() Scenario { return sim.Urban() }

// RuralScenario returns a sparse single-BS deployment with diurnal
// renewables.
func RuralScenario() Scenario { return sim.Rural() }

// Run executes a scenario and aggregates its metrics.
func Run(sc Scenario) (*Result, error) { return sim.Run(sc) }

// BoundsAt runs the proposed and the relaxed (lower-bound) controllers
// with common random numbers at the given V.
func BoundsAt(sc Scenario, v float64) (Bounds, error) { return sim.BoundsAt(sc, v) }

// SweepV computes the bound pair for each V — the series of Fig. 2(a).
func SweepV(sc Scenario, vs []float64) ([]Bounds, error) { return sim.SweepV(sc, vs) }

// CompareArchitectures runs every architecture at every V — Fig. 2(f).
func CompareArchitectures(sc Scenario, vs []float64) ([]ArchitectureCost, error) {
	return sim.CompareArchitectures(sc, vs)
}

// Reproduce computes the paper's whole evaluation over the grid: every
// Fig. 2 panel and the seven certificate checks.
func Reproduce(sc Scenario, g Grid) (*Reproduction, error) { return sim.Reproduce(sc, g) }
