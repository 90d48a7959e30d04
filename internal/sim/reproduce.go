package sim

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"greencell/internal/plot"
	"greencell/internal/sched"
)

// Grid is the V values a reproduction sweeps, per group of Figure 2 panels.
type Grid struct {
	// Bounds are the V values of Fig. 2(a)'s bound sandwich.
	Bounds []float64
	// Traces are the V values of Fig. 2(b)–(e) and of the delay extension.
	Traces []float64
	// Architectures are the V values of Fig. 2(f).
	Architectures []float64
}

// The two reproduction grids.
var (
	// PaperGrid is the paper's evaluation: bounds at V = 1…10×10⁵, traces
	// and delay at 1…5×10⁵, architectures at {1,3,5}×10⁵ (29 runs).
	PaperGrid = Grid{
		Bounds:        []float64{1e5, 2e5, 3e5, 4e5, 5e5, 6e5, 7e5, 8e5, 9e5, 1e6},
		Traces:        []float64{1e5, 2e5, 3e5, 4e5, 5e5},
		Architectures: []float64{1e5, 3e5, 5e5},
	}
	// QuickGrid is a smoke-scale sweep with every panel and check (9 runs).
	QuickGrid = Grid{
		Bounds:        []float64{1e5, 5e5, 1e6},
		Traces:        []float64{1e5, 5e5},
		Architectures: []float64{1e5},
	}
)

// archOrder is the run order of Fig. 2(f), as in CompareArchitectures.
var archOrder = []Architecture{Proposed, MultiHopNoRenewable, OneHopRenewable, OneHopNoRenewable}

// Reproduction is the paper's whole evaluation of one scenario: every
// Figure 2 panel and the certificate checks over them.
type Reproduction struct {
	// Scenario is the reproduced scenario as given; Grid the sweep.
	Scenario Scenario
	Grid     Grid
	// Bounds is Fig. 2(a), one pair per Grid.Bounds value.
	Bounds []Bounds
	// Traces is Fig. 2(b)–(e) and the delay extension: the proposed run
	// at each Grid.Traces value, traces and delays kept.
	Traces []*Result
	// Costs is Fig. 2(f): every architecture at every Grid.Architectures
	// value, architecture-major in CompareArchitectures order.
	Costs []ArchitectureCost
	// Base is the proposed run at Scenario.V, which the per-run checks
	// read.
	Base *Result
	// Checks is the reproduction certificate, see (*Reproduction).certify.
	Checks []Check
}

// Check is one certificate check's verdict.
type Check struct {
	Name string
	OK   bool
	Info string
}

// runKey names one distinct simulation of a reproduction.
type runKey struct {
	arch    Architecture
	relaxed bool // the Theorem 5 lower-bound controller
	v       float64
}

// Reproduce runs the scenario over the grid and certifies the result.
// Each distinct (architecture, scheduler, V) run is simulated once, with
// traces, delay tracking and the drift audit on (none of them alters a
// run's decisions), on a pool of runtime.GOMAXPROCS(0) goroutines; the
// panels and checks then share those runs. sc.Architecture is ignored.
func Reproduce(sc Scenario, g Grid) (*Reproduction, error) {
	if len(g.Bounds) == 0 || len(g.Traces) == 0 || len(g.Architectures) == 0 {
		return nil, fmt.Errorf("%w: reproduction grid needs bound, trace and architecture V values", ErrScenario)
	}
	var keys []runKey
	index := map[runKey]int{}
	need := func(k runKey) {
		if _, ok := index[k]; !ok {
			index[k] = len(keys)
			keys = append(keys, k)
		}
	}
	need(runKey{Proposed, false, sc.V})
	for _, v := range g.Bounds {
		need(runKey{Proposed, false, v})
		need(runKey{Proposed, true, v})
	}
	for _, v := range g.Traces {
		need(runKey{Proposed, false, v})
	}
	for _, a := range archOrder {
		for _, v := range g.Architectures {
			need(runKey{a, false, v})
		}
	}

	results := make([]*Result, len(keys))
	errs := make([]error, len(keys))
	forEach(len(keys), func(i int) {
		k := keys[i]
		s := sc
		s.Architecture, s.V = k.arch, k.v
		s.KeepTraces, s.TrackDelay, s.AuditDrift = true, true, true
		if k.relaxed {
			s.Scheduler = sched.Relaxed{}
		}
		if results[i], errs[i] = Run(s); errs[i] != nil {
			errs[i] = fmt.Errorf("%v V=%g relaxed=%t: %w", k.arch, k.v, k.relaxed, errs[i])
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	run := func(a Architecture, relaxed bool, v float64) *Result {
		return results[index[runKey{a, relaxed, v}]]
	}

	r := &Reproduction{Scenario: sc, Grid: g, Base: run(Proposed, false, sc.V)}
	for _, v := range g.Bounds {
		r.Bounds = append(r.Bounds, boundsOf(v, run(Proposed, false, v), run(Proposed, true, v)))
	}
	for _, v := range g.Traces {
		r.Traces = append(r.Traces, run(Proposed, false, v))
	}
	for _, a := range archOrder {
		for _, v := range g.Architectures {
			r.Costs = append(r.Costs, ArchitectureCost{Architecture: a, V: v, AvgCost: run(a, false, v).AvgEnergyCost})
		}
	}
	r.Checks = r.certify()
	return r, nil
}

// certify evaluates the seven certificate checks, each defined once here:
//
//  1. lemma1-drift     — the base run's Lemma 1 drift audit never failed.
//  2. strong-stability — the base run's backlogs flatten (Theorem 3;
//     Result.StableDataBacklog).
//  3. no-deficit       — the base run served every energy demand
//     (constraints (9)–(14) feasible under the gate).
//  4. conservation     — every packet the base run admitted was delivered
//     or is still queued.
//  5. bound-sandwich   — lower ≤ upper bound at every bound V (Theorems 4–5).
//  6. bound-tighten    — the bound gap at the last bound V is below the gap
//     at the first (Lemma 2).
//  7. architectures    — at every architecture V, renewables pay off with
//     and without relaying and the proposed design beats the grid-only
//     one-hop design (Fig. 2(f)).
func (r *Reproduction) certify() []Check {
	base := r.Base
	slopeBS, slopeU := base.TailSlopes()
	balance := base.AdmittedPkts - base.DeliveredPkts - (base.FinalDataBacklogBS + base.FinalDataBacklogUsers)

	sandwich := Check{Name: "bound-sandwich", OK: true}
	for _, b := range r.Bounds {
		if b.Lower > b.Upper {
			sandwich.OK = false
			sandwich.Info = fmt.Sprintf("fails at V=%.0e: [%.4g, %.4g]", b.V, b.Lower, b.Upper)
			break
		}
	}
	first, last := r.Bounds[0], r.Bounds[len(r.Bounds)-1]
	if sandwich.OK {
		sandwich.Info = fmt.Sprintf("holds at %d V; V=%.0e: [%.4g, %.4g]  V=%.0e: [%.4g, %.4g]",
			len(r.Bounds), first.V, first.Lower, first.Upper, last.V, last.Lower, last.Upper)
	}
	gap0, gap1 := first.Upper-first.Lower, last.Upper-last.Lower

	byV := map[float64]map[Architecture]float64{}
	for _, c := range r.Costs {
		if byV[c.V] == nil {
			byV[c.V] = map[Architecture]float64{}
		}
		byV[c.V][c.Architecture] = c.AvgCost.Value()
	}
	arch := Check{Name: "architectures", OK: true}
	var infos []string
	for _, v := range r.Grid.Architectures {
		cost := byV[v]
		arch.OK = arch.OK && cost[Proposed] < cost[MultiHopNoRenewable] &&
			cost[OneHopRenewable] < cost[OneHopNoRenewable] && cost[Proposed] < cost[OneHopNoRenewable]
		infos = append(infos, fmt.Sprintf("V=%.0e: proposed %.4g | onehop-r %.4g | multihop-nr %.4g | onehop-nr %.4g",
			v, cost[Proposed], cost[OneHopRenewable], cost[MultiHopNoRenewable], cost[OneHopNoRenewable]))
	}
	arch.Info = strings.Join(infos, "; ")

	return []Check{
		{"lemma1-drift", base.AuditViolations == 0,
			fmt.Sprintf("%d violating slots of %d", base.AuditViolations, r.Scenario.Slots)},
		{"strong-stability", base.StableDataBacklog(),
			fmt.Sprintf("tail slopes BS %.2f, users %.2f pkts/slot (demand %.0f)", slopeBS, slopeU, base.offeredPkts)},
		{"no-deficit", base.DeficitWh < 1e-6,
			fmt.Sprintf("total unserved energy %.3g Wh", base.DeficitWh)},
		{"conservation", math.Abs(balance) < 1e-3,
			fmt.Sprintf("admitted−delivered−queued = %.3g pkts", balance)},
		sandwich,
		{"bound-tighten", gap1 < gap0,
			fmt.Sprintf("gap %.4g → %.4g (%.1fx)", gap0, gap1, gap0/gap1)},
		arch,
	}
}

// Panel is one Figure 2 panel of a reproduction: its data table and chart.
type Panel struct {
	// Name is the panel's file stem (fig2a … fig2f, figx-delay).
	Name string
	// Header and Rows are the panel's table.
	Header []string
	Rows   [][]float64
	// Chart draws the panel; Groups labels its bar groups (nil for a line
	// chart).
	Chart  plot.Chart
	Groups []string
	// Caption says what the panel shows.
	Caption string
}

// SVG renders the panel's chart.
func (p *Panel) SVG(w io.Writer) error {
	if p.Groups != nil {
		return p.Chart.BarSVG(w, p.Groups)
	}
	return p.Chart.LineSVG(w)
}

// Panels lays the reproduction out as Figure 2's panels plus the delay
// extension, in file order.
func (r *Reproduction) Panels() []Panel {
	vLabels := func(vs []float64) []string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = fmt.Sprintf("V=%.0e", v)
		}
		return out
	}

	var bounds, delay [][]float64
	for _, b := range r.Bounds {
		bounds = append(bounds, []float64{b.V, b.Upper, b.Lower})
	}
	for i, res := range r.Traces {
		delay = append(delay, []float64{r.Grid.Traces[i], res.ExactDelayMeanSlots, res.ExactDelayP95Slots})
	}
	panels := []Panel{{Name: "fig2a", Header: []string{"V", "upper", "lower"}, Rows: bounds,
		Chart: plot.Chart{
			Title:  "Fig 2(a): Theorem 4/5 bounds on the optimal energy cost",
			XLabel: "V", YLabel: "time-averaged penalty objective",
			Series: lines(bounds, "upper bound", "lower bound"),
		},
		Caption: "The lower bound ψ*_P3̄ − B/V climbs toward the upper bound ψ_P3 as V grows (Lemma 2).",
	}}

	traceLabels := vLabels(r.Grid.Traces)
	for _, tp := range []struct {
		name, title, ylabel, caption string
		pick                         func(*Result) []float64
	}{
		{"fig2b", "Fig 2(b): total BS data queue backlog", "packets", "Bounded growth: strong stability.",
			func(res *Result) []float64 { return res.DataBacklogBSTrace }},
		{"fig2c", "Fig 2(c): total user data queue backlog", "packets", "Relay queues settle under backpressure.",
			func(res *Result) []float64 { return res.DataBacklogUsersTrace }},
		{"fig2d", "Fig 2(d): total BS energy buffer", "Wh", "Batteries charge toward capacity.",
			func(res *Result) []float64 { return res.BatteryWhBSTrace }},
		{"fig2e", "Fig 2(e): total user energy buffer", "Wh", "Grid-connected slots charge at the cap.",
			func(res *Result) []float64 { return res.BatteryWhUsersTrace }},
	} {
		rows := make([][]float64, r.Scenario.Slots)
		for t := range rows {
			rows[t] = []float64{float64(t + 1)}
			for _, res := range r.Traces {
				rows[t] = append(rows[t], tp.pick(res)[t])
			}
		}
		panels = append(panels, Panel{Name: tp.name, Header: append([]string{"t"}, traceLabels...), Rows: rows,
			Chart:   plot.Chart{Title: tp.title, XLabel: "time (minutes)", YLabel: tp.ylabel, Series: lines(rows, traceLabels...)},
			Caption: tp.caption,
		})
	}

	fig2f := Panel{Name: "fig2f", Header: []string{"architecture", "V", "avg_cost"},
		Groups: vLabels(r.Grid.Architectures),
		Chart:  plot.Chart{Title: "Fig 2(f): time-averaged energy cost by architecture", YLabel: "time-averaged f(P)"},
	}
	byArch := map[Architecture][]float64{}
	for _, c := range r.Costs {
		fig2f.Rows = append(fig2f.Rows, []float64{float64(c.Architecture), c.V, c.AvgCost.Value()})
		byArch[c.Architecture] = append(byArch[c.Architecture], c.AvgCost.Value())
	}
	for _, a := range []Architecture{Proposed, OneHopRenewable, MultiHopNoRenewable, OneHopNoRenewable} {
		fig2f.Chart.Series = append(fig2f.Chart.Series, plot.Series{Name: a.String(), Y: byArch[a]})
	}
	var codes []string
	for _, a := range archOrder {
		codes = append(codes, fmt.Sprintf("%d = %v", int(a), a))
	}
	fig2f.Caption = "Architecture codes: " + strings.Join(codes, ", ") + "."

	return append(panels, fig2f, Panel{Name: "figx-delay", Header: []string{"V", "delay_mean", "delay_p95"}, Rows: delay,
		Chart: plot.Chart{
			Title:  "Extension: exact packet delay vs V (O(V) tradeoff side)",
			XLabel: "V", YLabel: "delivery delay (slots)",
			Series: lines(delay, "mean delay"),
		},
		Caption: "Exact FIFO-tracked delivery delay: the O(V) side of the Lyapunov tradeoff.",
	})
}

// lines draws one line per name: column i+1 of rows against column 0.
func lines(rows [][]float64, names ...string) []plot.Series {
	out := make([]plot.Series, len(names))
	for i, name := range names {
		out[i].Name = name
		for _, row := range rows {
			out[i].X = append(out[i].X, row[0])
			out[i].Y = append(out[i].Y, row[i+1])
		}
	}
	return out
}
