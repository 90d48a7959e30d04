// Package sim runs end-to-end simulations of the paper's system: it builds
// a topology and traffic from a seeded scenario, steps the drift-plus-
// penalty controller for T slots, and collects the metric series behind
// every panel of the paper's Figure 2. It also implements the baseline
// architectures of Fig. 2(f), the relaxed lower-bound run of Theorem 5
// (BoundsAt computes the ψ*_P3̄ − B/V sandwich on ψ*_P1), multi-seed
// replication with confidence intervals, and the Recorder that streams
// the per-slot metrics schema of docs/METRICS.md.
package sim

import (
	"context"
	"errors"
	"fmt"

	"greencell/internal/core"
	"greencell/internal/energy"
	"greencell/internal/faultinject"
	"greencell/internal/invariant"
	"greencell/internal/machine"
	"greencell/internal/queueing"
	"greencell/internal/rng"
	"greencell/internal/sched"
	"greencell/internal/topology"
	"greencell/internal/traffic"
	"greencell/internal/units"
)

// Architecture selects one of the four network designs compared in the
// paper's Fig. 2(f).
type Architecture int

// Architectures.
const (
	// Proposed is the paper's system: multi-hop with renewable energy.
	Proposed Architecture = iota
	// MultiHopNoRenewable disables every renewable source.
	MultiHopNoRenewable
	// OneHopRenewable restricts links to base-station transmissions.
	OneHopRenewable
	// OneHopNoRenewable applies both restrictions.
	OneHopNoRenewable
)

// String implements fmt.Stringer.
func (a Architecture) String() string {
	switch a {
	case Proposed:
		return "multi-hop + renewable (proposed)"
	case MultiHopNoRenewable:
		return "multi-hop w/o renewable"
	case OneHopRenewable:
		return "one-hop w/ renewable"
	case OneHopNoRenewable:
		return "one-hop w/o renewable"
	default:
		return fmt.Sprintf("Architecture(%d)", int(a))
	}
}

// OneHop reports whether a restricts routing to single-hop.
func (a Architecture) OneHop() bool {
	return a == OneHopRenewable || a == OneHopNoRenewable
}

// Renewable reports whether a keeps renewable sources.
func (a Architecture) Renewable() bool {
	return a == Proposed || a == OneHopRenewable
}

// Scenario fully describes one simulation run.
//
// The plain fields carry JSON tags so a scenario's knobs serialize with
// stable snake_case names, but a Scenario does not round-trip through JSON
// on its own: Topology, Cost, Scheduler, and SlotHook hold interfaces and
// closures and are excluded. The serializable wire form is ScenarioSpec
// (spec.go) — a preset name plus overrides — which greencelld jobs and
// other cross-process consumers use.
type Scenario struct {
	// Topology is the physical layout blueprint. It embeds interface-typed
	// processes (renewables, band widths) and is not serializable; wire
	// consumers reach it through a ScenarioSpec preset plus overrides.
	Topology topology.Config `json:"-"`
	// NumSessions is S; destinations are random distinct users.
	NumSessions int `json:"sessions"`
	// UplinkSessions appends this many uplink (user → any BS) sessions —
	// an extension; the paper models downlink only.
	UplinkSessions int `json:"uplink_sessions,omitempty"`
	// V is the drift-plus-penalty weight; Lambda the admission reward λ.
	V      float64 `json:"v"`
	Lambda float64 `json:"lambda"`
	// SlotSeconds is Δt; Slots is the horizon T.
	SlotSeconds float64 `json:"slot_seconds"`
	Slots       int     `json:"slots"`
	// Seed drives all randomness; equal seeds give identical topologies,
	// traffic, and environment draws across runs (common random numbers).
	Seed int64 `json:"seed"`
	// Cost is f (nil = the paper's quadratic).
	Cost energy.CostFunc `json:"-"`
	// Scheduler solves S1 (nil = the paper's sequential-fix).
	Scheduler sched.Scheduler `json:"-"`
	// EnergyGate keeps energy-starved nodes out of the schedule.
	EnergyGate bool `json:"energy_gate,omitempty"`
	// Architecture selects the Fig. 2(f) variant.
	Architecture Architecture `json:"architecture,omitempty"`
	// KeepTraces retains per-slot series for the time-series figures.
	KeepTraces bool `json:"keep_traces,omitempty"`
	// TrackDelay enables exact per-packet delivery-delay accounting.
	TrackDelay bool `json:"track_delay,omitempty"`
	// AuditDrift enables the per-slot Lemma 1 drift audit; violations are
	// counted in Result.AuditViolations.
	AuditDrift bool `json:"audit_drift,omitempty"`
	// CheckInvariants validates every slot against the paper's per-slot
	// constraints (internal/invariant, docs/ANALYSIS.md); the first
	// violation aborts the run with a *invariant.Violation naming the
	// slot, node, and equation. Tests and fuzzing turn it on.
	CheckInvariants bool `json:"check_invariants,omitempty"`
	// Instrument fills SlotResult.Stages with per-stage wall times and LP
	// work counts each slot (see core.Config.Instrument). Recorder.Attach
	// sets it; SlotHook consumers read the breakdown.
	Instrument bool `json:"instrument,omitempty"`
	// SlotHook, when non-nil, observes every slot result as the run
	// progresses (trace recording, live dashboards). The pointee must not
	// be retained past the call.
	SlotHook func(*core.SlotResult) `json:"-"`
	// Faults, when non-nil, enables deterministic fault injection at the
	// configured per-site probabilities (internal/faultinject). The
	// injector is seeded from Seed, so a faulty run reproduces
	// bit-identically. Failed stages degrade to their safe actions
	// (docs/ROBUSTNESS.md) instead of aborting the run.
	Faults *faultinject.Config `json:"faults,omitempty"`
	// Budget bounds each slot's solve work (iteration caps, wall-clock
	// deadline); see core.SolveBudget. The zero value imposes none.
	Budget core.SolveBudget `json:"budget,omitempty"`

	// Dist runs the distributed controller (internal/machine,
	// docs/DISTRIBUTED.md) instead of the monolith: per-node machines
	// exchanging typed messages over a simulated network whose delivery
	// model the Net* fields parameterize. Under the zero-valued (perfect)
	// model the run is byte-identical to the monolith — the fidelity
	// gate.
	Dist bool `json:"dist,omitempty"`
	// NetLoss is the per-message control-plane loss probability.
	NetLoss float64 `json:"net_loss,omitempty"`
	// NetLatency is the per-message delay probability; a delayed message
	// arrives 1..NetLatencyMax protocol ticks late (0 reads as 1).
	NetLatency    float64 `json:"net_latency,omitempty"`
	NetLatencyMax int     `json:"net_latency_max,omitempty"`
	// NetDup is the per-message duplication probability.
	NetDup float64 `json:"net_dup,omitempty"`
	// NetReorder jitters within-tick delivery order by up to this many
	// sequence positions.
	NetReorder int `json:"net_reorder,omitempty"`
	// NetPartition lists node IDs replaced by machine.OfflineMachine —
	// dead nodes the coordinator never hears from again.
	NetPartition []int `json:"net_partition,omitempty"`
	// NetHook, when non-nil, observes every slot's network statistics
	// (message counts, stale views, node clamps). Recorder.Attach chains
	// it to feed the net_* summary counters.
	NetHook func(machine.SlotNetStats) `json:"-"`
}

// Paper returns the scenario of the paper's Section VI: its topology and
// spectrum, 4 sessions of 100 Kbps, V = 1e5, T = 100 one-minute slots.
func Paper() Scenario {
	return Scenario{
		Topology:    topology.Paper(),
		NumSessions: 4,
		V:           1e5,
		Lambda:      0.0006,
		SlotSeconds: 60,
		Slots:       100,
		Seed:        1,
		Cost:        energy.PaperCost(),
		EnergyGate:  true,
		KeepTraces:  true,
	}
}

// Result aggregates one run.
type Result struct {
	// AvgEnergyCost is the time-averaged f(P(t)) — the headline metric.
	AvgEnergyCost units.Cost
	// AvgPenaltyObjective is the time-averaged f(P(t)) − λ·Σ k_s(t), the
	// quantity the Theorem 4/5 bounds speak about. It mixes cost units
	// with the reward term, so it stays a bare float64.
	AvgPenaltyObjective float64
	// AvgGridWh is the time-averaged total grid draw.
	AvgGridWh units.Energy
	// AvgTxEnergyWh is the time-averaged transmission+reception energy.
	AvgTxEnergyWh units.Energy
	// DeliveredPkts / AdmittedPkts are totals over the horizon.
	DeliveredPkts, AdmittedPkts float64
	// DeficitWh is the total unserved energy (0 in normal operation).
	DeficitWh units.Energy
	// AvgDelayEstSlots estimates the mean packet delay in slots via
	// Little's law: time-averaged total data backlog over the delivery
	// rate. Together with AvgEnergyCost it traces the paper's O(1/V)-cost
	// versus O(V)-delay tradeoff.
	AvgDelayEstSlots float64
	// ExactDelayMeanSlots and ExactDelayMaxSlots are the packet-weighted
	// delivery-delay statistics over all sessions (0 unless
	// Scenario.TrackDelay). ExactDelayP95Slots is the worst per-session
	// 95th-percentile delay.
	ExactDelayMeanSlots, ExactDelayMaxSlots float64
	ExactDelayP95Slots                      float64
	// AuditViolations counts slots whose Lemma 1 drift audit failed
	// (0 expected; only populated when Scenario.AuditDrift).
	AuditViolations int
	// B is the drift constant; LowerBoundCorrection is B/V.
	B float64
	// FinalDataBacklog etc. are end-of-run queue aggregates.
	FinalDataBacklogBS, FinalDataBacklogUsers float64
	FinalBatteryWhBS, FinalBatteryWhUsers     units.Energy

	// Net reports a distributed run's network statistics and ground
	// truth (nil for monolithic runs). The headline metrics above are
	// the coordinator's view — the embedded controller computes them —
	// while Net's True* fields are physical node-side truth; under a
	// perfect network the two coincide exactly.
	Net *machine.NetReport

	// DegradedSlots counts slots where at least one stage fell back to
	// its safe action (docs/ROBUSTNESS.md); DegradedByCause breaks the
	// count down per cause label (nil when no slot degraded).
	DegradedSlots   int
	DegradedByCause map[string]int
	// MaxDegradedStreak is the longest run of consecutive degraded slots.
	MaxDegradedStreak int

	// Per-slot traces (nil unless Scenario.KeepTraces).
	CostTrace, PenaltyTrace                   []float64
	DataBacklogBSTrace, DataBacklogUsersTrace []float64
	BatteryWhBSTrace, BatteryWhUsersTrace     []float64
	VirtualBacklogTrace                       []float64
	GridWhTrace                               []float64
}

// StableDataBacklog reports whether the retained backlog series look
// strongly stable: the tail slope must be far below one packet per slot of
// residual growth relative to the demand scale.
func (r *Result) StableDataBacklog(demandPktsPerSlot float64) bool {
	if r.DataBacklogBSTrace == nil {
		return false
	}
	n := len(r.DataBacklogBSTrace)
	tail := n / 2
	slopeBS := queueing.Slope(r.DataBacklogBSTrace[tail:])
	slopeU := queueing.Slope(r.DataBacklogUsersTrace[tail:])
	return slopeBS < demandPktsPerSlot && slopeU < demandPktsPerSlot
}

// ErrScenario reports an invalid scenario.
var ErrScenario = errors.New("sim: invalid scenario")

// buildConfig materializes the scenario's network, traffic model, and
// controller configuration — everything short of constructing a
// controller. Build feeds it to core.New; the distributed runner
// (dist.go) feeds it to machine.NewDeployment instead.
func buildConfig(sc Scenario) (core.Config, *topology.Network, *traffic.Model, error) {
	if sc.Slots <= 0 {
		return core.Config{}, nil, nil, fmt.Errorf("%w: Slots = %d", ErrScenario, sc.Slots)
	}
	if sc.NumSessions <= 0 {
		return core.Config{}, nil, nil, fmt.Errorf("%w: NumSessions = %d", ErrScenario, sc.NumSessions)
	}
	src := rng.New(sc.Seed)

	tcfg := sc.Topology
	tcfg.OneHopOnly = tcfg.OneHopOnly || sc.Architecture.OneHop()
	if !sc.Architecture.Renewable() {
		tcfg.UserSpec.Renewable = energy.Off{}
		tcfg.BSSpec.Renewable = energy.Off{}
	}
	net, err := topology.Build(tcfg, src.Split("topology"))
	if err != nil {
		return core.Config{}, nil, nil, err
	}
	tm := traffic.PaperSessions(sc.NumSessions, net.Users(), sc.SlotSeconds, src.Split("traffic"))
	if sc.UplinkSessions > 0 {
		tm.Sessions = append(tm.Sessions, traffic.UplinkSessions(
			sc.UplinkSessions, net.Users(), sc.SlotSeconds, len(tm.Sessions), src.Split("uplink"))...)
	}

	cost := sc.Cost
	if cost == nil {
		cost = energy.PaperCost()
	}
	// The invariant checker is stateful (cumulative (18) ledger), so each
	// controller gets its own instance.
	var check func(*core.SlotCheck) error
	if sc.CheckInvariants {
		check = invariant.New().Check
	}
	var inj *faultinject.Injector
	if sc.Faults != nil {
		inj, err = faultinject.New(rng.New(sc.Seed).Split("faults"), *sc.Faults)
		if err != nil {
			return core.Config{}, nil, nil, err
		}
	}
	return core.Config{
		Net:         net,
		Traffic:     tm,
		V:           sc.V,
		Lambda:      sc.Lambda,
		SlotSeconds: sc.SlotSeconds,
		Cost:        cost,
		Scheduler:   sc.Scheduler,
		EnergyGate:  sc.EnergyGate,
		TrackDelay:  sc.TrackDelay,
		AuditDrift:  sc.AuditDrift,
		Instrument:  sc.Instrument,
		Check:       check,
		Faults:      inj,
		Budget:      sc.Budget,
	}, net, tm, nil
}

// Build materializes the scenario's network, traffic, and controller so
// callers (tests, benchmarks) can inspect them before running.
func Build(sc Scenario) (*core.Controller, *topology.Network, *traffic.Model, error) {
	cfg, net, tm, err := buildConfig(sc)
	if err != nil {
		return nil, nil, nil, err
	}
	ctrl, err := core.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return ctrl, net, tm, nil
}

// Run executes the scenario and aggregates its metrics.
func Run(sc Scenario) (*Result, error) {
	return RunCtx(context.Background(), sc)
}

// RunCtx is Run with cooperative cancellation: the slot loop checks ctx
// between slots and returns ctx's error (and no Result) once cancelled.
// Scenarios with Dist set run on the distributed controller (dist.go).
func RunCtx(ctx context.Context, sc Scenario) (*Result, error) {
	if sc.Dist {
		return DistRunCtx(ctx, sc)
	}
	ctrl, _, tm, err := Build(sc)
	if err != nil {
		return nil, err
	}
	slotSrc := rng.New(sc.Seed).Split("slots")
	return collect(ctx, sc, tm, ctrl, func() (*core.SlotResult, error) {
		return ctrl.Step(slotSrc)
	})
}

// collect drives the slot loop through step and aggregates the run's
// metrics — shared verbatim by the monolithic and distributed runners,
// so the two architectures are aggregated identically.
func collect(ctx context.Context, sc Scenario, tm *traffic.Model, ctrl *core.Controller,
	step func() (*core.SlotResult, error)) (*Result, error) {
	res := &Result{B: ctrl.B()}
	costT := queueing.NewTracker(sc.KeepTraces)
	penT := queueing.NewTracker(sc.KeepTraces)
	gridT := queueing.NewTracker(sc.KeepTraces)
	qbsT := queueing.NewTracker(sc.KeepTraces)
	quT := queueing.NewTracker(sc.KeepTraces)
	bbsT := queueing.NewTracker(sc.KeepTraces)
	buT := queueing.NewTracker(sc.KeepTraces)
	hT := queueing.NewTracker(sc.KeepTraces)

	var last *core.SlotResult
	txSum := 0.0
	streak := 0
	for t := 0; t < sc.Slots; t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("slot %d: %w", t, err)
		}
		sr, err := step()
		if err != nil {
			return nil, err
		}
		last = sr
		if sr.Degraded {
			res.DegradedSlots++
			streak++
			if streak > res.MaxDegradedStreak {
				res.MaxDegradedStreak = streak
			}
			if res.DegradedByCause == nil {
				res.DegradedByCause = make(map[string]int)
			}
			for _, cause := range sr.DegradedCauses {
				res.DegradedByCause[cause]++
			}
		} else {
			streak = 0
		}
		if sc.SlotHook != nil {
			sc.SlotHook(sr)
		}
		txSum += sr.TxEnergyWh.Wh()
		costT.Observe(sr.EnergyCost.Value())
		penT.Observe(sr.PenaltyObjective)
		gridT.Observe(sr.GridWh.Wh())
		qbsT.Observe(sr.DataBacklogBS)
		quT.Observe(sr.DataBacklogUsers)
		bbsT.Observe(sr.BatteryWhBS.Wh())
		buT.Observe(sr.BatteryWhUsers.Wh())
		hT.Observe(sr.VirtualBacklogH)
		for _, d := range sr.DeliveredPkts {
			res.DeliveredPkts += d
		}
		res.AdmittedPkts += sr.AdmittedPkts
		res.DeficitWh += sr.DeficitWh
		if sr.Audit != nil && !sr.Audit.Holds() {
			res.AuditViolations++
		}
	}

	res.AvgEnergyCost = units.CostOf(costT.TimeAverage())
	res.AvgPenaltyObjective = penT.TimeAverage()
	res.AvgGridWh = units.Wh(gridT.TimeAverage())
	res.AvgTxEnergyWh = units.Wh(txSum / float64(sc.Slots))
	if rate := res.DeliveredPkts / float64(sc.Slots); rate > 0 {
		res.AvgDelayEstSlots = (qbsT.TimeAverage() + quT.TimeAverage()) / rate
	}
	if sc.TrackDelay {
		var sumWeighted, count, maxD, maxP95 float64
		// Iterate the materialized sessions, not the requested counts:
		// PaperSessions caps the session count at the number of users.
		for s := 0; s < len(tm.Sessions); s++ {
			mean, max, delivered := ctrl.SessionDelay(s)
			sumWeighted += mean * delivered
			count += delivered
			if max > maxD {
				maxD = max
			}
			if p95 := ctrl.SessionDelayQuantile(s, 0.95); p95 > maxP95 {
				maxP95 = p95
			}
		}
		if count > 0 {
			res.ExactDelayMeanSlots = sumWeighted / count
		}
		res.ExactDelayMaxSlots = maxD
		res.ExactDelayP95Slots = maxP95
	}
	res.FinalDataBacklogBS = last.DataBacklogBS
	res.FinalDataBacklogUsers = last.DataBacklogUsers
	res.FinalBatteryWhBS = last.BatteryWhBS
	res.FinalBatteryWhUsers = last.BatteryWhUsers
	if sc.KeepTraces {
		res.CostTrace = costT.Trace()
		res.PenaltyTrace = penT.Trace()
		res.GridWhTrace = gridT.Trace()
		res.DataBacklogBSTrace = qbsT.Trace()
		res.DataBacklogUsersTrace = quT.Trace()
		res.BatteryWhBSTrace = bbsT.Trace()
		res.BatteryWhUsersTrace = buT.Trace()
		res.VirtualBacklogTrace = hT.Trace()
	}
	return res, nil
}

// Bounds holds the Theorem 4/5 sandwich for one V.
type Bounds struct {
	V float64
	// Upper is ψ_P3: the proposed algorithm's time-averaged penalty
	// objective (Theorem 4 upper-bounds ψ*_P1 by it).
	Upper float64
	// Lower is ψ*_P3̄ − B/V from the relaxed run (Theorem 5).
	Lower float64
	// UpperEnergyCost / LowerEnergyCost are the raw f(P) averages of the
	// two runs, for reporting.
	UpperEnergyCost, LowerEnergyCost units.Cost
}

// BoundsAt runs the proposed controller and the relaxed lower-bound
// controller with common random numbers and returns the bound pair.
func BoundsAt(sc Scenario, v float64) (Bounds, error) {
	sc.V = v

	upper := sc
	upper.KeepTraces = false
	ur, err := Run(upper)
	if err != nil {
		return Bounds{}, fmt.Errorf("upper bound run: %w", err)
	}

	lower := sc
	lower.KeepTraces = false
	lower.Scheduler = sched.Relaxed{}
	lr, err := Run(lower)
	if err != nil {
		return Bounds{}, fmt.Errorf("lower bound run: %w", err)
	}

	return Bounds{
		V:               v,
		Upper:           ur.AvgPenaltyObjective,
		Lower:           lr.AvgPenaltyObjective - lr.B/v,
		UpperEnergyCost: ur.AvgEnergyCost,
		LowerEnergyCost: lr.AvgEnergyCost,
	}, nil
}

// SweepV computes the bound pair for each V — the series of Fig. 2(a).
func SweepV(sc Scenario, vs []float64) ([]Bounds, error) {
	out := make([]Bounds, 0, len(vs))
	for _, v := range vs {
		b, err := BoundsAt(sc, v)
		if err != nil {
			return nil, fmt.Errorf("V=%g: %w", v, err)
		}
		out = append(out, b)
	}
	return out, nil
}

// ArchitectureCost is one point of Fig. 2(f).
type ArchitectureCost struct {
	Architecture Architecture
	V            float64
	AvgCost      units.Cost
}

// CompareArchitectures runs every architecture at every V with common
// random numbers — the series of Fig. 2(f).
func CompareArchitectures(sc Scenario, vs []float64) ([]ArchitectureCost, error) {
	archs := []Architecture{Proposed, MultiHopNoRenewable, OneHopRenewable, OneHopNoRenewable}
	var out []ArchitectureCost
	for _, a := range archs {
		for _, v := range vs {
			s := sc
			s.Architecture = a
			s.V = v
			s.KeepTraces = false
			r, err := Run(s)
			if err != nil {
				return nil, fmt.Errorf("%v V=%g: %w", a, v, err)
			}
			out = append(out, ArchitectureCost{Architecture: a, V: v, AvgCost: r.AvgEnergyCost})
		}
	}
	return out, nil
}
