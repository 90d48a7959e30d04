// Package core implements the paper's online finite-queue-aware energy cost
// minimization algorithm (Section IV): the drift-plus-penalty controller
// that each slot observes the random network state, solves the four
// subproblems S1 (link scheduling), S2 (resource allocation), S3 (routing)
// and S4 (energy management), and updates the data queues Q_i^s (eq. (15)),
// the scaled virtual link queues H_ij (eq. (30)) and the battery/shifted
// energy queues x_i / z_i (eqs. (4), (31)).
//
// The paper's problem chain, and where each transformation lives:
//
//	P1 (min time-avg energy cost, per-slot constraints)
//	 → P2: admission reward −λ·Σ k_s added so strong stability implies
//	   near-optimal admission (the λV term read by internal/alloc);
//	 → P3: the per-slot capacity constraint (25) replaced by its time
//	   average (27), enforced through the virtual queues H_ij that this
//	   package maintains; Theorems 4–5 sandwich ψ*_P1 between the
//	   controller's achieved penalty objective and the relaxed bound
//	   ψ*_P3̄ − B/V computed by internal/sim.BoundsAt.
//
// Minimizing the drift-plus-penalty bound (Lemma 1, constant B of
// eq. (34)) decouples P3 into S1–S4, dispatched to internal/sched,
// internal/alloc, internal/routing, and internal/energymgmt respectively.
//
// With Config.Instrument set, every Step reports a StageBreakdown (wall
// time and LP work per subproblem) consumed by the metrics layer
// (internal/metrics, docs/METRICS.md).
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"greencell/internal/alloc"
	"greencell/internal/energy"
	"greencell/internal/energymgmt"
	"greencell/internal/faultinject"
	"greencell/internal/lyapunov"
	"greencell/internal/queueing"
	"greencell/internal/rng"
	"greencell/internal/routing"
	"greencell/internal/sched"
	"greencell/internal/topology"
	"greencell/internal/traffic"
	"greencell/internal/units"
)

// Config assembles one controller.
type Config struct {
	// Net is the physical network.
	Net *topology.Network
	// Traffic is the session set.
	Traffic *traffic.Model
	// V is the drift-plus-penalty weight (cost emphasis).
	V float64
	// Lambda is the admission reward coefficient λ of the P2 objective.
	Lambda float64
	// SlotSeconds is Δt.
	SlotSeconds float64
	// Cost is the provider's grid energy cost f.
	Cost energy.CostFunc
	// Scheduler solves S1 (nil = the paper's SequentialFix).
	Scheduler sched.Scheduler
	// EnergyGate, when set, caps each node's schedulable transmit power by
	// the energy actually obtainable this slot (renewable + discharge
	// headroom + grid), keeping S4 deficits out of normal operation.
	EnergyGate bool
	// AuditDrift, when set, records a per-slot DriftAudit in every
	// SlotResult: the realized Lyapunov drift and the Lemma 1 bound it
	// must satisfy. Used by tests and the validation harness.
	AuditDrift bool
	// TrackDelay, when set, shadows every data queue with a FIFO of packet
	// admission times, yielding exact per-packet delivery delays (see
	// Controller.SessionDelay) at some memory cost.
	TrackDelay bool
	// Instrument, when set, fills SlotResult.Stages with per-stage wall
	// times and LP work counts for the metrics layer (docs/METRICS.md).
	// Off by default: no clock reads or extra allocations happen on the
	// control path when disabled.
	Instrument bool
	// Env overrides how the per-slot random state is drawn (nil = the
	// default stochastic environment). Tests and the offline-optimum
	// comparison inject fixed realizations here.
	Env Environment
	// Check, when set, receives every slot's raw decisions and state
	// transitions (SlotCheck) after the slot completes; a non-nil return
	// aborts the run. internal/invariant wires the paper-constraint
	// checker here (enabled via sim.Scenario.CheckInvariants). Nil keeps
	// the control path free of the extra snapshots.
	Check func(*SlotCheck) error
	// Faults, when set, injects deterministic faults at the named sites of
	// internal/faultinject; injected failures take exactly the same
	// degradation path as organic ones. Nil injects nothing.
	Faults *faultinject.Injector
	// Budget bounds each slot's solve work (docs/ROBUSTNESS.md). The zero
	// value imposes no caller budget.
	Budget SolveBudget
}

// SolveBudget bounds the optimization work a single Step may spend. When a
// stage exhausts its budget the controller does not error: it falls back to
// the stage's safe action and marks the slot degraded.
type SolveBudget struct {
	// MaxLPIterations caps the total simplex iterations of each S1 LP
	// solve (lp.Problem.SetIterationLimit); 0 = no cap beyond the engine's
	// built-in safety limit. S4 is a merit-order dispatch with no LP and
	// no budget.
	MaxLPIterations int
	// SlotDeadline is the wall-clock budget for one Step's solves; 0 = no
	// deadline. Once spent, every remaining stage of the slot takes its
	// safe action (cause "deadline"). Real wall-clock overruns are
	// machine-dependent, so runs that must be bit-identical should either
	// leave this zero or set it generously; the injected Latency fault
	// consumes the deadline virtually — without sleeping — and is fully
	// deterministic.
	SlotDeadline time.Duration
}

// Observation is the random state revealed at the beginning of a slot:
// band widths W_m(t), per-node renewable output R_i(t), and per-node
// grid connectivity ω_i(t).
type Observation struct {
	Widths    []units.Bandwidth
	RenewWh   []units.Energy
	Connected []bool
}

// Environment produces per-slot observations.
type Environment interface {
	// Observe returns the slot's random state. src is the controller's
	// deterministic randomness stream for the slot.
	Observe(slot int, src *rng.Source, net *topology.Network) Observation
}

// DefaultEnvironment samples the paper's processes: band widths from the
// spectrum model, renewable outputs and grid connectivity per node spec.
type DefaultEnvironment struct{}

// Observe implements Environment.
func (DefaultEnvironment) Observe(slot int, src *rng.Source, net *topology.Network) Observation {
	obs := Observation{
		Widths:    net.Spectrum.SampleWidths(src.Split(fmt.Sprintf("widths_%d", slot))),
		RenewWh:   make([]units.Energy, net.NumNodes()),
		Connected: make([]bool, net.NumNodes()),
	}
	envSrc := src.Split(fmt.Sprintf("env_%d", slot))
	for i, nd := range net.Nodes {
		obs.RenewWh[i] = nd.Spec.Renewable.Sample(envSrc)
		obs.Connected[i] = nd.Spec.Grid.SampleConnected(envSrc)
	}
	return obs
}

// FixedEnvironment replays a pre-drawn realization (one Observation per
// slot, cycling if the run is longer).
type FixedEnvironment struct {
	Slots []Observation
}

// Observe implements Environment.
func (f FixedEnvironment) Observe(slot int, _ *rng.Source, _ *topology.Network) Observation {
	return f.Slots[slot%len(f.Slots)]
}

// ErrConfig reports an invalid controller configuration.
var ErrConfig = errors.New("core: invalid config")

// SlotResult reports what happened in one slot.
type SlotResult struct {
	// Slot is the 0-based slot index.
	Slot int
	// GridWh is P(t), the total base-station grid draw.
	GridWh units.Energy
	// EnergyCost is f(P(t)).
	EnergyCost units.Cost
	// AdmittedPkts is Σ_s k_s(t).
	AdmittedPkts float64
	// PenaltyObjective is the per-slot P2 objective f(P(t)) − λ·Σ_s k_s(t);
	// its time average is the quantity bounded by Theorems 4–5. It mixes
	// cost units with reward-weighted packets, so it stays a bare float64.
	PenaltyObjective float64
	// DeliveredPkts[s] is the packets that reached d_s this slot.
	DeliveredPkts []float64
	// ScheduledLinks is the number of active links.
	ScheduledLinks int
	// TxEnergyWh is the total transmission+reception energy Σ_i E_i^TX.
	TxEnergyWh units.Energy
	// DemandWh is the total node energy demand Σ_i E_i(t).
	DemandWh units.Energy
	// DeficitWh is unserved energy demand (0 in normal operation).
	DeficitWh units.Energy
	// MarginalPriceWh is the S4 shadow price V·f'(P(t)) of grid energy.
	MarginalPriceWh units.Price
	// RenewableWh is the total renewable output this slot.
	RenewableWh units.Energy
	// OfferedPkts is Σ_s K_s^max, the traffic the sessions offered for
	// admission this slot (the upper limit of the S2 decision k_s(t)).
	OfferedPkts float64
	// DroppedPkts is OfferedPkts − AdmittedPkts: traffic the admission
	// control turned away because the source backlog exceeded λV.
	DroppedPkts float64

	// Queue aggregates at the END of the slot (what Fig. 2(b)–(e) plot).
	DataBacklogBS, DataBacklogUsers float64
	BatteryWhBS, BatteryWhUsers     units.Energy
	VirtualBacklogH                 float64
	ShiftedEnergyAbsZ               units.Energy

	// Audit holds the realized Lyapunov drift audit (nil unless
	// Config.AuditDrift).
	Audit *DriftAudit
	// Stages holds the per-stage timing and solver-work breakdown (nil
	// unless Config.Instrument).
	Stages *StageBreakdown

	// Degraded marks a slot where at least one stage fell back to its safe
	// action instead of its optimizing decision (docs/ROBUSTNESS.md).
	Degraded bool
	// DegradedCauses lists the degradation causes recorded this slot, in
	// stage order. Labels: obs, latency, deadline, s1_infeasible,
	// s1_iterlimit, s2_fault, s3_fault, s4_infeasible, s4_iterlimit.
	DegradedCauses []string
}

// markDegraded records one degradation cause on the slot.
func (r *SlotResult) markDegraded(cause string) {
	r.Degraded = true
	r.DegradedCauses = append(r.DegradedCauses, cause)
}

// StageBreakdown records how one Step spent its time across the paper's
// per-slot subproblems, plus the LP work of the solver-backed stages.
// Wall-clock fields are nanoseconds and map to the *_ns fields of the
// metrics schema — the only fields of a fixed-seed run that are not
// deterministic (metrics.CanonicalizeJSONL zeroes them for comparisons).
type StageBreakdown struct {
	// S1NS times link scheduling (weight/power-cap prep + the solve).
	// S2NS times resource allocation, S3NS routing, S4NS energy
	// management including the battery updates. QueueNS covers the work
	// between S3 and S4: executing transfers and stepping the data and
	// virtual queues.
	S1NS, S2NS, S3NS, QueueNS, S4NS int64
	// TotalNS is the whole Step, including observation and end-of-slot
	// aggregation (so it exceeds the sum of the stage fields).
	TotalNS int64
	// SchedLPSolves / SchedLPIterations are S1's LP work: solve count and
	// total simplex iterations (zero for LP-free schedulers like Greedy).
	SchedLPSolves, SchedLPIterations int
	// S4LPSolves / S4LPIterations always read 0, since S4 solves no LP;
	// they stay so the metrics schema keeps its s4_lp_* fields
	// (docs/METRICS.md).
	S4LPSolves, S4LPIterations int
	// LPWarmStarts / LPBasisInvalidations aggregate the S1 warm-start
	// counters; they feed the lp_warm_starts_total and
	// lp_basis_invalidations_total metrics.
	LPWarmStarts, LPBasisInvalidations int
	// SchedObjective is Ψ̂1 = Σ_l H_l·c_l achieved by the S1 assignment.
	SchedObjective float64
}

// DriftAudit is the per-slot numerical check of Lemma 1: the realized
// drift ΔL must not exceed SquareTerms + CrossTerms, and SquareTerms must
// not exceed the a-priori constant B of eq. (34).
type DriftAudit struct {
	// LBefore and LAfter are L(Θ(t)) and L(Θ(t+1)).
	LBefore, LAfter float64
	// Drift is LAfter − LBefore.
	Drift float64
	// SquareTerms and CrossTerms are the realized right-hand-side pieces
	// (see package lyapunov).
	SquareTerms, CrossTerms float64
	// B is the Lemma 1 constant.
	B float64
}

// Holds reports whether both audited inequalities hold (with a relative
// tolerance for floating-point accumulation).
func (d *DriftAudit) Holds() bool {
	tol := 1e-9 * (1 + math.Abs(d.LBefore) + math.Abs(d.LAfter))
	return d.Drift <= d.SquareTerms+d.CrossTerms+tol && d.SquareTerms <= d.B+tol
}

// Controller is the online algorithm's mutable state Θ(t) plus the derived
// Lyapunov constants.
type Controller struct {
	cfg   Config
	sched sched.Scheduler

	// warmSched carries the S1 LP bases across slots (docs/PERFORMANCE.md).
	warmSched *sched.WarmState

	// q[s][i] is Q_i^s(t); the destination's entry stays zero.
	q [][]queueing.Queue
	// fifos shadows q with packet ages when cfg.TrackDelay.
	fifos [][]queueing.PacketFIFO
	// delays accumulates per-session delivery-delay statistics.
	delays []queueing.DelayStats
	// h[l] is H_ij(t) per candidate link.
	h []queueing.Queue
	// batteries[i] is x_i(t).
	batteries []*energy.Battery

	// Lyapunov constants.
	beta     float64     // β = max_ij (1/δ)·c_ij^max·Δt  (packets/slot)
	gammaMax units.Price // γ_max = max f' over the grid-draw domain
	bConst   float64     // B of eq. (34)

	// capPktsMax[l] is (1/δ)·c_l^max·Δt, link l's best-case packets/slot.
	capPktsMax []float64

	slot int
}

// New builds a controller and validates the configuration.
func New(cfg Config) (*Controller, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("%w: nil network", ErrConfig)
	}
	if cfg.Traffic == nil {
		return nil, fmt.Errorf("%w: nil traffic", ErrConfig)
	}
	if err := cfg.Traffic.Validate(cfg.Net.NumNodes()); err != nil {
		return nil, err
	}
	if cfg.V < 0 || cfg.Lambda < 0 {
		return nil, fmt.Errorf("%w: negative V or Lambda", ErrConfig)
	}
	if cfg.SlotSeconds <= 0 {
		return nil, fmt.Errorf("%w: SlotSeconds = %v", ErrConfig, cfg.SlotSeconds)
	}
	if cfg.Cost == nil {
		return nil, fmt.Errorf("%w: nil cost function", ErrConfig)
	}
	for _, s := range cfg.Traffic.Sessions {
		if s.Uplink {
			if cfg.Net.IsBS(s.Source) {
				return nil, fmt.Errorf("%w: uplink session %d source %d is a base station", ErrConfig, s.ID, s.Source)
			}
			continue
		}
		if cfg.Net.IsBS(s.Dest) {
			return nil, fmt.Errorf("%w: session %d destination %d is a base station", ErrConfig, s.ID, s.Dest)
		}
	}

	c := &Controller{
		cfg:       cfg,
		sched:     cfg.Scheduler,
		warmSched: &sched.WarmState{},
	}
	if c.sched == nil {
		c.sched = sched.SequentialFix{}
	}

	net := cfg.Net
	S := cfg.Traffic.NumSessions()
	c.q = make([][]queueing.Queue, S)
	for s := range c.q {
		c.q[s] = make([]queueing.Queue, net.NumNodes())
	}
	if cfg.TrackDelay {
		c.fifos = make([][]queueing.PacketFIFO, S)
		for s := range c.fifos {
			c.fifos[s] = make([]queueing.PacketFIFO, net.NumNodes())
		}
		c.delays = make([]queueing.DelayStats, S)
	}
	c.h = make([]queueing.Queue, len(net.Links))
	c.batteries = make([]*energy.Battery, net.NumNodes())
	for i, nd := range net.Nodes {
		b, err := energy.NewBattery(nd.Spec.Battery, nd.Spec.BatteryInitWh)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		c.batteries[i] = b
	}

	c.deriveConstants()
	return c, nil
}

// deriveConstants computes β, γ_max, the per-link best-case packet
// capacities, and the drift constant B of eq. (34).
func (c *Controller) deriveConstants() {
	net := c.cfg.Net
	delta := c.cfg.Traffic.PacketBits
	dtSec := c.cfg.SlotSeconds

	c.capPktsMax = make([]float64, len(net.Links))
	for l, link := range net.Links {
		best := 0.0
		for _, b := range link.Bands {
			if r := net.Radio.Capacity(net.Spectrum.Bands[b].Width.Max().Hz()); r > best {
				best = r
			}
		}
		c.capPktsMax[l] = best * dtSec / delta
	}
	c.beta = 0
	for _, v := range c.capPktsMax {
		if v > c.beta {
			c.beta = v
		}
	}
	if c.beta == 0 {
		c.beta = 1 // degenerate networks with no links still need β > 0
	}

	totalPMax := units.Energy(0)
	for _, i := range net.BaseStations() {
		totalPMax += net.Nodes[i].Spec.Grid.MaxDrawWh
	}
	c.gammaMax = c.cfg.Cost.MaxDeriv(totalPMax)

	// B per eq. (34). maxServe/maxArrive are each node's best-case per-slot
	// packet service / arrival over its single radio.
	maxServe := make([]float64, net.NumNodes())
	maxArrive := make([]float64, net.NumNodes())
	for l, link := range net.Links {
		if c.capPktsMax[l] > maxServe[link.From] {
			maxServe[link.From] = c.capPktsMax[l]
		}
		if c.capPktsMax[l] > maxArrive[link.To] {
			maxArrive[link.To] = c.capPktsMax[l]
		}
	}
	b := 0.0
	for _, sess := range c.cfg.Traffic.Sessions {
		for i := range net.Nodes {
			arrive := maxArrive[i]
			if (!sess.Uplink && net.IsBS(i)) || (sess.Uplink && i == sess.Source) {
				// Any base station may be chosen as s_s(t) for a downlink
				// session; an uplink session admits at its fixed user.
				arrive += sess.MaxAdmission
			}
			b += 0.5 * (maxServe[i]*maxServe[i] + arrive*arrive)
		}
	}
	for l := range net.Links {
		v := c.beta * c.capPktsMax[l]
		b += v * v
	}
	for i := range net.Nodes {
		spec := net.Nodes[i].Spec.Battery
		m := spec.MaxChargeWh
		if spec.MaxDischargeWh > m {
			m = spec.MaxDischargeWh
		}
		b += 0.5 * m.Wh() * m.Wh()
	}
	c.bConst = b
}

// Beta returns β.
func (c *Controller) Beta() float64 { return c.beta }

// GammaMax returns γ_max.
func (c *Controller) GammaMax() units.Price { return c.gammaMax }

// B returns the drift constant of eq. (34); Theorem 5's lower bound is
// ψ*_P3̄ − B/V.
func (c *Controller) B() float64 { return c.bConst }

// V returns the configured drift-plus-penalty weight.
func (c *Controller) V() float64 { return c.cfg.V }

// SessionDelay returns the exact delivered-packet delay statistics of a
// session: packet-weighted mean and maximum, in slots. It returns zeros
// unless Config.TrackDelay was set.
func (c *Controller) SessionDelay(sessionIdx int) (mean, max, delivered float64) {
	if c.delays == nil {
		return 0, 0, 0
	}
	d := &c.delays[sessionIdx]
	return d.Mean(), d.Max(), d.Count()
}

// SessionDelayQuantile returns the q-quantile of a session's delivered-
// packet delay distribution in slots (0 unless Config.TrackDelay).
func (c *Controller) SessionDelayQuantile(sessionIdx int, q float64) float64 {
	if c.delays == nil {
		return 0
	}
	return c.delays[sessionIdx].Quantile(q)
}

// isSink reports whether node is a delivery point of session s: the fixed
// destination for downlink, any base station for uplink (anycast).
func (c *Controller) isSink(s, node int) bool {
	sess := c.cfg.Traffic.Sessions[s]
	if sess.Uplink {
		return c.cfg.Net.IsBS(node)
	}
	return node == sess.Dest
}

// QueueBacklog returns Q_i^s(t).
func (c *Controller) QueueBacklog(sessionIdx, node int) float64 {
	return c.q[sessionIdx][node].Backlog()
}

// VirtualBacklog returns H_ij(t) for candidate link l.
func (c *Controller) VirtualBacklog(l int) float64 { return c.h[l].Backlog() }

// BatteryLevel returns x_i(t).
func (c *Controller) BatteryLevel(node int) units.Energy { return c.batteries[node].Level() }

// ImportNodeView overwrites the controller's stored state for one node —
// its per-session data queues and its battery level — with externally
// observed values. The distributed coordinator (internal/machine,
// docs/DISTRIBUTED.md) uses it to replace its per-slot predictions with
// gossiped ground truth before deciding; under a perfect network the
// imported values equal the predictions bitwise, so the import is
// invisible to the fidelity gate. The virtual link queues H and the
// shifted-battery bookkeeping derive from the imported level on the next
// Step, so no other state needs touching.
func (c *Controller) ImportNodeView(node int, backlogs []float64, batteryWh units.Energy) error {
	if node < 0 || node >= c.cfg.Net.NumNodes() {
		return fmt.Errorf("%w: ImportNodeView node %d", ErrConfig, node)
	}
	if len(backlogs) != len(c.q) {
		return fmt.Errorf("%w: ImportNodeView got %d session backlogs, want %d",
			ErrConfig, len(backlogs), len(c.q))
	}
	for s := range c.q {
		c.q[s][node].Set(backlogs[s])
	}
	c.batteries[node].Reset(batteryWh)
	return nil
}

// ShiftedLevel returns z_i(t) = x_i(t) − V·γ_max − d_i^max.
func (c *Controller) ShiftedLevel(node int) units.Energy {
	return units.Wh(c.batteries[node].Level().Wh() - c.cfg.V*c.gammaMax.PerWh() -
		c.cfg.Net.Nodes[node].Spec.Battery.MaxDischargeWh.Wh())
}

// snapshot flattens Θ(t) for the Lyapunov audit.
func (c *Controller) snapshot() lyapunov.State {
	net := c.cfg.Net
	S := c.cfg.Traffic.NumSessions()
	st := lyapunov.State{
		Q: make([]float64, 0, S*net.NumNodes()),
		H: make([]float64, 0, len(net.Links)),
		Z: make([]float64, 0, net.NumNodes()),
	}
	for s := 0; s < S; s++ {
		for i := 0; i < net.NumNodes(); i++ {
			st.Q = append(st.Q, c.q[s][i].Backlog())
		}
	}
	for l := range net.Links {
		st.H = append(st.H, c.h[l].Backlog())
	}
	for i := 0; i < net.NumNodes(); i++ {
		st.Z = append(st.Z, c.ShiftedLevel(i).Wh())
	}
	return st
}

// Step advances the controller by one slot, drawing all randomness from src.
func (c *Controller) Step(src *rng.Source) (*SlotResult, error) {
	net := c.cfg.Net
	S := c.cfg.Traffic.NumSessions()
	dtH := c.cfg.SlotSeconds / 3600 // hours
	delta := c.cfg.Traffic.PacketBits

	res := &SlotResult{Slot: c.slot, DeliveredPkts: make([]float64, S)}

	// chk accumulates the slot's raw decisions for Config.Check; nil keeps
	// the snapshots off the control path.
	var chk *SlotCheck
	if c.cfg.Check != nil {
		chk = &SlotCheck{Slot: c.slot, Net: net, IsSink: c.isSink}
	}

	// Instrumentation is branch-only when off: st stays nil and no clock
	// is read, keeping the uninstrumented control path allocation-free.
	var st *StageBreakdown
	var t0, mark time.Time
	if c.cfg.Instrument {
		st = &StageBreakdown{}
		res.Stages = st
		t0 = time.Now()
		mark = t0
	}

	// --- Fault-injection and solve-budget state ------------------------
	// inj is nil-safe: a nil injector never fires. pastDeadline flips when
	// the slot's wall-clock budget is spent (organically, or virtually by
	// the injected Latency fault); from then on every stage takes its safe
	// action. overDeadline is checked before each stage solve.
	inj := c.cfg.Faults
	var deadlineAt time.Time
	pastDeadline := false
	if c.cfg.Budget.SlotDeadline > 0 {
		deadlineAt = time.Now().Add(c.cfg.Budget.SlotDeadline)
		if inj.Fires(faultinject.Latency, c.slot) {
			// Virtual latency spike: the budget is consumed up front —
			// nothing sleeps, so runs stay fast and bit-identical.
			pastDeadline = true
			res.markDegraded(CauseLatency)
		}
	}
	overDeadline := func() bool {
		if c.cfg.Budget.SlotDeadline <= 0 {
			return false
		}
		if !pastDeadline && time.Now().After(deadlineAt) {
			pastDeadline = true
			res.markDegraded(CauseDeadline)
		}
		return pastDeadline
	}

	// --- Observe the random state -------------------------------------
	env := c.cfg.Env
	if env == nil {
		env = DefaultEnvironment{}
	}
	obs := env.Observe(c.slot, src, net)
	c.injectObs(&obs)
	if sanitizeObs(&obs) {
		res.markDegraded(CauseObs)
	}
	// The scheduling/routing kernels run on bare float64; convert the
	// typed widths once per slot at the boundary.
	widthsHz := units.HzSlice(obs.Widths)
	renewWh := obs.RenewWh
	connected := obs.Connected
	for _, r := range renewWh {
		res.RenewableWh += r
	}
	if chk != nil {
		chk.Obs = obs
	}
	if st != nil {
		mark = time.Now() // exclude observation from the S1 timing
	}

	// --- S1: link scheduling -------------------------------------------
	weights := make([]float64, len(net.Links))
	for l := range net.Links {
		weights[l] = c.h[l].Backlog()
	}
	var txCap []float64
	if c.cfg.EnergyGate {
		txCap = make([]float64, net.NumNodes())
		for i, nd := range net.Nodes {
			availWh := renewWh[i] + c.batteries[i].DischargeHeadroom()
			if connected[i] {
				availWh += nd.Spec.Grid.MaxDrawWh
			}
			availWh -= (nd.Spec.ConstPowerW + nd.Spec.IdlePowerW).OverHours(dtH)
			capW := availWh.PerHours(dtH)
			if capW < 0 {
				capW = 0
			}
			if capW > nd.Spec.MaxTxPowerW {
				capW = nd.Spec.MaxTxPowerW
			}
			txCap[i] = capW.Watts()
		}
	}
	var asg *sched.Assignment
	var errS1 error
	switch {
	case overDeadline():
		asg = idleAssignment(net)
	case inj.Fires(faultinject.S1Infeasible, c.slot):
		errS1 = fmt.Errorf("%w: %w", sched.ErrInfeasible, inj.Error(faultinject.S1Infeasible, c.slot))
	case inj.Fires(faultinject.S1IterLimit, c.slot):
		errS1 = fmt.Errorf("%w: %w", sched.ErrIterationLimit, inj.Error(faultinject.S1IterLimit, c.slot))
	default:
		asg, errS1 = c.sched.Schedule(&sched.Request{
			Net:             net,
			Widths:          widthsHz,
			Weights:         weights,
			TxPowerCap:      txCap,
			MaxLPIterations: c.cfg.Budget.MaxLPIterations,
			Warm:            c.warmSched,
		})
	}
	if errS1 != nil {
		cause := solveCause(errS1, CauseS1Infeasible, CauseS1IterLimit, CauseS1Infeasible)
		if cause == "" {
			return nil, fmt.Errorf("slot %d: %w", c.slot, errS1)
		}
		res.markDegraded(cause)
		asg = idleAssignment(net)
	}
	// capPkts is the scheduled service of the virtual queues H (eq. (30)).
	// routeCap is the routing cap per link: the capacity the link would
	// have on its best currently-available band. The paper's P2 replaces
	// the per-slot capacity constraint (25) by its time average (27),
	// which the strong stability of H enforces; routing therefore ships up
	// to the potential capacity while H accumulates any deficit between
	// routed load and scheduled service (see DESIGN.md).
	capPkts := make([]float64, len(net.Links))
	routeCap := make([]float64, len(net.Links))
	for l, link := range net.Links {
		capPkts[l] = asg.RateBits[l] * c.cfg.SlotSeconds / delta
		if asg.Activity[l] > 0 {
			res.ScheduledLinks++
		}
		best := 0.0
		for _, b := range link.Bands {
			if r := net.Radio.Capacity(widthsHz[b]); r > best {
				best = r
			}
		}
		routeCap[l] = best * c.cfg.SlotSeconds / delta
	}
	if st != nil {
		now := time.Now()
		st.S1NS = now.Sub(mark).Nanoseconds()
		mark = now
		st.SchedLPSolves = asg.Stats.LPSolves
		st.SchedLPIterations = asg.Stats.LPIterations
		st.LPWarmStarts += asg.Stats.WarmStarts
		st.LPBasisInvalidations += asg.Stats.BasisInvalidations
		st.SchedObjective = asg.Objective(weights)
	}

	// --- S2: resource allocation ----------------------------------------
	var dec2 *alloc.Decision
	var errS2 error
	switch {
	case overDeadline():
		dec2 = c.safeAllocation()
	case inj.Fires(faultinject.S2Fail, c.slot):
		errS2 = inj.Error(faultinject.S2Fail, c.slot)
	default:
		dec2, errS2 = alloc.Decide(&alloc.Request{
			Sessions:     c.cfg.Traffic.Sessions,
			BaseStations: net.BaseStations(),
			Backlog:      func(s, node int) float64 { return c.q[s][node].Backlog() },
			LambdaV:      c.cfg.Lambda * c.cfg.V,
		})
	}
	if errS2 != nil {
		// alloc has no solver: organic errors are request bugs and abort;
		// only injected failures degrade.
		cause := solveCause(errS2, CauseS2Fault, CauseS2Fault, CauseS2Fault)
		if cause == "" {
			return nil, fmt.Errorf("slot %d: %w", c.slot, errS2)
		}
		res.markDegraded(cause)
		dec2 = c.safeAllocation()
	}
	if st != nil {
		now := time.Now()
		st.S2NS = now.Sub(mark).Nanoseconds()
		mark = now
	}

	// --- S3: routing ------------------------------------------------------
	dest := make([]int, S)
	demand := make([]float64, S)
	for s, sess := range c.cfg.Traffic.Sessions {
		dest[s] = sess.Dest
		demand[s] = sess.DemandAt(c.slot)
	}
	hBacklog := make([]float64, len(net.Links))
	for l := range net.Links {
		hBacklog[l] = c.h[l].Backlog()
	}
	var dec3 *routing.Decision
	var errS3 error
	switch {
	case overDeadline():
		dec3 = c.safeRouting()
	case inj.Fires(faultinject.S3Fail, c.slot):
		errS3 = inj.Error(faultinject.S3Fail, c.slot)
	default:
		dec3, errS3 = routing.Decide(&routing.Request{
			Net:         net,
			NumSessions: S,
			Backlog: func(s, node int) float64 {
				if c.isSink(s, node) {
					return 0
				}
				return c.q[s][node].Backlog()
			},
			H:            hBacklog,
			Beta:         c.beta,
			CapacityPkts: routeCap,
			Dest:         dest,
			Source:       dec2.Source,
			Sink:         c.isSink,
			DemandPkts:   demand,
		})
	}
	if errS3 != nil {
		// routing is solver-free like alloc: only injected failures degrade.
		cause := solveCause(errS3, CauseS3Fault, CauseS3Fault, CauseS3Fault)
		if cause == "" {
			return nil, fmt.Errorf("slot %d: %w", c.slot, errS3)
		}
		res.markDegraded(cause)
		dec3 = c.safeRouting()
	}
	if st != nil {
		now := time.Now()
		st.S3NS = now.Sub(mark).Nanoseconds()
		mark = now
	}
	if chk != nil {
		chk.Assignment = asg
		chk.RouteCapPkts = routeCap
		chk.Admit = dec2.Admit
		chk.Source = dec2.Source
		chk.DemandPkts = demand
		chk.Flow = dec3.Flow
		chk.QBefore = make([][]float64, S)
		for s := 0; s < S; s++ {
			chk.QBefore[s] = make([]float64, net.NumNodes())
			for i := range net.Nodes {
				chk.QBefore[s][i] = c.q[s][i].Backlog()
			}
		}
	}

	// Execute transfers: ship only packets that exist, decrementing each
	// upstream backlog as flows are granted so a node's several out-links
	// cannot ship the same packets twice (see DESIGN.md).
	actual := make([][]float64, len(net.Links))
	actualSlab := make([]float64, len(net.Links)*S)
	for l := range net.Links {
		actual[l] = actualSlab[l*S : (l+1)*S : (l+1)*S]
	}
	remaining := make([]float64, net.NumNodes())
	// Grant destination-bound flows first: they realize throughput.
	grant := func(s, l int, link topology.Link) {
		f := dec3.Flow[l][s]
		if f <= 0 {
			return
		}
		if f > remaining[link.From] {
			f = remaining[link.From]
		}
		actual[l][s] = f
		remaining[link.From] -= f
	}
	for s := 0; s < S; s++ {
		for i := range net.Nodes {
			remaining[i] = c.q[s][i].Backlog()
		}
		for l, link := range net.Links {
			if c.isSink(s, link.To) {
				grant(s, l, link)
			}
		}
		for l, link := range net.Links {
			if !c.isSink(s, link.To) {
				grant(s, l, link)
			}
		}
	}

	// --- Queue updates (data + virtual) ----------------------------------
	var audit *lyapunov.Audit
	var before lyapunov.State
	if c.cfg.AuditDrift {
		audit = &lyapunov.Audit{}
		before = c.snapshot()
	}
	arrivals := make([]float64, net.NumNodes())
	services := make([]float64, net.NumNodes())
	for s := 0; s < S; s++ {
		clear(arrivals)
		clear(services)
		for l, link := range net.Links {
			a := actual[l][s]
			if a == 0 {
				continue
			}
			services[link.From] += a
			if c.isSink(s, link.To) {
				res.DeliveredPkts[s] += a
			} else {
				arrivals[link.To] += a
			}
		}
		arrivals[dec2.Source[s]] += dec2.Admit[s]
		res.AdmittedPkts += dec2.Admit[s]
		if c.fifos != nil {
			// Move packet ages along the same transfers: pop each link's
			// shipment from the upstream FIFO, record delays at the
			// destination, re-queue elsewhere; then add the admissions.
			for l, link := range net.Links {
				a := actual[l][s]
				if a == 0 {
					continue
				}
				batches := c.fifos[s][link.From].Pop(a)
				if c.isSink(s, link.To) {
					c.delays[s].Record(c.slot, batches)
				} else {
					c.fifos[s][link.To].PushBatches(batches)
				}
			}
			c.fifos[s][dec2.Source[s]].Push(dec2.Admit[s], c.slot)
		}
		for i := range net.Nodes {
			if c.isSink(s, i) {
				continue
			}
			if audit != nil {
				audit.AddQueue(lyapunov.Flow{
					Backlog: c.q[s][i].Backlog(),
					Arrival: arrivals[i],
					Service: services[i],
				})
			}
			c.q[s][i].Step(arrivals[i], services[i])
		}
	}
	for l := range net.Links {
		flow := 0.0
		for s := 0; s < S; s++ {
			flow += actual[l][s]
		}
		if audit != nil {
			audit.AddQueue(lyapunov.Flow{
				Backlog: c.h[l].Backlog(),
				Arrival: c.beta * flow,
				Service: c.beta * capPkts[l],
			})
		}
		c.h[l].Step(c.beta*flow, c.beta*capPkts[l])
	}
	if st != nil {
		now := time.Now()
		st.QueueNS = now.Sub(mark).Nanoseconds()
		mark = now
	}

	// --- Energy accounting: E_i(t) per eqs. (2) and (23) ------------------
	demandWh := make([]units.Energy, net.NumNodes())
	for i, nd := range net.Nodes {
		demandWh[i] = (nd.Spec.ConstPowerW + nd.Spec.IdlePowerW).OverHours(dtH)
	}
	for l, link := range net.Links {
		if asg.Activity[l] <= 0 {
			continue
		}
		tx := units.Watts(asg.PowerW[l]).OverHours(dtH)
		rx := net.Nodes[link.To].Spec.RecvPowerW.Scale(asg.Activity[l]).OverHours(dtH)
		demandWh[link.From] += tx
		demandWh[link.To] += rx
		res.TxEnergyWh += tx + rx
	}
	for _, d := range demandWh {
		res.DemandWh += d
	}

	// --- S4: energy management -------------------------------------------
	inputs := make([]energymgmt.NodeInput, net.NumNodes())
	for i, nd := range net.Nodes {
		inputs[i] = energymgmt.NodeInput{
			Z:                   c.ShiftedLevel(i),
			DemandWh:            demandWh[i],
			RenewableWh:         renewWh[i],
			ChargeHeadroomWh:    c.batteries[i].ChargeHeadroom(),
			DischargeHeadroomWh: c.batteries[i].DischargeHeadroom(),
			GridConnected:       connected[i],
			GridCapWh:           nd.Spec.Grid.MaxDrawWh,
			IsBS:                net.IsBS(i),
		}
	}
	req4 := &energymgmt.Request{Nodes: inputs, V: c.cfg.V, Cost: c.cfg.Cost}
	var dec4 *energymgmt.Decision
	var errS4 error
	switch {
	case overDeadline():
		dec4 = energymgmt.SafeDecision(req4)
	case inj.Fires(faultinject.S4Infeasible, c.slot):
		errS4 = fmt.Errorf("%w: %w", energymgmt.ErrInfeasible, inj.Error(faultinject.S4Infeasible, c.slot))
	case inj.Fires(faultinject.S4IterLimit, c.slot):
		errS4 = fmt.Errorf("%w: %w", energymgmt.ErrIterationLimit, inj.Error(faultinject.S4IterLimit, c.slot))
	default:
		dec4, errS4 = energymgmt.Solve(req4)
	}
	if errS4 != nil {
		cause := solveCause(errS4, CauseS4Infeasible, CauseS4IterLimit, CauseS4Infeasible)
		if cause == "" {
			return nil, fmt.Errorf("slot %d: %w", c.slot, errS4)
		}
		res.markDegraded(cause)
		dec4 = energymgmt.SafeDecision(req4)
	}
	if chk != nil {
		chk.Actual = actual
		chk.DemandWh = demandWh
		chk.Energy = dec4
		chk.BatteryBeforeWh = make([]units.Energy, net.NumNodes())
		chk.ChargeHeadroomWh = make([]units.Energy, net.NumNodes())
		chk.DischargeHeadroomWh = make([]units.Energy, net.NumNodes())
		for i := range net.Nodes {
			chk.BatteryBeforeWh[i] = c.batteries[i].Level()
			chk.ChargeHeadroomWh[i] = c.batteries[i].ChargeHeadroom()
			chk.DischargeHeadroomWh[i] = c.batteries[i].DischargeHeadroom()
		}
	}
	for i := range net.Nodes {
		nd := dec4.Nodes[i]
		zBefore := c.ShiftedLevel(i)
		lvlBefore := c.batteries[i].Level()
		if err := c.batteries[i].Step(nd.ChargeWh(), nd.DischargeWh); err != nil {
			return nil, fmt.Errorf("slot %d node %d: %w", c.slot, i, err)
		}
		if audit != nil {
			// Use the realized level change so storage losses (extension)
			// stay consistent with z' = z + Δx.
			audit.AddSigned(zBefore.Wh(), (c.batteries[i].Level() - lvlBefore).Wh(), 0)
		}
	}
	if st != nil {
		st.S4NS = time.Since(mark).Nanoseconds()
	}
	if audit != nil {
		after := c.snapshot()
		res.Audit = &DriftAudit{
			LBefore:     lyapunov.Value(before),
			LAfter:      lyapunov.Value(after),
			Drift:       lyapunov.Drift(before, after),
			SquareTerms: audit.SquareTerms,
			CrossTerms:  audit.CrossTerms,
			B:           c.bConst,
		}
	}

	res.GridWh = dec4.GridTotalWh
	res.EnergyCost = dec4.EnergyCost
	res.DeficitWh = dec4.TotalDeficitWh
	res.MarginalPriceWh = dec4.MarginalPriceWh
	res.PenaltyObjective = res.EnergyCost.Value() - c.cfg.Lambda*res.AdmittedPkts
	for _, sess := range c.cfg.Traffic.Sessions {
		res.OfferedPkts += sess.MaxAdmission
	}
	res.DroppedPkts = res.OfferedPkts - res.AdmittedPkts

	// --- End-of-slot aggregates -------------------------------------------
	for s := 0; s < S; s++ {
		for i := range net.Nodes {
			b := c.q[s][i].Backlog()
			if net.IsBS(i) {
				res.DataBacklogBS += b
			} else {
				res.DataBacklogUsers += b
			}
		}
	}
	for i := range net.Nodes {
		lvl := c.batteries[i].Level()
		if net.IsBS(i) {
			res.BatteryWhBS += lvl
		} else {
			res.BatteryWhUsers += lvl
		}
		res.ShiftedEnergyAbsZ += units.Wh(math.Abs(c.ShiftedLevel(i).Wh()))
	}
	for l := range net.Links {
		res.VirtualBacklogH += c.h[l].Backlog()
	}
	if st != nil {
		st.TotalNS = time.Since(t0).Nanoseconds()
	}
	if chk != nil {
		chk.BatteryAfterWh = make([]units.Energy, net.NumNodes())
		for i := range net.Nodes {
			chk.BatteryAfterWh[i] = c.batteries[i].Level()
		}
		if err := c.cfg.Check(chk); err != nil {
			return nil, fmt.Errorf("slot %d: %w", c.slot, err)
		}
	}

	c.slot++
	return res, nil
}
