package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"greencell/internal/core"
	"greencell/internal/faultinject"
	"greencell/internal/sched"
)

// ScenarioSpec is the serializable wire form of a Scenario: a preset name
// plus named overrides, all plain JSON values. Scenario itself holds
// interfaces and closures (cost functions, schedulers, hooks) that cannot
// round-trip through JSON, so everything that crosses a process boundary —
// greencelld job submissions, journals, sweep configs — travels as a spec
// and is materialized with Scenario().
//
// Zero-valued fields keep the preset's defaults, so the JSON encoding of a
// spec contains exactly the knobs the caller set (omitempty throughout).
// Two fields whose zero value is meaningful use pointers: Neighbors
// (0 = unlimited candidate links) and EnergyGate (false = gate off).
type ScenarioSpec struct {
	// Preset seeds every default: "paper" (the default), "urban", "rural".
	Preset string `json:"preset,omitempty"`
	// Architecture is the Fig. 2(f) variant:
	// proposed | multihop-nr | onehop-r | onehop-nr.
	Architecture string `json:"architecture,omitempty"`
	// Scheduler is the S1 solver: sf | greedy | exact | relaxed.
	Scheduler string `json:"scheduler,omitempty"`

	V           float64 `json:"v,omitempty"`
	Lambda      float64 `json:"lambda,omitempty"`
	SlotSeconds float64 `json:"slot_seconds,omitempty"`
	Slots       int     `json:"slots,omitempty"`
	Seed        int64   `json:"seed,omitempty"`

	Users          int   `json:"users,omitempty"`
	Sessions       int   `json:"sessions,omitempty"`
	UplinkSessions int   `json:"uplink_sessions,omitempty"`
	Neighbors      *int  `json:"neighbors,omitempty"`
	EnergyGate     *bool `json:"energy_gate,omitempty"`

	TrackDelay      bool `json:"track_delay,omitempty"`
	CheckInvariants bool `json:"check_invariants,omitempty"`

	// FaultProb fires every injection site uniformly at this probability;
	// Faults sets per-site probabilities (overriding FaultProb site-wise).
	FaultProb float64            `json:"fault_prob,omitempty"`
	Faults    map[string]float64 `json:"faults,omitempty"`

	// BudgetIters caps simplex iterations per S1 LP solve
	// (core.SolveBudget; S4 solves no LP); SlotDeadlineMS is the per-slot
	// wall-clock solve deadline.
	BudgetIters    int   `json:"budget_iters,omitempty"`
	SlotDeadlineMS int64 `json:"slot_deadline_ms,omitempty"`

	// Dist switches to the distributed message-passing controller
	// (docs/DISTRIBUTED.md); the Net* knobs parameterize its simulated
	// control-plane delivery model and are meaningful only with Dist set.
	Dist bool `json:"dist,omitempty"`
	// NetLoss/NetLatency/NetDup are per-message perturbation
	// probabilities in [0,1]; NetLatencyMax bounds the extra delay ticks
	// of a delayed message; NetReorder jitters within-tick delivery
	// order; NetPartition lists node IDs taken offline for the whole run.
	NetLoss       float64 `json:"net_loss,omitempty"`
	NetLatency    float64 `json:"net_latency,omitempty"`
	NetLatencyMax int     `json:"net_latency_max,omitempty"`
	NetDup        float64 `json:"net_dup,omitempty"`
	NetReorder    int     `json:"net_reorder,omitempty"`
	NetPartition  []int   `json:"net_partition,omitempty"`
}

// ErrSpec reports an invalid ScenarioSpec; the wrapped message names the
// offending field.
var ErrSpec = errors.New("sim: invalid scenario spec")

func specErr(field, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrSpec, field, fmt.Sprintf(format, args...))
}

// presets maps a preset name to its scenario constructor.
var presets = map[string]func() Scenario{
	"paper": Paper,
	"urban": Urban,
	"rural": Rural,
}

// architectures maps the wire names to the Fig. 2(f) variants. The names
// match cmd/greencellsim's -arch values.
var architectures = map[string]Architecture{
	"proposed":    Proposed,
	"multihop-nr": MultiHopNoRenewable,
	"onehop-r":    OneHopRenewable,
	"onehop-nr":   OneHopNoRenewable,
}

// schedulers maps the wire names (sched.StrategyName values) to S1 solver
// constructors.
var schedulers = map[string]func() sched.Scheduler{
	"sf":      func() sched.Scheduler { return sched.SequentialFix{} },
	"greedy":  func() sched.Scheduler { return sched.Greedy{} },
	"exact":   func() sched.Scheduler { return sched.Exact{} },
	"relaxed": func() sched.Scheduler { return sched.Relaxed{} },
}

// sortedKeys renders a name set for error messages deterministically.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Validate checks every field and returns an error wrapping ErrSpec that
// names the first offending field.
func (s ScenarioSpec) Validate() error {
	if s.Preset != "" {
		if _, ok := presets[s.Preset]; !ok {
			return specErr("preset", "unknown preset %q (want one of %v)", s.Preset, sortedKeys(presets))
		}
	}
	if s.Architecture != "" {
		if _, ok := architectures[s.Architecture]; !ok {
			return specErr("architecture", "unknown architecture %q (want one of %v)", s.Architecture, sortedKeys(architectures))
		}
	}
	if s.Scheduler != "" {
		if _, ok := schedulers[s.Scheduler]; !ok {
			return specErr("scheduler", "unknown scheduler %q (want one of %v)", s.Scheduler, sortedKeys(schedulers))
		}
	}
	if s.V < 0 {
		return specErr("v", "must be non-negative, got %g", s.V)
	}
	if s.Lambda < 0 {
		return specErr("lambda", "must be non-negative, got %g", s.Lambda)
	}
	if s.SlotSeconds < 0 {
		return specErr("slot_seconds", "must be non-negative, got %g", s.SlotSeconds)
	}
	if s.Slots < 0 {
		return specErr("slots", "must be non-negative, got %d", s.Slots)
	}
	if s.Users < 0 {
		return specErr("users", "must be non-negative, got %d", s.Users)
	}
	if s.Sessions < 0 {
		return specErr("sessions", "must be non-negative, got %d", s.Sessions)
	}
	if s.UplinkSessions < 0 {
		return specErr("uplink_sessions", "must be non-negative, got %d", s.UplinkSessions)
	}
	if s.Neighbors != nil && *s.Neighbors < 0 {
		return specErr("neighbors", "must be non-negative, got %d", *s.Neighbors)
	}
	if s.FaultProb < 0 || s.FaultProb > 1 {
		return specErr("fault_prob", "must be in [0,1], got %g", s.FaultProb)
	}
	known := make(map[string]bool, len(faultinject.Sites()))
	for _, site := range faultinject.Sites() {
		known[string(site)] = true
	}
	for _, site := range sortedKeys(s.Faults) {
		if !known[site] {
			return specErr("faults", "unknown injection site %q", site)
		}
		if p := s.Faults[site]; p < 0 || p > 1 {
			return specErr("faults", "site %q probability must be in [0,1], got %g", site, p)
		}
	}
	if s.BudgetIters < 0 {
		return specErr("budget_iters", "must be non-negative, got %d", s.BudgetIters)
	}
	if s.SlotDeadlineMS < 0 {
		return specErr("slot_deadline_ms", "must be non-negative, got %d", s.SlotDeadlineMS)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"net_loss", s.NetLoss}, {"net_latency", s.NetLatency}, {"net_dup", s.NetDup}} {
		if p.v < 0 || p.v > 1 {
			return specErr(p.name, "must be in [0,1], got %g", p.v)
		}
	}
	if s.NetLatencyMax < 0 {
		return specErr("net_latency_max", "must be non-negative, got %d", s.NetLatencyMax)
	}
	if s.NetReorder < 0 {
		return specErr("net_reorder", "must be non-negative, got %d", s.NetReorder)
	}
	for _, id := range s.NetPartition {
		if id < 0 {
			return specErr("net_partition", "node IDs must be non-negative, got %d", id)
		}
	}
	if !s.Dist && (s.NetLoss != 0 || s.NetLatency != 0 || s.NetLatencyMax != 0 ||
		s.NetDup != 0 || s.NetReorder != 0 || len(s.NetPartition) != 0) {
		return specErr("dist", "net_* knobs require dist: true")
	}
	if s.Dist && s.TrackDelay {
		return specErr("dist", "track_delay is unsupported with the distributed runner")
	}
	return nil
}

// Label returns the header label of the spec's scenario (its preset name).
func (s ScenarioSpec) Label() string {
	if s.Preset == "" {
		return "paper"
	}
	return s.Preset
}

// Scenario materializes the spec: the preset's scenario with every set
// field overlaid. The result keeps no per-slot traces (callers wanting
// traces flip KeepTraces themselves). The spec is validated first.
func (s ScenarioSpec) Scenario() (Scenario, error) {
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	sc := presets[s.Label()]()
	if s.Architecture != "" {
		sc.Architecture = architectures[s.Architecture]
	}
	if s.Scheduler != "" {
		sc.Scheduler = schedulers[s.Scheduler]()
	}
	if s.V != 0 {
		sc.V = s.V
	}
	if s.Lambda != 0 {
		sc.Lambda = s.Lambda
	}
	if s.SlotSeconds != 0 {
		sc.SlotSeconds = s.SlotSeconds
	}
	if s.Slots != 0 {
		sc.Slots = s.Slots
	}
	if s.Seed != 0 {
		sc.Seed = s.Seed
	}
	if s.Users != 0 {
		sc.Topology.NumUsers = s.Users
	}
	if s.Sessions != 0 {
		sc.NumSessions = s.Sessions
	}
	if s.UplinkSessions != 0 {
		sc.UplinkSessions = s.UplinkSessions
	}
	if s.Neighbors != nil {
		sc.Topology.MaxNeighbors = *s.Neighbors
	}
	if s.EnergyGate != nil {
		sc.EnergyGate = *s.EnergyGate
	}
	sc.TrackDelay = sc.TrackDelay || s.TrackDelay
	sc.CheckInvariants = sc.CheckInvariants || s.CheckInvariants
	if s.FaultProb > 0 || len(s.Faults) > 0 {
		cfg := faultinject.Uniform(s.FaultProb)
		for _, site := range sortedKeys(s.Faults) {
			cfg.Probability[faultinject.Site(site)] = s.Faults[site]
		}
		sc.Faults = &cfg
	}
	sc.Budget = core.SolveBudget{
		MaxLPIterations: s.BudgetIters,
		SlotDeadline:    time.Duration(s.SlotDeadlineMS) * time.Millisecond,
	}
	sc.Dist = sc.Dist || s.Dist
	sc.NetLoss = s.NetLoss
	sc.NetLatency = s.NetLatency
	sc.NetLatencyMax = s.NetLatencyMax
	sc.NetDup = s.NetDup
	sc.NetReorder = s.NetReorder
	if len(s.NetPartition) != 0 {
		sc.NetPartition = append([]int(nil), s.NetPartition...)
	}
	sc.KeepTraces = false
	return sc, nil
}

// EncodeSpec serializes a spec as compact JSON (set fields only).
func EncodeSpec(s ScenarioSpec) ([]byte, error) {
	return json.Marshal(s)
}

// DecodeSpec parses and validates a spec. Unknown fields are rejected by
// name, so a typoed knob fails loudly instead of silently keeping its
// preset default.
func DecodeSpec(data []byte) (ScenarioSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s ScenarioSpec
	if err := dec.Decode(&s); err != nil {
		return ScenarioSpec{}, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	if err := s.Validate(); err != nil {
		return ScenarioSpec{}, err
	}
	return s, nil
}
