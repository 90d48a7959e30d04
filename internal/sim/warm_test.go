package sim

import (
	"math"
	"testing"

	"greencell/internal/core"
	"greencell/internal/sched"
)

// relDiff is the relative difference |x−y| / (1+|x|).
func relDiff(x, y float64) float64 {
	return math.Abs(x-y) / (1 + math.Abs(x))
}

// freshS1 schedules every slot against a fresh sched.WarmState, so no S1
// basis crosses a slot boundary (fixing rounds within a slot still share
// one engine).
type freshS1 struct{ sched.Scheduler }

func (f freshS1) Schedule(req *sched.Request) (*sched.Assignment, error) {
	r := *req
	r.Warm = nil
	return f.Scheduler.Schedule(&r)
}

// TestWarmStartLPRun runs the fast paper scenario with the invariant
// checker on twice: once with the controller's S1 LP state carried across
// slots, once with S1 solving against a fresh state every slot (S4 solves
// no LP and carries no state). Both runs must stay feasible slot by
// slot, the carried run must actually warm-start, and the headline
// aggregates must stay close. Exact equality
// is not required — an imported basis can lead the engine to a different
// vertex of a degenerate LP optimum, and the SF rounding can amplify that
// into slightly different schedules — but the control loop is
// self-stabilizing, so the time averages have to agree to a few percent.
func TestWarmStartLPRun(t *testing.T) {
	freshSc := fastScenario()
	freshSc.CheckInvariants = true
	freshSc.Scheduler = freshS1{sched.SequentialFix{}}
	fresh, err := Run(freshSc)
	if err != nil {
		t.Fatal(err)
	}

	warmSc := fastScenario()
	warmSc.CheckInvariants = true
	warmSc.Instrument = true
	warmStarts, invalidations := 0, 0
	warmSc.SlotHook = func(sr *core.SlotResult) {
		if sr.Stages != nil {
			warmStarts += sr.Stages.LPWarmStarts
			invalidations += sr.Stages.LPBasisInvalidations
		}
	}
	warm, err := Run(warmSc)
	if err != nil {
		t.Fatal(err)
	}

	if warmStarts == 0 {
		t.Fatal("carried-state run recorded zero warm starts")
	}
	t.Logf("warm starts %d, invalidations %d", warmStarts, invalidations)
	if warm.DeficitWh > 1e-6 {
		t.Errorf("carried-state run has energy deficit %v", warm.DeficitWh)
	}
	if d := relDiff(fresh.AvgEnergyCost.Value(), warm.AvgEnergyCost.Value()); d > 0.05 {
		t.Errorf("avg energy cost diverged: fresh %v carried %v (rel %v)",
			fresh.AvgEnergyCost, warm.AvgEnergyCost, d)
	}
	if d := relDiff(fresh.DeliveredPkts, warm.DeliveredPkts); d > 0.05 {
		t.Errorf("delivered diverged: fresh %v carried %v (rel %v)",
			fresh.DeliveredPkts, warm.DeliveredPkts, d)
	}
	if d := relDiff(fresh.AdmittedPkts, warm.AdmittedPkts); d > 0.05 {
		t.Errorf("admitted diverged: fresh %v carried %v (rel %v)",
			fresh.AdmittedPkts, warm.AdmittedPkts, d)
	}
}

// TestWarmStartLPDeterministic pins that carrying LP state across slots is
// itself deterministic: two runs of the same scenario must agree exactly.
func TestWarmStartLPDeterministic(t *testing.T) {
	sc := fastScenario()
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgEnergyCost != b.AvgEnergyCost || a.DeliveredPkts != b.DeliveredPkts ||
		a.AvgGridWh != b.AvgGridWh {
		t.Error("same scenario, different results")
	}
}

// TestRuralSeedNoPricingStall pins a rural scenario whose slot-8 S1
// relaxation (41 rows, 26 columns, costs around 1e10) once stalled the
// engine until its safety cap: float noise on a non-binding row's slack
// passed the pricing test, and the slot degraded with s1_iterlimit. With
// pricing scaled to the objective no slot degrades.
func TestRuralSeedNoPricingStall(t *testing.T) {
	sc, err := ScenarioSpec{Preset: "rural", Scheduler: "sf", Slots: 10, Seed: 1000379}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedSlots != 0 {
		t.Fatalf("%d degraded slots: %v", res.DegradedSlots, res.DegradedByCause)
	}
}
