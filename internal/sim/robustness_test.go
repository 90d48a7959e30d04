package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"greencell/internal/core"
	"greencell/internal/faultinject"
	"greencell/internal/machine"
)

// faultScenario is the base configuration of the robustness tests: the
// paper scenario shrunk to a fast horizon, with the per-slot paper
// invariant checker always on so degraded slots are proven feasible.
func faultScenario(slots int) Scenario {
	sc := Paper()
	sc.Slots = slots
	sc.Seed = 7
	sc.KeepTraces = false
	sc.CheckInvariants = true
	return sc
}

// TestFaultEverySite drives each injection site at probability 1 and
// checks the degradation contract stage by stage: every slot completes,
// is marked degraded with exactly the expected cause label, and still
// satisfies the paper's per-slot constraints (the invariant checker runs
// inside Run and would fail the run otherwise). The net_* sites only
// exist on the distributed runner's fabric (docs/DISTRIBUTED.md); their
// cases run with Dist set, and net_dup is the deliberate odd one out —
// duplicate delivery must never degrade anything.
func TestFaultEverySite(t *testing.T) {
	cases := []struct {
		site  faultinject.Site
		cause string
		// needDeadline: the latency site only bites when the slot has a
		// wall-clock budget to consume.
		needDeadline bool
		// dist: the site lives in the distributed fabric, not the monolith.
		dist bool
		// noDegrade: the site must leave every slot healthy.
		noDegrade bool
	}{
		{site: faultinject.S1Infeasible, cause: core.CauseS1Infeasible},
		{site: faultinject.S1IterLimit, cause: core.CauseS1IterLimit},
		{site: faultinject.S2Fail, cause: core.CauseS2Fault},
		{site: faultinject.S3Fail, cause: core.CauseS3Fault},
		{site: faultinject.S4Infeasible, cause: core.CauseS4Infeasible},
		{site: faultinject.S4IterLimit, cause: core.CauseS4IterLimit},
		{site: faultinject.ObsRenewableNaN, cause: core.CauseObs},
		{site: faultinject.ObsWidthInf, cause: core.CauseObs},
		{site: faultinject.Latency, cause: core.CauseLatency, needDeadline: true},
		{site: faultinject.NetDrop, cause: machine.CauseNetStale, dist: true},
		{site: faultinject.NetDelay, cause: machine.CauseNetStale, dist: true},
		{site: faultinject.NetDup, dist: true, noDegrade: true},
	}
	for _, tc := range cases {
		t.Run(string(tc.site), func(t *testing.T) {
			const slots = 5
			sc := faultScenario(slots)
			sc.Dist = tc.dist
			sc.Faults = &faultinject.Config{
				Probability: map[faultinject.Site]float64{tc.site: 1},
			}
			if tc.needDeadline {
				// Generous enough that the deadline never fires organically;
				// only the virtual latency spike consumes it.
				sc.Budget.SlotDeadline = time.Hour
			}
			var causes []string
			sc.SlotHook = func(sr *core.SlotResult) {
				if sr.Degraded == tc.noDegrade {
					t.Errorf("slot %d degraded = %v, want %v", sr.Slot, sr.Degraded, !tc.noDegrade)
				}
				causes = append(causes, sr.DegradedCauses...)
			}
			res, err := Run(sc)
			if err != nil {
				t.Fatalf("run with %s at p=1: %v", tc.site, err)
			}
			if tc.noDegrade {
				if res.DegradedSlots != 0 {
					t.Errorf("DegradedSlots = %d, want 0 (causes: %v)", res.DegradedSlots, causes)
				}
				if res.Net == nil || res.Net.MsgsDuped == 0 {
					t.Errorf("net_dup at p=1 duplicated nothing: %+v", res.Net)
				}
				return
			}
			if res.DegradedSlots != slots {
				t.Errorf("DegradedSlots = %d, want %d", res.DegradedSlots, slots)
			}
			if got := res.DegradedByCause[tc.cause]; got != slots {
				t.Errorf("DegradedByCause[%q] = %d, want %d (map: %v)",
					tc.cause, got, slots, res.DegradedByCause)
			}
			if res.MaxDegradedStreak != slots {
				t.Errorf("MaxDegradedStreak = %d, want %d", res.MaxDegradedStreak, slots)
			}
			for _, c := range causes {
				if c != tc.cause {
					t.Errorf("unexpected cause %q (want only %q)", c, tc.cause)
				}
			}
			if tc.dist && (res.Net == nil || res.Net.StaleSlots != slots) {
				t.Errorf("NetReport stale slots = %+v, want %d", res.Net, slots)
			}
		})
	}
}

// TestFaultSoak is the acceptance soak: a long horizon with every site
// firing at 5%, the invariant checker on, and a latency deadline armed.
// All slots must complete without error, a healthy majority and a degraded
// minority must both occur, and two identically-seeded runs must agree
// bit-for-bit — fault injection may not leak nondeterminism.
func TestFaultSoak(t *testing.T) {
	slots := 2000
	if testing.Short() {
		slots = 200
	}
	sc := faultScenario(slots)
	sc.KeepTraces = true
	cfg := faultinject.Uniform(0.05)
	sc.Faults = &cfg
	sc.Budget.SlotDeadline = time.Hour

	a, err := Run(sc)
	if err != nil {
		t.Fatalf("soak run: %v", err)
	}
	if a.DegradedSlots == 0 {
		t.Fatal("soak with 5% faults at every site degraded no slots")
	}
	if a.DegradedSlots == slots {
		t.Fatalf("all %d slots degraded; expected a healthy majority", slots)
	}
	// At 5% per site, every cause label should occur over a long horizon.
	for _, want := range []string{
		core.CauseObs, core.CauseLatency,
		core.CauseS1Infeasible, core.CauseS1IterLimit,
		core.CauseS2Fault, core.CauseS3Fault,
		core.CauseS4Infeasible, core.CauseS4IterLimit,
	} {
		if a.DegradedByCause[want] == 0 && !testing.Short() {
			t.Errorf("cause %q never occurred in %d slots: %v", want, slots, a.DegradedByCause)
		}
	}
	t.Logf("degraded %d/%d (max streak %d): %v",
		a.DegradedSlots, slots, a.MaxDegradedStreak, a.DegradedByCause)

	b, err := Run(sc)
	if err != nil {
		t.Fatalf("soak rerun: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two same-seed fault-injected runs differ; injection leaked nondeterminism")
	}
}

// TestFaultDeterminismAcrossSites checks decision independence: adding a
// second site must not shift the first site's firing pattern, because
// each (site, slot) decision draws from its own named sub-stream.
func TestFaultDeterminismAcrossSites(t *testing.T) {
	base := faultScenario(100)
	base.Faults = &faultinject.Config{
		Probability: map[faultinject.Site]float64{faultinject.S2Fail: 0.1},
	}
	solo, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	both := faultScenario(100)
	both.Faults = &faultinject.Config{
		Probability: map[faultinject.Site]float64{
			faultinject.S2Fail: 0.1,
			faultinject.S3Fail: 0.1,
		},
	}
	duo, err := Run(both)
	if err != nil {
		t.Fatal(err)
	}
	if solo.DegradedByCause[core.CauseS2Fault] != duo.DegradedByCause[core.CauseS2Fault] {
		t.Errorf("S2 firing pattern shifted when S3 was enabled: solo %d, duo %d",
			solo.DegradedByCause[core.CauseS2Fault], duo.DegradedByCause[core.CauseS2Fault])
	}
}

// TestIterationBudgetDegrades arms a tiny LP iteration budget with no
// injection at all: organic IterationLimit outcomes must degrade slots
// (with the S1 iterlimit cause label), not abort the run. The budget caps
// S1 only: S4 is an LP-free dispatch, so s4_iterlimit comes only from
// injection.
func TestIterationBudgetDegrades(t *testing.T) {
	sc := faultScenario(20)
	sc.Budget.MaxLPIterations = 1
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("budgeted run: %v", err)
	}
	if res.DegradedSlots == 0 {
		t.Fatal("1-iteration LP budget degraded no slots")
	}
	for cause := range res.DegradedByCause {
		if cause != core.CauseS1IterLimit {
			t.Errorf("unexpected cause %q under pure iteration budget", cause)
		}
	}
}

// TestRunSeedsRecoversPanic panics inside every replication via a slot
// hook — the stand-in for a buggy solver — and checks the worker pool
// converts each panic into that seed's error instead of crashing the
// batch.
func TestRunSeedsRecoversPanic(t *testing.T) {
	sc := faultScenario(5)
	sc.SlotHook = func(sr *core.SlotResult) {
		panic("solver bug")
	}
	outs := RunSeeds(context.Background(), sc, []int64{1, 2, 3})
	if len(outs) != 3 {
		t.Fatalf("got %d outcomes, want 3", len(outs))
	}
	for _, o := range outs {
		if o.Err == nil || o.Result != nil {
			t.Fatalf("seed %d: panic not converted to error: %+v", o.Seed, o)
		}
		if !strings.Contains(o.Err.Error(), "panic") {
			t.Errorf("seed %d error does not mention the panic: %v", o.Seed, o.Err)
		}
	}
}

// TestRunReplicatedAllSeedsFail drives the aggregation path when every
// replication dies: RunReplicatedCtx must return a non-nil result listing
// every seed in FailedSeeds (in seed order) plus a joined error naming
// each, instead of panicking or returning nil.
func TestRunReplicatedAllSeedsFail(t *testing.T) {
	sc := faultScenario(5)
	sc.SlotHook = func(sr *core.SlotResult) {
		panic("solver bug")
	}
	seeds := []int64{3, 1, 2}
	rr, err := RunReplicatedCtx(context.Background(), sc, seeds)
	if err == nil {
		t.Fatal("all-failed batch returned nil error")
	}
	if rr == nil {
		t.Fatal("all-failed batch returned nil result")
	}
	if len(rr.FailedSeeds) != len(seeds) {
		t.Fatalf("FailedSeeds = %v, want all of %v", rr.FailedSeeds, seeds)
	}
	for i, s := range seeds {
		if rr.FailedSeeds[i] != s {
			t.Fatalf("FailedSeeds = %v, want seed order %v", rr.FailedSeeds, seeds)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("seed %d", s)) {
			t.Errorf("joined error does not name seed %d: %v", s, err)
		}
	}
	if rr.AvgEnergyCost.N != 0 {
		t.Errorf("summary over %d seeds, want 0 (none succeeded)", rr.AvgEnergyCost.N)
	}
}

// TestRunReplicatedCtxCancelPrompt cancels a long batch mid-flight and
// checks RunReplicatedCtx returns promptly with the unfinished seeds
// failed on context.Canceled.
func TestRunReplicatedCtxCancelPrompt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	type reply struct {
		rr  *ReplicatedResult
		err error
	}
	replies := make(chan reply, 1)
	go func() {
		long := faultScenario(200000) // long enough that cancel lands mid-run
		long.CheckInvariants = false
		rr, err := RunReplicatedCtx(ctx, long, []int64{1, 2})
		replies <- reply{rr, err}
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	var rr *ReplicatedResult
	var err error
	select {
	case r := <-replies:
		rr, err = r.rr, r.err
	case <-time.After(30 * time.Second):
		t.Fatal("RunReplicatedCtx did not return promptly after cancel")
	}
	if err == nil {
		t.Fatal("cancelled batch returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("joined error does not carry context.Canceled: %v", err)
	}
	if len(rr.FailedSeeds) == 0 {
		t.Fatal("cancelled batch lists no failed seeds")
	}
}

// TestSeedMetricsRoundTrip checks the checkpoint unit: folding MetricsOf
// records reproduces the summaries RunReplicated computes from the same
// runs, which is what makes cmd/sweep's -resume sound.
func TestSeedMetricsRoundTrip(t *testing.T) {
	sc := faultScenario(10)
	seeds := []int64{1, 2, 3}
	rr, err := RunReplicatedCtx(context.Background(), sc, seeds)
	if err != nil {
		t.Fatal(err)
	}
	var ms []SeedMetrics
	for _, o := range RunSeeds(context.Background(), sc, seeds) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		ms = append(ms, MetricsOf(o.Seed, o.Result))
	}
	folded := SummarizeSeedMetrics(ms)
	if folded.AvgEnergyCost != rr.AvgEnergyCost {
		t.Errorf("AvgEnergyCost summaries differ: %+v vs %+v",
			folded.AvgEnergyCost, rr.AvgEnergyCost)
	}
	if folded.DegradedSlots != rr.DegradedSlots {
		t.Errorf("DegradedSlots summaries differ: %+v vs %+v",
			folded.DegradedSlots, rr.DegradedSlots)
	}
}

// TestNearSingularPivotDoesNotStall replays the scenario seed whose slot
// 13 S1 LP once pivoted on an entry below the rounding noise of its
// column (1.6e-9 against 2.3e8): the basis went singular, every later
// refactorization failed, and the solve cycled to the engine's safety cap
// (119,400 iterations, 16 s) and degraded the slot. The primal ratio test
// now rejects such pivots and the slot solves in a few dozen iterations.
// The iteration budget only keeps a regression fast to detect: it turns
// the stall into an s1_iterlimit degradation after 4000 iterations.
func TestNearSingularPivotDoesNotStall(t *testing.T) {
	sc, err := ScenarioSpec{Preset: "paper", Scheduler: "sf", Slots: 25, Seed: 11000349}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	sc.KeepTraces = false
	sc.Budget.MaxLPIterations = 4000
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedSlots != 0 {
		t.Fatalf("DegradedSlots = %d, want 0 (causes: %v)", res.DegradedSlots, res.DegradedByCause)
	}
}
