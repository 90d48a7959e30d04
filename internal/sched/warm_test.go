package sched

import (
	"math"
	"testing"

	"greencell/internal/rng"
)

// slotWeights draws a fresh weight vector, zeroing a few links so the
// candidate-pair structure genuinely changes between slots.
func slotWeights(src *rng.Source, n int) []float64 {
	w := make([]float64, n)
	for l := range w {
		if src.Bernoulli(0.2) {
			continue
		}
		w[l] = src.Uniform(0, 5e5)
	}
	return w
}

// TestRelaxedWarmMatchesCold runs the relaxed (pure-LP) scheduler across a
// sequence of slots with a WarmState carried across them and with a fresh
// state per call. The relaxed objective is a unique LP optimum up to
// degeneracy, so the two trajectories must match it slot for slot.
func TestRelaxedWarmMatchesCold(t *testing.T) {
	src := rng.New(61)
	net := testNet(t, src, 6)
	widths := fixedWidths(net)
	warm := &WarmState{}
	warmed := 0
	for slot := 0; slot < 20; slot++ {
		// All-positive weights: the candidate-pair structure is identical
		// every slot, so the cross-call basis import can actually fire.
		weights := make([]float64, len(net.Links))
		for l := range weights {
			weights[l] = src.Uniform(1e3, 5e5)
		}
		fresh, err := (Relaxed{}).Schedule(&Request{Net: net, Widths: widths, Weights: weights})
		if err != nil {
			t.Fatal(err)
		}
		hot, err := (Relaxed{}).Schedule(&Request{Net: net, Widths: widths, Weights: weights, Warm: warm})
		if err != nil {
			t.Fatal(err)
		}
		fo, ho := fresh.Objective(weights), hot.Objective(weights)
		if tol := 1e-6 * (1 + math.Abs(fo)); math.Abs(fo-ho) > tol {
			t.Fatalf("slot %d: relaxed objective fresh=%v carried=%v", slot, fo, ho)
		}
		if fresh.Stats.WarmStarts != 0 || fresh.Stats.BasisInvalidations != 0 {
			t.Fatalf("slot %d: a fresh state reused a basis: %+v", slot, fresh.Stats)
		}
		warmed += hot.Stats.WarmStarts
	}
	if warmed == 0 {
		t.Fatal("no warm starts across 20 relaxed slots")
	}
}

// TestSequentialFixWarmFeasibleAndCounted drives the SF heuristic through
// slots with a WarmState carried across them: every assignment must stay feasible
// under the full checker, and the fixing rounds after the first must
// warm-start (they are bound-only edits on one live engine).
func TestSequentialFixWarmFeasibleAndCounted(t *testing.T) {
	src := rng.New(62)
	net := testNet(t, src, 6)
	widths := fixedWidths(net)
	warm := &WarmState{}
	warmed := 0
	for slot := 0; slot < 10; slot++ {
		req := &Request{Net: net, Widths: widths, Weights: slotWeights(src, len(net.Links)), Warm: warm}
		asg, err := (SequentialFix{}).Schedule(req)
		if err != nil {
			t.Fatal(err)
		}
		checkAssignmentFeasible(t, req, asg)
		if asg.Stats.LPSolves > 1 && asg.Stats.WarmStarts == 0 {
			t.Fatalf("slot %d: %d fixing rounds but zero warm starts", slot, asg.Stats.LPSolves)
		}
		warmed += asg.Stats.WarmStarts
	}
	if warmed == 0 {
		t.Fatal("no warm starts across 10 SF slots")
	}
}

// TestSequentialFixWarmObjectiveClose compares SF with a carried state
// against SF with a fresh state per call, end to end. SF is a rounding
// heuristic on top of the LP, so exact equality is not guaranteed when an
// imported basis leads the engine to a different degenerate vertex — but
// on a fixed seed the schedules' objectives must stay within a few
// percent, and this pin catches any gross divergence.
func TestSequentialFixWarmObjectiveClose(t *testing.T) {
	src := rng.New(63)
	net := testNet(t, src, 5)
	widths := fixedWidths(net)
	warm := &WarmState{}
	for slot := 0; slot < 10; slot++ {
		weights := slotWeights(src, len(net.Links))
		fresh, err := (SequentialFix{}).Schedule(&Request{Net: net, Widths: widths, Weights: weights})
		if err != nil {
			t.Fatal(err)
		}
		hot, err := (SequentialFix{}).Schedule(&Request{Net: net, Widths: widths, Weights: weights, Warm: warm})
		if err != nil {
			t.Fatal(err)
		}
		fo, ho := fresh.Objective(weights), hot.Objective(weights)
		if tol := 0.05 * (1 + math.Abs(fo)); math.Abs(fo-ho) > tol {
			t.Fatalf("slot %d: SF objective fresh=%v carried=%v", slot, fo, ho)
		}
	}
}
