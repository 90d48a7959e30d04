// Benchmarks that regenerate each panel of the paper's Figure 2. Every
// benchmark runs the corresponding experiment end to end (at a reduced
// horizon so iterations stay in the seconds range; cmd/figures regenerates
// the full paper-scale series) and reports the panel's headline quantity as
// a custom metric, so `go test -bench=. -benchmem` doubles as a compact
// reproduction report:
//
//	Fig2a: bound-gap-ratio-V1e5 / -V1e6  (gap shrinks as V grows)
//	Fig2bcde: final data backlogs, bounded (strong stability), and
//	          final energy buffers, growing but capped — one run
//	Fig2f: cost ratios of the three baselines over the proposed system
package greencell_test

import (
	"testing"

	"greencell"
	"greencell/internal/core"
	"greencell/internal/machine"
	"greencell/internal/sim"
)

// benchScenario is the paper scenario at a horizon that keeps a single
// benchmark iteration in the tens-of-milliseconds range.
func benchScenario() greencell.Scenario {
	sc := greencell.PaperScenario()
	sc.Slots = 40
	sc.KeepTraces = true
	return sc
}

// BenchmarkFig2aBounds reproduces Fig. 2(a): the Theorem 4/5 upper/lower
// bounds on the optimal energy cost, and their tightening in V.
func BenchmarkFig2aBounds(b *testing.B) {
	sc := benchScenario()
	var gapSmall, gapLarge float64
	for i := 0; i < b.N; i++ {
		lo, err := greencell.BoundsAt(sc, 1e5)
		if err != nil {
			b.Fatal(err)
		}
		hi, err := greencell.BoundsAt(sc, 1e6)
		if err != nil {
			b.Fatal(err)
		}
		gapSmall = lo.Upper - lo.Lower
		gapLarge = hi.Upper - hi.Lower
	}
	b.ReportMetric(gapSmall, "gap-V1e5")
	b.ReportMetric(gapLarge, "gap-V1e6")
	b.ReportMetric(gapLarge/gapSmall, "gap-shrink-ratio")
}

// BenchmarkFig2bcde reproduces Fig. 2(b)–(e) from one run of the
// proposed algorithm: the total base-station (b) and mobile-user (c) data
// queue backlogs, and the total base-station (d) and mobile-user (e)
// energy buffer levels, each reported at the end of the horizon.
func BenchmarkFig2bcde(b *testing.B) {
	sc := benchScenario()
	var res *greencell.Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = greencell.Run(sc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.FinalDataBacklogBS, "bs-backlog-pkts")
	b.ReportMetric(res.FinalDataBacklogUsers, "user-backlog-pkts")
	b.ReportMetric(res.FinalBatteryWhBS.Wh(), "bs-buffer-Wh")
	b.ReportMetric(res.FinalBatteryWhUsers.Wh(), "user-buffer-Wh")
}

// BenchmarkWarmStartSlots drives the paper scenario's slot sequence
// (SequentialFix + S4) and reports, besides ns/op, the LP work per slot —
// solves and simplex iterations, in total and split into S1 and S4, warm
// starts, and basis invalidations — which is what BENCH_*.json tracks
// across PRs (docs/PERFORMANCE.md).
func BenchmarkWarmStartSlots(b *testing.B) {
	var s1Iters, s1Solves, s4Iters, s4Solves, warmed, invalidated, slots int
	for i := 0; i < b.N; i++ {
		sc := benchScenario()
		sc.KeepTraces = false
		sc.Instrument = true
		sc.SlotHook = func(sr *core.SlotResult) {
			slots++
			if st := sr.Stages; st != nil {
				s1Solves += st.SchedLPSolves
				s1Iters += st.SchedLPIterations
				s4Solves += st.S4LPSolves
				s4Iters += st.S4LPIterations
				warmed += st.LPWarmStarts
				invalidated += st.LPBasisInvalidations
			}
		}
		if _, err := greencell.Run(sc); err != nil {
			b.Fatal(err)
		}
	}
	if slots > 0 {
		perSlot := func(n int) float64 { return float64(n) / float64(slots) }
		b.ReportMetric(perSlot(s1Iters+s4Iters), "lp-iters/slot")
		b.ReportMetric(perSlot(s1Solves+s4Solves), "lp-solves/slot")
		b.ReportMetric(perSlot(s1Iters), "s1-lp-iters/slot")
		b.ReportMetric(perSlot(s1Solves), "s1-lp-solves/slot")
		b.ReportMetric(perSlot(s4Iters), "s4-lp-iters/slot")
		b.ReportMetric(perSlot(s4Solves), "s4-lp-solves/slot")
		b.ReportMetric(perSlot(warmed), "warm-starts/slot")
		b.ReportMetric(perSlot(invalidated), "invalidations/slot")
	}
}

// BenchmarkDistSlots drives the distributed controller (greedy S1) over a
// control plane that duplicates 2% of messages and reorders within a
// two-tick window, the shape of perfbench's dist-dup workload at a 40-slot
// horizon. Every lossy edge draws from its own per-slot random stream, so
// this is where stream set-up cost shows; msgs/slot counts control and
// data messages and is fixed by the seed.
func BenchmarkDistSlots(b *testing.B) {
	spec := sim.ScenarioSpec{
		Preset: "paper", Scheduler: "greedy", Slots: 40, Dist: true,
		NetDup: 0.02, NetReorder: 2,
	}
	var msgs, slots int
	for i := 0; i < b.N; i++ {
		sc, err := spec.Scenario()
		if err != nil {
			b.Fatal(err)
		}
		sc.NetHook = func(st machine.SlotNetStats) {
			slots++
			msgs += st.Sent + st.DataMsgs
		}
		if _, err := greencell.Run(sc); err != nil {
			b.Fatal(err)
		}
	}
	if slots > 0 {
		b.ReportMetric(float64(msgs)/float64(slots), "msgs/slot")
	}
}

// BenchmarkFig2fArchitectures reproduces Fig. 2(f): the time-averaged energy
// cost of the four architectures. The reported metrics are each baseline's
// cost relative to the proposed system (all should exceed 1).
func BenchmarkFig2fArchitectures(b *testing.B) {
	sc := benchScenario()
	sc.KeepTraces = false
	byArch := map[greencell.Architecture]float64{}
	for i := 0; i < b.N; i++ {
		costs, err := greencell.CompareArchitectures(sc, []float64{1e5})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range costs {
			byArch[c.Architecture] = c.AvgCost.Value()
		}
	}
	base := byArch[greencell.Proposed]
	if base > 0 {
		b.ReportMetric(byArch[greencell.MultiHopNoRenewable]/base, "multihop-nr-x")
		b.ReportMetric(byArch[greencell.OneHopRenewable]/base, "onehop-r-x")
		b.ReportMetric(byArch[greencell.OneHopNoRenewable]/base, "onehop-nr-x")
	}
}
