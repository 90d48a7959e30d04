package sched

import (
	"testing"

	"greencell/internal/rng"
	"greencell/internal/topology"
	"greencell/internal/units"
)

// paperRequest builds a paper-scale scheduling instance with random
// positive weights on a third of the links (typical steady-state density).
func paperRequest(tb testing.TB) *Request {
	tb.Helper()
	src := rng.New(42)
	net, err := topology.Build(topology.Paper(), src.Split("topology"))
	if err != nil {
		tb.Fatal(err)
	}
	weights := make([]float64, len(net.Links))
	for l := range weights {
		if src.Bernoulli(0.35) {
			weights[l] = src.Uniform(1, 500)
		}
	}
	widths := units.HzSlice(net.Spectrum.SampleWidths(src.Split("widths")))
	return &Request{Net: net, Widths: widths, Weights: weights}
}

func benchScheduler(b *testing.B, s Scheduler) {
	b.Helper()
	req := paperRequest(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(req); err != nil {
			b.Fatal(err)
		}
	}
}

// The S1 ablation: the paper's sequential-fix against the greedy heuristic
// and the fractional relaxation, at paper scale (22 nodes, 5 bands).
func BenchmarkScheduleSequentialFix(b *testing.B) { benchScheduler(b, SequentialFix{}) }
func BenchmarkScheduleGreedy(b *testing.B)        { benchScheduler(b, Greedy{}) }
func BenchmarkScheduleRelaxed(b *testing.B)       { benchScheduler(b, Relaxed{}) }

// BenchmarkScheduleExact runs branch and bound on a reduced instance (the
// full paper scale is out of reach for exact search in a benchmark loop).
func BenchmarkScheduleExact(b *testing.B) {
	src := rng.New(43)
	cfg := topology.Paper()
	cfg.NumUsers = 6
	cfg.MaxNeighbors = 3
	net, err := topology.Build(cfg, src.Split("topology"))
	if err != nil {
		b.Fatal(err)
	}
	weights := make([]float64, len(net.Links))
	for l := range weights {
		weights[l] = src.Uniform(1, 500)
	}
	req := &Request{Net: net, Widths: units.HzSlice(net.Spectrum.SampleWidths(src.Split("w"))), Weights: weights}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Exact{}).Schedule(req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSequentialFixAllocs gates the allocations of one SequentialFix
// schedule of the paper-scale request. The LP is built into exact-size
// slabs with unnamed variables and rows, and the compatibility check
// reuses one transmission buffer. Naming the LP's variables and rows
// would add hundreds of allocations; a buffer per check adds nine.
func TestSequentialFixAllocs(t *testing.T) {
	req := paperRequest(t)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := (SequentialFix{}).Schedule(req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per schedule", allocs)
	if allocs > maxSFAllocs {
		t.Fatalf("SequentialFix.Schedule made %.0f allocations, want at most %d", allocs, maxSFAllocs)
	}
}

// maxSFAllocs is TestSequentialFixAllocs' bound: the 120 allocations
// measured with Go 1.24 on linux/amd64 plus a margin smaller than the nine
// that a fresh buffer per compatibility check adds on this request.
const maxSFAllocs = 125
