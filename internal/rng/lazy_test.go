package rng

import (
	"math"
	"math/rand"
	"testing"
)

// equivalenceSeeds covers math/rand's seed normalization edges (zero and
// multiples of 2³¹−1 map to the default seed, negatives wrap) plus 300
// seeds from a fixed stream.
func equivalenceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, defaultNormSeed, -defaultNormSeed,
		pmMod, -pmMod, 2 * pmMod, pmMod * (math.MaxInt64 / pmMod), -pmMod * (math.MaxInt64 / pmMod),
		pmMod - 1, pmMod + 1,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	r := rand.New(rand.NewSource(20260417))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// TestNewMatchesMathRand checks that rng.New(seed) draws exactly what
// rand.New(rand.NewSource(seed)) draws, through every rand.Rand method
// the package uses, whether the next draw falls inside the closed-form
// window, on its edges, or long after the full register took over.
func TestNewMatchesMathRand(t *testing.T) {
	for _, seed := range equivalenceSeeds() {
		for _, prior := range []int{0, 1, rngTap - 1, rngTap, rngTap + 1, 700, 1500} {
			got := New(seed).r
			want := rand.New(rand.NewSource(seed))
			for i := 0; i < prior; i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d: draw %d: Uint64 = %d, want %d", seed, i, g, w)
				}
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d after %d draws: Uint64 = %d, want %d", seed, prior, g, w)
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d after %d draws: Int63 = %d, want %d", seed, prior, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d after %d draws: Float64 = %v, want %v", seed, prior, g, w)
			}
			for _, n := range []int{1, 7, 1000, 1 << 40} {
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d after %d draws: Intn(%d) = %d, want %d", seed, prior, n, g, w)
				}
			}
			g, w := got.Perm(12), want.Perm(12)
			for i := range w {
				if g[i] != w[i] {
					t.Fatalf("seed %d after %d draws: Perm = %v, want %v", seed, prior, g, w)
				}
			}
			if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("seed %d after %d draws: NormFloat64 = %v, want %v", seed, prior, g, w)
			}
		}
	}
}

// TestLazySourceSeed checks that Seed restarts the stream, including after
// the full register has taken over.
func TestLazySourceSeed(t *testing.T) {
	var s lazySource
	s.Seed(3)
	for i := 0; i < 2*rngLen; i++ {
		s.Uint64()
	}
	s.Seed(-42)
	ref := rand.NewSource(-42).(rand.Source64)
	for i := 0; i < 2*rngLen; i++ {
		if g, w := s.Uint64(), ref.Uint64(); g != w {
			t.Fatalf("draw %d after Seed: %d, want %d", i, g, w)
		}
	}
}

var sinkFloat float64

// BenchmarkSplitShortStream measures the common per-edge pattern: derive a
// named sub-stream and take a few draws from it.
func BenchmarkSplitShortStream(b *testing.B) {
	b.ReportAllocs()
	parent := New(9001)
	for i := 0; i < b.N; i++ {
		s := parent.Split("e3>7#41")
		for j := 0; j < 8; j++ {
			sinkFloat += s.Float64()
		}
	}
}
