// Package rng provides deterministic, splittable random number generation
// for the simulator.
//
// Every stochastic process in the system (band widths, renewable outputs,
// grid connectivity, user placement, traffic) draws from its own sub-stream
// derived from a single scenario seed, so that simulations are exactly
// reproducible and adding a new consumer of randomness does not perturb the
// draws seen by existing ones.
package rng

import (
	"math/rand"
)

// Source is a deterministic random source with convenience helpers.
// The zero value is not usable; construct with New or Split.
type Source struct {
	r   *rand.Rand
	src lazySource // r's source, held inline to save an allocation

	// cachedSeed backs baseSeed; zero means "not yet drawn".
	cachedSeed uint64
}

// New returns a Source seeded with seed. Its draws are exactly those of
// rand.New(rand.NewSource(seed)); only the seeding cost is deferred.
func New(seed int64) *Source {
	s := &Source{}
	s.src.Seed(seed)
	s.r = rand.New(&s.src)
	return s
}

// Split derives an independent sub-stream identified by name. Two Sources
// split from the same parent with different names produce uncorrelated
// streams; splitting with the same name twice yields identical streams.
func (s *Source) Split(name string) *Source {
	// Mix the name into the parent seed with FNV-1a so sub-streams are
	// stable across runs and independent of call order.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	// Fold in the parent's base seed (drawn lazily once per parent).
	h ^= s.baseSeed()
	return New(int64(h))
}

// baseSeed returns the per-Source value Split folds into every child. The
// first call consumes the Source's next draw and caches it; later calls
// return the cache. It follows that a Source's children depend on how many
// values it had drawn before its first Split, and that its own draws after
// that Split are shifted by one. Sibling Splits are order independent, but
// code that both draws from and splits one Source must keep the first Split
// at a fixed point of its draw sequence (splitting before any draw is the
// simplest such point).
func (s *Source) baseSeed() uint64 {
	if s.cachedSeed == 0 {
		s.cachedSeed = s.r.Uint64() | 1 // never zero
	}
	return s.cachedSeed
}

// Float64 returns a uniform value in [0,1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	default:
		return s.r.Float64() < p
	}
}

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Subset returns a uniformly random subset of {0..n-1} of size k.
// It panics if k < 0 or k > n.
func (s *Source) Subset(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Subset size out of range")
	}
	p := s.r.Perm(n)
	out := make([]int, k)
	copy(out, p[:k])
	return out
}

// SubsetAtLeastOne returns a uniformly random non-empty subset of {0..n-1}:
// the size is uniform in [1, n] and membership uniform given the size.
func (s *Source) SubsetAtLeastOne(n int) []int {
	if n <= 0 {
		return nil
	}
	k := 1 + s.r.Intn(n)
	return s.Subset(n, k)
}
