package rng

import "math/rand"

// math/rand's generator is an additive lagged Fibonacci register of
// rngLen 64-bit words with tap distance rngTap. Seeding fills every word
// from a Park–Miller (multiplier 48271, modulus 2³¹−1) walk started at the
// normalized seed, each word XORed with a fixed per-index constant; the
// k-th draw adds word feed_k = 333−k to word tap_k = 606−k (indices mod
// rngLen) and writes the sum back to feed_k.
//
// For k < rngTap neither word has been written yet, so draw k is the sum
// of seeded words 333−k and 606−k, and each seeded word has a closed form:
// the normalized seed times 48271^(21+3i) mod 2³¹−1 gives its first
// Park–Miller value. A lazySource serves that window from the closed form
// and builds the full register only when a stream draws past it.
const (
	rngLen   = 607
	rngTap   = 273
	feed0    = rngLen - rngTap - 1 // 333: the first draw's feed word
	tap0     = rngLen - 1          // 606: the first draw's tap word
	pmMod    = 1<<31 - 1
	pmMul    = 48271
	pmWarmup = 20 // Park–Miller steps math/rand discards before word 0
	mask63   = 1<<63 - 1
	// defaultNormSeed is what math/rand seeds with when seed ≡ 0 mod 2³¹−1.
	defaultNormSeed = 89482311
)

var (
	// seedMul[i] is 48271^(21+3i) mod 2³¹−1: the multiplier taking the
	// normalized seed to the first Park–Miller value of seeded word i.
	seedMul [rngLen]uint64
	// seedMix[i] is the constant seeding XORs into word i, recovered at
	// init from one reference rand.NewSource stream.
	seedMix [rngLen]uint64
)

func init() {
	m := uint64(1)
	for i := 0; i < pmWarmup+1; i++ {
		m = m * pmMul % pmMod
	}
	for i := range seedMul {
		seedMul[i] = m
		m = m * pmMul % pmMod
		m = m * pmMul % pmMod
		m = m * pmMul % pmMod
	}

	// Recover the seeded register from draws 0..rngLen-1 of a reference
	// stream. Draws rngTap..rngLen-1 read at their tap the sum written by
	// draw k−rngTap, so their feed word is out[k]−out[k−rngTap]; that gives
	// words 0..60 and 334..606. Draws 0..rngTap-1 then give words 61..333
	// as out[k]−word(606−k).
	const refSeed = 1
	ref := rand.NewSource(refSeed).(rand.Source64)
	var out [rngLen]uint64
	for k := range out {
		out[k] = ref.Uint64()
	}
	var vec [rngLen]uint64
	for k := rngTap; k < rngLen; k++ {
		vec[(feed0-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec[feed0-k] = out[k] - vec[tap0-k]
	}
	for i := range seedMix {
		seedMix[i] = vec[i] ^ packWord(refSeed, i)
	}
}

// normSeed maps seed to math/rand's Park–Miller start value in [1, 2³¹−2].
func normSeed(seed int64) uint64 {
	s := seed % pmMod
	if s < 0 {
		s += pmMod
	}
	if s == 0 {
		s = defaultNormSeed
	}
	return uint64(s)
}

// packWord returns seeded word i before its per-index constant: its three
// Park–Miller values x₀, x₁, x₂ packed as x₀<<40 ^ x₁<<20 ^ x₂.
func packWord(norm uint64, i int) uint64 {
	x := norm * seedMul[i] % pmMod
	u := x << 40
	x = x * pmMul % pmMod
	u ^= x << 20
	x = x * pmMul % pmMod
	return u ^ x
}

// lazySource is a rand.Source64 whose draws equal rand.NewSource(seed)'s,
// bit for bit, without paying the 607-word seeding up front. The first
// rngTap draws come from the closed form; the next one builds the full
// register (rand.NewSource plus the rngTap draws already served) and every
// later draw is the register's.
type lazySource struct {
	seed int64
	norm uint64
	n    int // draws served from the closed form
	full rand.Source64
}

func (s *lazySource) Uint64() uint64 {
	if s.full != nil {
		return s.full.Uint64()
	}
	if k := s.n; k < rngTap {
		s.n++
		f, t := feed0-k, tap0-k
		return (packWord(s.norm, f) ^ seedMix[f]) + (packWord(s.norm, t) ^ seedMix[t])
	}
	s.full = rand.NewSource(s.seed).(rand.Source64)
	for i := 0; i < rngTap; i++ {
		s.full.Uint64()
	}
	return s.full.Uint64()
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() & mask63) }

// Seed resets the stream to the start of seed's sequence.
func (s *lazySource) Seed(seed int64) { *s = lazySource{seed: seed, norm: normSeed(seed)} }
