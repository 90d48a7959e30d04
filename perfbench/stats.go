package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailLadder lists the tail percentiles the benchmark may report, in
// per-mille, highest first.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// rank is the 1-based nearest-rank position of the pm-per-mille
// percentile among n samples: ceil(pm·n/1000), clamped to [1, n].
// Integer arithmetic keeps 99% of 1000 samples at exactly rank 990.
func rank(n, pm int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// samplesBeyond counts the samples that lie above the pm-per-mille
// percentile of n samples.
func samplesBeyond(n, pm int) int { return n - rank(n, pm) }

// tailPercentile returns the highest percentile on tailLadder, in
// per-mille, that has at least minBeyond of n samples beyond it, or 0
// when even the median has fewer.
func tailPercentile(n int) int {
	for _, pm := range tailLadder {
		if samplesBeyond(n, pm) >= minBeyond {
			return pm
		}
	}
	return 0
}

// samplesFor returns the fewest samples that put minBeyond beyond the
// pm-per-mille percentile.
func samplesFor(pm int) int {
	n := 1
	for samplesBeyond(n, pm) < minBeyond {
		n++
	}
	return n
}

// percentile returns the nearest-rank pm-per-mille percentile of xs
// (0 for no samples). xs is not modified.
func percentile(xs []float64, pm int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(len(s), pm)-1]
}

// median returns the middle value of xs, averaging the two middle values
// of an even count (Python's statistics.median); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs by the method of Python's
// statistics.quantiles(xs, n=4) (its default "exclusive" method). It
// needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], true
}

// quartileSpread is the distance between the first and third quartiles
// of xs as a share of their median: the run-to-run spread a metric's
// bound must cover. It is +Inf when the median is 0 or xs has fewer than
// two samples.
func quartileSpread(xs []float64) float64 {
	q1, _, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// mean returns the arithmetic mean of xs (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0, so that a layer a workload
// does not exercise reports 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// slotTimes records slot latencies in consecutive blocks of blockSize
// and keeps each block's median and 99th percentile (ten samples beyond
// it per block). slot_p50_ms and slot_p99_ms are the medians of those
// over the blocks, so a burst of host contention that spoils a few blocks
// does not move them, and the memory taken does not grow with the run
// (a partial last block is dropped).
type slotTimes struct {
	block      []float64 // ms, the block being filled
	p50s, p99s []float64 // per completed block
}

const blockSize = 1000

func newSlotTimes() *slotTimes { return &slotTimes{block: make([]float64, 0, blockSize)} }

func (s *slotTimes) add(d time.Duration) {
	s.block = append(s.block, ms(d))
	if len(s.block) < blockSize {
		return
	}
	sort.Float64s(s.block)
	s.p50s = append(s.p50s, s.block[rank(blockSize, 500)-1])
	s.p99s = append(s.p99s, s.block[rank(blockSize, 990)-1])
	s.block = s.block[:0]
}

// samples counts the slots in completed blocks.
func (s *slotTimes) samples() int { return blockSize * len(s.p50s) }

func (s *slotTimes) p50() float64 { return median(s.p50s) }
func (s *slotTimes) p99() float64 { return median(s.p99s) }
