package main

import (
	"math"
	"sort"
	"time"
)

// rank returns the 0-based nearest-rank index of the q-quantile of n
// samples.
func rank(n int, q float64) int {
	return max(int(math.Ceil(q*float64(n)-1e-9))-1, 0)
}

// percentileMS returns the nearest-rank q-quantile of samples in
// milliseconds (samples are sorted in place).
func percentileMS(samples []time.Duration, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return ms(samples[rank(len(samples), q)])
}

// tailMS is the q-quantile latency of a run. When every round has at
// least ten samples beyond its own q-quantile it is the median over
// rounds of each round's quantile, which a burst of interference in a
// minority of rounds does not move; otherwise it is the quantile of the
// latencies pooled over all rounds.
func tailMS(rounds []round, q float64) float64 {
	var pooled []time.Duration
	var each []float64
	perRound := len(rounds) > 0
	for _, rd := range rounds {
		pooled = append(pooled, rd.primary...)
		if n := len(rd.primary); n-1-rank(n, q) < 10 {
			perRound = false
		}
		each = append(each, percentileMS(rd.primary, q))
	}
	if perRound {
		return median(each)
	}
	return percentileMS(pooled, q)
}

// median returns the median of xs (xs is sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload
// bypasses).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
