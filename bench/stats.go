package main

import (
	"math"
	"slices"
	"sort"
)

// summary describes one set of timing samples. Quartiles follow Python's
// statistics.quantiles(xs, n=4) (the exclusive method), which is what the
// benchmark driver applies to the per-run values, so a spread computed
// here reads the same as one computed there.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	// P90 is the nearest-rank 90th percentile. It is only meaningful from
	// N >= 100 on, where ten samples lie beyond it.
	P90 float64 `json:"p90"`
}

// quantileExclusive returns the p-quantile of sorted xs at position
// p*(n+1), interpolating linearly and clamping to the extremes.
func quantileExclusive(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p * float64(n+1)
	lo := int(math.Floor(pos))
	if lo < 1 {
		return sorted[0]
	}
	if lo >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo-1] + frac*(sorted[lo]-sorted[lo-1])
}

// nearestRank returns the smallest sample with at least a fraction p of
// the samples at or below it.
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p * float64(n)))
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		N: len(s), Min: s[0],
		Q1:     quantileExclusive(s, 0.25),
		Median: quantileExclusive(s, 0.5),
		Q3:     quantileExclusive(s, 0.75),
		P90:    nearestRank(s, 0.9),
	}
}

// floor is the statistic every reported time uses: the fastest
// repetition. On the shared sandbox the same RSA signature reads anywhere
// from 0.32 to 0.70 ms within one minute (neighbours on the host, invisible
// as steal time), the slow state is the common one and its slowdown is not
// constant, so medians of identical code differ by 15-25 % between runs.
// The fastest repetition is the only statistic that repeats; the median
// and quartiles travel alongside it in the detail line.
func floor(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return slices.Min(xs)
}

// recordRep is the timing of one record repetition: the scenario run cut
// into equal virtual-time slices, the archive write, and the audit of the
// fresh archive.
type recordRep struct {
	slices []float64
	write  float64
	fresh  float64
}

// recordFloor combines record repetitions into the floor of one recording
// and of one record-then-audit pass. A recording takes seconds, far longer
// than the sandbox stays in its fast state, so no whole repetition is ever
// undisturbed; each virtual-time slice is, in some repetition. The floor of
// the whole is therefore the sum of the per-slice floors.
func recordFloor(reps []recordRep) (record, endToEnd float64) {
	if len(reps) == 0 {
		return math.NaN(), math.NaN()
	}
	write, fresh := math.Inf(1), math.Inf(1)
	for _, r := range reps {
		write, fresh = min(write, r.write), min(fresh, r.fresh)
	}
	for i := range reps[0].slices {
		best := math.Inf(1)
		for _, r := range reps {
			best = min(best, r.slices[i])
		}
		record += best
	}
	record += write
	return record, record + fresh
}
