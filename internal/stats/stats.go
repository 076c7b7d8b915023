// Package stats provides the descriptive statistics used throughout the
// experiment harness: summaries of repeated GA runs, speedups, relative
// percentage deviations against reference solutions, and
// population-diversity measures (Hamming distance and positional entropy)
// used to study premature convergence.
package stats

import (
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. It returns a zero Summary for an
// empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	m := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[m]
	} else {
		s.Median = (sorted[m-1] + sorted[m]) / 2
	}
	return s
}

// Min returns the minimum of xs; it panics on empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty sample")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty sample")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// RPD returns the relative percentage deviation of value from ref:
// 100*(value-ref)/ref. It is the standard quality measure against a
// best-known solution in the shop scheduling literature.
func RPD(value, ref float64) float64 {
	if ref == 0 {
		return 0
	}
	return 100 * (value - ref) / ref
}

// Speedup returns serial/parallel. Both times must be positive.
func Speedup(serial, parallel float64) float64 {
	if parallel <= 0 {
		return math.Inf(1)
	}
	return serial / parallel
}

// HammingDistance counts positions where two equal-length slices differ.
// It panics if the lengths differ.
func HammingDistance(a, b []int) int {
	if len(a) != len(b) {
		panic("stats: HammingDistance length mismatch")
	}
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// PositionalEntropy returns the mean Shannon entropy per gene position of a
// population of integer genomes, normalised to [0, 1] by log(k) where k is
// the number of distinct symbols observed at that position. It is the
// diversity measure used for the Tamaki premature-convergence experiment.
func PositionalEntropy(pop [][]int) float64 {
	if len(pop) == 0 || len(pop[0]) == 0 {
		return 0
	}
	l := len(pop[0])
	var total float64
	for pos := 0; pos < l; pos++ {
		counts := map[int]int{}
		for _, g := range pop {
			counts[g[pos]]++
		}
		if len(counts) <= 1 {
			continue // entropy 0 at this position
		}
		var h float64
		n := float64(len(pop))
		for _, c := range counts {
			p := float64(c) / n
			h -= p * math.Log(p)
		}
		total += h / math.Log(float64(len(counts)))
	}
	return total / float64(l)
}
