// Package op is the operator library for the GA engine: the selection
// schemes, crossovers and mutations named across the surveyed works.
// Selections are generic over the genome; crossovers and mutations are
// provided for the three genome families the survey's Section III.A
// describes — job permutations ([]int with unique values), operation
// sequences ([]int permutations with repetition) and random keys
// ([]float64).
//
// The crossovers the default operator bundles hand the engine (JOX, OX,
// uniform) also come as recycling *Into factories whose instances own
// their scratch and write children into retired genomes (crossinto.go).
// JOX and OX have a single branch-free kernel each, shared by the plain
// and the *Into forms and pinned to reference bodies in the test files.
package op

import (
	"repro/internal/core"
	"repro/internal/rng"
)

// RouletteWheel selects proportionally to fitness (the classic scheme used
// by Mui [17], Asadzadeh [27], Gu [28], Belkadi [37] among others). When all
// fitness values are zero it falls back to uniform choice.
func RouletteWheel[G any]() core.Selection[G] {
	return func(r *rng.RNG, pop []core.Individual[G]) int {
		var total float64
		for i := range pop {
			total += pop[i].Fit
		}
		if total <= 0 {
			return r.Intn(len(pop))
		}
		t := r.Float64() * total
		for i := range pop {
			t -= pop[i].Fit
			if t < 0 {
				return i
			}
		}
		return len(pop) - 1
	}
}

// Tournament selects the fittest of k uniformly drawn individuals
// (k-way tournament; Defersha & Chen use k-way, Kokosiński 2-elements).
func Tournament[G any](k int) core.Selection[G] {
	if k < 1 {
		panic("op: tournament size must be >= 1")
	}
	return func(r *rng.RNG, pop []core.Individual[G]) int {
		best := r.Intn(len(pop))
		for i := 1; i < k; i++ {
			c := r.Intn(len(pop))
			if pop[c].Fit > pop[best].Fit {
				best = c
			}
		}
		return best
	}
}
