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

// ElitistRoulette returns the population's best individual with probability
// eliteProb and otherwise falls back to roulette selection — the combined
// elitist/roulette scheme of Mui et al. [17].
func ElitistRoulette[G any](eliteProb float64) core.Selection[G] {
	roulette := RouletteWheel[G]()
	return func(r *rng.RNG, pop []core.Individual[G]) int {
		if r.Bool(eliteProb) {
			best := 0
			for i := range pop {
				if pop[i].Fit > pop[best].Fit {
					best = i
				}
			}
			return best
		}
		return roulette(r, pop)
	}
}

// Ranking implements linear-ranking selection with selection pressure sp in
// [1, 2]: the best individual is expected sp offspring, the worst 2-sp.
func Ranking[G any](sp float64) core.Selection[G] {
	if sp < 1 || sp > 2 {
		panic("op: ranking pressure must be in [1,2]")
	}
	return func(r *rng.RNG, pop []core.Individual[G]) int {
		n := len(pop)
		// rank[i]: 0 = worst ... n-1 = best, computed by counting.
		weights := make([]float64, n)
		for i := range pop {
			rank := 0
			for j := range pop {
				if pop[j].Fit < pop[i].Fit || (pop[j].Fit == pop[i].Fit && j < i) {
					rank++
				}
			}
			weights[i] = 2 - sp + 2*(sp-1)*float64(rank)/float64(n-1)
		}
		return r.Pick(weights)
	}
}

// SUS implements stochastic universal sampling: one spin of an n-armed
// wheel selects the whole next mating pool with minimal spread. The
// returned Selection serves those picks one at a time, respinning after
// len(pop) draws, so it plugs into the engine's one-at-a-time interface
// while keeping the SUS variance properties within a generation.
func SUS[G any]() core.Selection[G] {
	var queue []int
	return func(r *rng.RNG, pop []core.Individual[G]) int {
		if len(queue) == 0 {
			queue = susSpin(r, pop)
		}
		pick := queue[0]
		queue = queue[1:]
		return pick
	}
}

func susSpin[G any](r *rng.RNG, pop []core.Individual[G]) []int {
	n := len(pop)
	var total float64
	for i := range pop {
		total += pop[i].Fit
	}
	picks := make([]int, 0, n)
	if total <= 0 {
		for i := 0; i < n; i++ {
			picks = append(picks, r.Intn(n))
		}
		return picks
	}
	step := total / float64(n)
	ptr := r.Float64() * step
	var cum float64
	idx := 0
	for i := 0; i < n; i++ {
		target := ptr + float64(i)*step
		for cum+pop[idx].Fit < target && idx < n-1 {
			cum += pop[idx].Fit
			idx++
		}
		picks = append(picks, idx)
	}
	// Shuffle so consecutive engine draws are not positionally correlated.
	r.Shuffle(len(picks), func(a, b int) { picks[a], picks[b] = picks[b], picks[a] })
	return picks
}

// BestSelection always returns the fittest individual (used by greedy
// variants and as a building block in tests).
func BestSelection[G any]() core.Selection[G] {
	return func(_ *rng.RNG, pop []core.Individual[G]) int {
		best := 0
		for i := range pop {
			if pop[i].Fit > pop[best].Fit {
				best = i
			}
		}
		return best
	}
}

// RandomSelection selects uniformly, ignoring fitness (Lin et al.'s G&T
// random selection [21]).
func RandomSelection[G any]() core.Selection[G] {
	return func(r *rng.RNG, pop []core.Individual[G]) int {
		return r.Intn(len(pop))
	}
}
