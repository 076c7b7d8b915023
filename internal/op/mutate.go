package op

import "repro/internal/rng"

// Mutations. The survey's Section III.A notes that shop scheduling
// mutations are neighbourhood moves rather than bit flips: the swap
// (pairwise-interchange) neighbourhood keeps genomes feasible by
// construction.

// SwapMutation exchanges two random positions (pairwise interchange /
// swap-neighbourhood mutation).
func SwapMutation(r *rng.RNG, g []int) {
	n := len(g)
	if n < 2 {
		return
	}
	i, j := r.Intn(n), r.Intn(n)
	g[i], g[j] = g[j], g[i]
}

// ResetWithin returns a mutation that assigns one random position a fresh
// value below its positional limit — the machine-reassignment mutation for
// flexible shop assignment vectors, where limits[i] is the number of
// eligible machines of operation i.
func ResetWithin(limits []int) func(r *rng.RNG, g []int) {
	return func(r *rng.RNG, g []int) {
		if len(g) == 0 {
			return
		}
		i := r.Intn(len(g))
		if i < len(limits) && limits[i] > 0 {
			g[i] = r.Intn(limits[i])
		}
	}
}

// GaussianKeys perturbs each key with probability perKey by N(0, sigma)
// (Zajicek & Šucha's Gaussian mutation on real-coded genomes).
func GaussianKeys(sigma, perKey float64) func(r *rng.RNG, g []float64) {
	return func(r *rng.RNG, g []float64) {
		for i := range g {
			if r.Bool(perKey) {
				g[i] += r.NormFloat64() * sigma
			}
		}
	}
}
