package op

import "repro/internal/rng"

// Random-keys crossovers ([]float64 genomes, Huang et al. [24] and the
// Giffler-Thompson priority vectors).

// ParameterizedUniformKeys is Huang et al.'s parameterized uniform
// crossover: each key of the first child comes from the first parent with
// probability p (p > 0.5 biases children toward the elite parent).
func ParameterizedUniformKeys(p float64) func(r *rng.RNG, a, b []float64) ([]float64, []float64) {
	return func(r *rng.RNG, a, b []float64) ([]float64, []float64) {
		return parameterizedKeys(r, a, b, p)
	}
}

func parameterizedKeys(r *rng.RNG, a, b []float64, p float64) ([]float64, []float64) {
	n := len(a)
	c1 := make([]float64, n)
	c2 := make([]float64, n)
	for i := 0; i < n; i++ {
		if r.Bool(p) {
			c1[i], c2[i] = a[i], b[i]
		} else {
			c1[i], c2[i] = b[i], a[i]
		}
	}
	return c1, c2
}
