package op

import "repro/internal/rng"

// Operation-sequence crossovers: parents are permutations *with repetition*
// (job j appears once per operation). JOX preserves the token multiset, so
// children never need repair.

// JOX is the job-order crossover for operation sequences: a random subset
// of jobs keeps its positions from the first parent; the remaining
// positions are filled with the other jobs' tokens in the order they appear
// in the second parent. It preserves each parent's relative job orderings,
// which is why it is the workhorse crossover for operation-based job shop
// chromosomes (Park et al. [26] build several variants of it). It runs
// JOXInto's kernel on fresh scratch and fresh children.
func JOX(numJobs int) func(r *rng.RNG, a, b []int) ([]int, []int) {
	return func(r *rng.RNG, a, b []int) ([]int, []int) {
		k := joxKernel{keep: make([]int, numJobs)}
		return k.cross(r, a, b, nil, nil)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
