package op

import "repro/internal/rng"

// Operation-sequence crossovers: parents are permutations *with repetition*
// (job j appears once per operation). All operators below preserve the
// token multiset, so children never need repair.

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

// SeqOnePoint keeps the first parent's prefix up to a random cut and
// completes the sequence with the second parent's tokens in order, skipping
// tokens whose quota is exhausted. This is the sequence-level analogue of
// the time-horizon exchange (THX) of Lin et al. [21]: everything "before
// the horizon" comes from one parent, everything after follows the other
// parent's ordering.
func SeqOnePoint(numJobs int) func(r *rng.RNG, a, b []int) ([]int, []int) {
	return func(r *rng.RNG, a, b []int) ([]int, []int) {
		cut := r.Intn(len(a) + 1)
		return seqFill(a, b, cut, numJobs), seqFill(b, a, cut, numJobs)
	}
}

func seqFill(a, b []int, cut, numJobs int) []int {
	n := len(a)
	child := make([]int, 0, n)
	quota := make([]int, numJobs)
	for _, t := range a {
		quota[t]++
	}
	for i := 0; i < cut; i++ {
		child = append(child, a[i])
		quota[a[i]]--
	}
	for _, t := range b {
		if quota[t] > 0 {
			child = append(child, t)
			quota[t]--
		}
	}
	return child
}

// MSXF is a simplified multi-step crossover fusion (Bożejko & Wodecki
// [30]): the child starts from the first parent and performs a bounded
// random-swap local search biased toward the second parent — moves that
// reduce the Hamming distance to the second parent are always accepted,
// others with a small probability. The result fuses the parents while
// staying a valid token multiset.
func MSXF(steps int, acceptWorse float64) func(r *rng.RNG, a, b []int) ([]int, []int) {
	return func(r *rng.RNG, a, b []int) ([]int, []int) {
		return msxfChild(r, a, b, steps, acceptWorse), msxfChild(r, b, a, steps, acceptWorse)
	}
}

func msxfChild(r *rng.RNG, from, toward []int, steps int, acceptWorse float64) []int {
	n := len(from)
	child := append([]int(nil), from...)
	if steps <= 0 {
		steps = n / 2
	}
	dist := hamming(child, toward)
	for s := 0; s < steps && dist > 0; s++ {
		i, j := r.Intn(n), r.Intn(n)
		if child[i] == child[j] {
			continue
		}
		delta := swapDelta(child, toward, i, j)
		if delta < 0 || r.Bool(acceptWorse) {
			child[i], child[j] = child[j], child[i]
			dist += delta
		}
	}
	return child
}

func hamming(a, b []int) int {
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// swapDelta returns the change in Hamming distance to target if a[i] and
// a[j] are swapped.
func swapDelta(a, target []int, i, j int) int {
	before := btoi(a[i] != target[i]) + btoi(a[j] != target[j])
	after := btoi(a[j] != target[i]) + btoi(a[i] != target[j])
	return after - before
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
