package op

import "repro/internal/rng"

// Permutation crossovers: all operators here take parents that are
// permutations of 0..n-1 and return children that are again permutations
// (the repair-free operators the survey lists for flow shop chromosomes).

// twoCuts returns 0 <= c1 < c2 <= n.
func twoCuts(r *rng.RNG, n int) (int, int) {
	c1 := r.Intn(n)
	c2 := r.Intn(n)
	if c1 > c2 {
		c1, c2 = c2, c1
	}
	return c1, c2 + 1
}

// PMX is the partially matched crossover (Asadzadeh & Zamanifar [27]):
// children exchange a segment and conflicts outside it are resolved through
// the segment's value mapping.
func PMX(r *rng.RNG, a, b []int) ([]int, []int) {
	c1, c2 := twoCuts(r, len(a))
	return pmxChild(a, b, c1, c2), pmxChild(b, a, c1, c2)
}

func pmxChild(a, b []int, c1, c2 int) []int {
	n := len(a)
	child := make([]int, n)
	inSeg := make(map[int]int, c2-c1) // value from b -> value from a at same slot
	for i := c1; i < c2; i++ {
		child[i] = b[i]
		inSeg[b[i]] = a[i]
	}
	for i := 0; i < n; i++ {
		if i >= c1 && i < c2 {
			continue
		}
		v := a[i]
		for {
			mapped, clash := inSeg[v]
			if !clash {
				break
			}
			v = mapped
		}
		child[i] = v
	}
	return child
}

// OX is the order crossover: each child keeps a segment of one parent and
// fills the rest with the other parent's values in cyclic order from the
// segment's end. It runs OXInto's kernel (oxChildInto) on fresh scratch
// and fresh children.
func OX(r *rng.RNG, a, b []int) ([]int, []int) {
	var k oxKernel
	return k.cross(r, a, b, nil, nil)
}

// LOX is the linear order crossover used by Kokosiński & Studzienny [32]:
// as OX but the remainder fills left-to-right rather than cyclically.
func LOX(r *rng.RNG, a, b []int) ([]int, []int) {
	c1, c2 := twoCuts(r, len(a))
	return loxChild(a, b, c1, c2), loxChild(b, a, c1, c2)
}

// loxChild keeps a's segment [c1, c2) and fills positions [0, c1) then
// [c2, n) with b's remaining values in b's order.
func loxChild(a, b []int, c1, c2 int) []int {
	child := make([]int, len(a))
	used := make([]bool, len(a))
	copy(child[c1:c2], a[c1:c2])
	for _, v := range a[c1:c2] {
		used[v] = true
	}
	pos := 0
	for _, v := range b {
		if used[v] {
			continue
		}
		if pos == c1 {
			pos = c2
		}
		child[pos] = v
		pos++
	}
	return child
}

// CX is the cycle crossover (Akhshabi [18], Gu [28]): positions are
// partitioned into cycles; children alternate which parent supplies each
// cycle, so every gene keeps a position it had in one of the parents.
func CX(r *rng.RNG, a, b []int) ([]int, []int) {
	n := len(a)
	pos := make(map[int]int, n)
	for i, v := range a {
		pos[v] = i
	}
	cycleOf := make([]int, n)
	for i := range cycleOf {
		cycleOf[i] = -1
	}
	cycles := 0
	for i := 0; i < n; i++ {
		if cycleOf[i] >= 0 {
			continue
		}
		j := i
		for cycleOf[j] < 0 {
			cycleOf[j] = cycles
			j = pos[b[j]]
		}
		cycles++
	}
	_ = r // CX is deterministic given the parents; r kept for interface parity
	c1 := make([]int, n)
	c2 := make([]int, n)
	for i := 0; i < n; i++ {
		if cycleOf[i]%2 == 0 {
			c1[i], c2[i] = a[i], b[i]
		} else {
			c1[i], c2[i] = b[i], a[i]
		}
	}
	return c1, c2
}

// OnePointInt is the classic one-point crossover on integer vectors. It
// does not preserve permutation validity and is meant for assignment
// vectors (flexible shops) or other unconstrained integer genomes.
func OnePointInt(r *rng.RNG, a, b []int) ([]int, []int) {
	n := len(a)
	cut := r.Intn(n + 1)
	c1 := make([]int, n)
	c2 := make([]int, n)
	copy(c1, a[:cut])
	copy(c1[cut:], b[cut:])
	copy(c2, b[:cut])
	copy(c2[cut:], a[cut:])
	return c1, c2
}

// UniformInt is the uniform crossover on integer vectors (Belkadi et al.
// [37] use it on assignment chromosomes); each position comes from either
// parent with probability 1/2.
func UniformInt(r *rng.RNG, a, b []int) ([]int, []int) {
	n := len(a)
	c1 := make([]int, n)
	c2 := make([]int, n)
	for i := 0; i < n; i++ {
		if r.Bool(0.5) {
			c1[i], c2[i] = a[i], b[i]
		} else {
			c1[i], c2[i] = b[i], a[i]
		}
	}
	return c1, c2
}
