package op

import (
	"repro/internal/core"
	"repro/internal/rng"
)

// Recycling (CrossoverInto) variants of the crossovers the default operator
// bundles use. Each *Into constructor returns a FACTORY: the engine calls
// it once per worker, so an instance may keep private scratch (JOX's
// keep-mask, OX's segment marks, both operators' fill buffers) without any
// cross-goroutine sharing.
//
// JOX and OX have one kernel each: the plain JOX and OX run the same
// kernel on fresh scratch and fresh children. The kernels are branch-free
// compactions — always write, advance the write cursor by a 0/1 mask — so
// no branch depends on the genome; with batched decoding, crossover is a
// large share of a generation. TestCrossIntoMatchesCross pins them,
// children and randomness, to the branchy reference bodies kept in the
// test files, so wiring an instance into core.Operators.CrossInto never
// changes a trajectory; it only redirects where the children's storage
// comes from. Destinations must not alias the parents (the engine hands in
// genomes of the retired generation, which cannot alias the live
// population).

// intoInts resizes dst to n reusing its capacity.
func intoInts(dst []int, n int) []int {
	if cap(dst) < n {
		return make([]int, n)
	}
	return dst[:n]
}

// intoKeys resizes dst to n reusing its capacity.
func intoKeys(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// JOXInto is the recycling job-order crossover (see JOX). The factory's
// instances own the keep-mask and fill scratch.
func JOXInto(numJobs int) func() core.CrossoverInto[[]int] {
	return func() core.CrossoverInto[[]int] {
		k := &joxKernel{keep: make([]int, numJobs)}
		return k.cross
	}
}

// joxKernel is one JOX instance's scratch: keep[j] is 1 when job j keeps
// its positions from the first parent, 0 otherwise, and fill holds the
// second parent's compacted unkept tokens (plus one slot of slack, see
// joxChildInto).
type joxKernel struct {
	keep, fill []int
}

func (k *joxKernel) cross(r *rng.RNG, a, b, dst1, dst2 []int) ([]int, []int) {
	for j := range k.keep {
		k.keep[j] = btoi(r.Bool(0.5))
	}
	n := len(a)
	k.fill = intoInts(k.fill, n+1)
	dst1 = intoInts(dst1, n)
	dst2 = intoInts(dst2, n)
	joxChildInto(dst1, a, b, k.keep, k.fill)
	joxChildInto(dst2, b, a, k.keep, k.fill)
	return dst1, dst2
}

// joxChildInto writes the JOX child of (a, b) into child in two
// branch-free passes. The first compacts b's unkept tokens into fill: it
// always writes and advances by 1-keep. The second walks a and selects,
// per position, a's token when kept or the next fill token otherwise, with
// an arithmetic select on the mask m = 1-keep. fill needs len(a)+1 slots:
// after the last fill token is consumed, kept positions still read (and
// discard) fill[f] with f = len(a) in the worst case. a and b must hold
// the same token multiset.
func joxChildInto(child, a, b, keep, fill []int) {
	w := 0
	for _, x := range b {
		fill[w] = x
		w += 1 - keep[x]
	}
	f := 0
	for i, x := range a {
		m := 1 - keep[x]
		child[i] = x ^ ((x ^ fill[f]) & -m)
		f += m
	}
}

// OXInto is the recycling order crossover (see OX). Instances own the
// segment-mark and fill scratch; parents must be permutations of 0..n-1,
// like OX's.
func OXInto() func() core.CrossoverInto[[]int] {
	return func() core.CrossoverInto[[]int] {
		k := &oxKernel{}
		return k.cross
	}
}

// oxKernel is one OX instance's scratch: inSeg[v] is 1 while value v lies
// in the first parent's segment, and fill holds the second parent's
// compacted out-of-segment values.
type oxKernel struct {
	inSeg, fill []int
}

func (k *oxKernel) cross(r *rng.RNG, a, b, dst1, dst2 []int) ([]int, []int) {
	n := len(a)
	c1, c2 := twoCuts(r, n)
	if cap(k.inSeg) < n {
		k.inSeg = make([]int, n) // zeroed; oxChildInto leaves it zeroed
	}
	k.inSeg = k.inSeg[:n]
	k.fill = intoInts(k.fill, n)
	dst1 = intoInts(dst1, n)
	dst2 = intoInts(dst2, n)
	oxChildInto(dst1, a, b, c1, c2, k.inSeg, k.fill)
	oxChildInto(dst2, b, a, c1, c2, k.inSeg, k.fill)
	return dst1, dst2
}

// oxChildInto writes the cyclic OX child of (a, b) with segment [c1, c2)
// into child. It marks a's segment values in inSeg, compacts b's unmarked
// values into fill in cyclic order from c2 (always write, advance by
// 1-inSeg), copies fill into the free positions [c2, n) then [0, c1), and
// clears its marks again, so inSeg is all zero on entry and on return.
func oxChildInto(child, a, b []int, c1, c2 int, inSeg, fill []int) {
	copy(child[c1:c2], a[c1:c2])
	for _, v := range a[c1:c2] {
		inSeg[v] = 1
	}
	w := 0
	for _, v := range b[c2:] {
		fill[w] = v
		w += 1 - inSeg[v]
	}
	for _, v := range b[:c2] {
		fill[w] = v
		w += 1 - inSeg[v]
	}
	tail := copy(child[c2:], fill)
	copy(child[:c1], fill[tail:])
	for _, v := range a[c1:c2] {
		inSeg[v] = 0
	}
}

// UniformKeysInto is the recycling parameterized uniform crossover on key
// vectors (see ParameterizedUniformKeys).
func UniformKeysInto(p float64) func() core.CrossoverInto[[]float64] {
	return func() core.CrossoverInto[[]float64] {
		return func(r *rng.RNG, a, b, dst1, dst2 []float64) ([]float64, []float64) {
			n := len(a)
			dst1 = intoKeys(dst1, n)
			dst2 = intoKeys(dst2, n)
			for i := 0; i < n; i++ {
				if r.Bool(p) {
					dst1[i], dst2[i] = a[i], b[i]
				} else {
					dst1[i], dst2[i] = b[i], a[i]
				}
			}
			return dst1, dst2
		}
	}
}

// UniformIntInto is the recycling uniform crossover on integer vectors
// (see UniformInt).
func UniformIntInto() func() core.CrossoverInto[[]int] {
	return func() core.CrossoverInto[[]int] {
		return func(r *rng.RNG, a, b, dst1, dst2 []int) ([]int, []int) {
			n := len(a)
			dst1 = intoInts(dst1, n)
			dst2 = intoInts(dst2, n)
			for i := 0; i < n; i++ {
				if r.Bool(0.5) {
					dst1[i], dst2[i] = a[i], b[i]
				} else {
					dst1[i], dst2[i] = b[i], a[i]
				}
			}
			return dst1, dst2
		}
	}
}
