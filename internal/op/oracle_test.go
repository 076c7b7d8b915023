package op

import "repro/internal/rng"

// Reference bodies of the crossover kernels: the straightforward branchy
// formulations JOX, OX and LOX were first written as. The production
// kernels (joxPairInto, oxChildInto, loxChild) must reproduce them child
// for child; TestCrossIntoMatchesCross and the fuzz targets check it.

// joxOracle is JOX over the reference child body, drawing the keep-mask
// exactly as JOX does.
func joxOracle(numJobs int) func(r *rng.RNG, a, b []int) ([]int, []int) {
	return func(r *rng.RNG, a, b []int) ([]int, []int) {
		keep := make([]bool, numJobs)
		for j := range keep {
			keep[j] = r.Bool(0.5)
		}
		return joxChild(a, b, keep), joxChild(b, a, keep)
	}
}

func joxChild(a, b []int, keep []bool) []int {
	n := len(a)
	child := make([]int, n)
	bi := 0
	for i := 0; i < n; i++ {
		if keep[a[i]] {
			child[i] = a[i]
			continue
		}
		for bi < len(b) && keep[b[bi]] {
			bi++
		}
		if bi < len(b) {
			child[i] = b[bi]
			bi++
		}
	}
	return child
}

// oxOracle and loxOracle are OX and LOX over the reference child body.
func oxOracle(r *rng.RNG, a, b []int) ([]int, []int) {
	c1, c2 := twoCuts(r, len(a))
	return oxChild(a, b, c1, c2, true), oxChild(b, a, c1, c2, true)
}

func loxOracle(r *rng.RNG, a, b []int) ([]int, []int) {
	c1, c2 := twoCuts(r, len(a))
	return oxChild(a, b, c1, c2, false), oxChild(b, a, c1, c2, false)
}

func oxChild(a, b []int, c1, c2 int, cyclic bool) []int {
	n := len(a)
	child := make([]int, n)
	used := make(map[int]bool, c2-c1)
	for i := c1; i < c2; i++ {
		child[i] = a[i]
		used[a[i]] = true
	}
	fillPositions := make([]int, 0, n-(c2-c1))
	if cyclic {
		for k := 0; k < n; k++ {
			pos := (c2 + k) % n
			if pos >= c1 && pos < c2 {
				continue
			}
			fillPositions = append(fillPositions, pos)
		}
	} else {
		for pos := 0; pos < n; pos++ {
			if pos >= c1 && pos < c2 {
				continue
			}
			fillPositions = append(fillPositions, pos)
		}
	}
	src := make([]int, 0, n)
	if cyclic {
		for k := 0; k < n; k++ {
			src = append(src, b[(c2+k)%n])
		}
	} else {
		src = append(src, b...)
	}
	fi := 0
	for _, v := range src {
		if used[v] {
			continue
		}
		child[fillPositions[fi]] = v
		fi++
		if fi == len(fillPositions) {
			break
		}
	}
	return child
}
