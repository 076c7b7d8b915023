package core

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// stableSortedIndices is the reference ranking rankedIndices replaced: a
// stable insertion sort of all population indices by ascending objective.
func stableSortedIndices[G any](pop []Individual[G]) []int {
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && pop[idx[j-1]].Obj > pop[idx[j]].Obj; j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
	return idx
}

// TestEliteSelectionMatchesStableSort pins rankedIndices to the stable
// sort: its best-k list must be the sorted order's first k entries and its
// worst-k list the last k, worst first, on populations whose objectives
// are heavily tied (a handful of distinct values) so index tie-breaking is
// exercised on every call.
func TestEliteSelectionMatchesStableSort(t *testing.T) {
	r := rng.New(31)
	var buf []int
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(40)
		distinct := 1 + r.Intn(4)
		pop := make([]Individual[int], n)
		for i := range pop {
			pop[i].Obj = float64(100 + 7*r.Intn(distinct))
		}
		order := stableSortedIndices(pop)
		for _, k := range []int{0, 1, 2, 3, n, n + 2} {
			want := order[:min(k, n)]
			buf = rankedIndices(buf, pop, k, false)
			if !slices.Equal(buf, want) {
				t.Fatalf("trial %d k=%d: best %v, stable sort gives %v (pop %v)", trial, k, buf, want, pop)
			}
			wantWorst := make([]int, 0, len(want))
			for i := 0; i < min(k, n); i++ {
				wantWorst = append(wantWorst, order[n-1-i])
			}
			buf = rankedIndices(buf, pop, k, true)
			if !slices.Equal(buf, wantWorst) {
				t.Fatalf("trial %d k=%d: worst %v, stable sort gives %v (pop %v)", trial, k, buf, wantWorst, pop)
			}
		}
	}
}

// BenchmarkHotPath/elitism-160 is the elitism row of the BENCH_hotpath.json
// ledger (the other rows are the root package's BenchmarkHotPath): the
// master's elitism pass over a 160-individual generation (the flow
// workload's population) at the default Elite of 1, with CloneInto
// recycling. Each op restores the replaced child's objective, so every
// call ranks both generations and replaces one child.
func BenchmarkHotPath(b *testing.B) {
	b.Run("elitism-160", func(b *testing.B) {
		p := sortProblem(20).(FuncProblem[[]int])
		p.CloneIntoFn = func(dst, src []int) []int { return append(dst[:0], src...) }
		eng := New[[]int](p, rng.New(3), Config[[]int]{Pop: 160, Ops: permOps()})
		r := rng.New(4)
		next := make([]Individual[[]int], 160)
		worst := 0.0
		for i := range next {
			next[i] = Individual[[]int]{Genome: r.Perm(20), Obj: float64(21 + r.Intn(8))}
			worst = max(worst, next[i].Obj)
		}
		// ordB[0] is the child the last pass replaced: the worst one.
		// Restoring its objective makes it the worst again.
		pass := func() {
			eng.applyElitism(next)
			next[eng.ordB[0]].Obj = worst
		}
		pass()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass()
		}
	})
}
