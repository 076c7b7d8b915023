package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/rng"
	"repro/internal/shop"
	"repro/internal/shopga"
)

// TestVariationZeroAlloc guards the variation hot path: a warm JOXInto or
// OXInto instance crossing into recycled children, and the master's
// elitism pass on a CloneInto problem, allocate nothing.
func TestVariationZeroAlloc(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	r := rng.New(5)
	js := shop.FT10()
	seq := shopga.JobShopProblem(js, shop.Makespan)
	cases := []struct {
		name string
		into core.CrossoverInto[[]int]
		a, b []int
	}{
		{"JOXInto/ft10", op.JOXInto(len(js.Jobs))(), seq.Random(r), seq.Random(r)},
		{"OXInto/20", op.OXInto()(), r.Perm(20), r.Perm(20)},
	}
	for _, tc := range cases {
		d1, d2 := tc.into(r, tc.a, tc.b, nil, nil)
		if avg := testing.AllocsPerRun(100, func() {
			d1, d2 = tc.into(r, tc.a, tc.b, d1, d2)
		}); avg != 0 {
			t.Errorf("%s: %.1f allocs per warm crossover, want 0", tc.name, avg)
		}
	}

	// Elitism: a population of 160 whose children are all worse than the
	// previous generation's best, so every call replaces the worst child
	// and recycles its genome through CloneInto.
	prob := shopga.FlowShopProblem(shop.GenerateFlowShop("za-fs-20x5", 20, 5, 911), shop.Makespan)
	eng := core.New(prob, rng.New(9), core.Config[[]int]{
		Pop: 160, Elite: 2, Ops: shopga.PermOps(),
		Term: core.Termination{MaxGenerations: 1 << 30},
	})
	next := make([]core.Individual[[]int], len(eng.Population()))
	for i := range next {
		next[i] = core.Individual[[]int]{Genome: prob.Random(r), Obj: 1e9 + float64(i%3)}
	}
	reset := func() {
		for i := range next {
			next[i].Obj = 1e9 + float64(i%3)
		}
	}
	eng.ApplyElitism(next) // warm the ranking buffers and the free list
	reset()
	if avg := testing.AllocsPerRun(100, func() {
		eng.ApplyElitism(next)
		reset()
	}); avg != 0 {
		t.Errorf("applyElitism: %.1f allocs per call, want 0", avg)
	}
}
