package core_test

// External-package integration tests: the engine driven by the real
// operator library (selection schemes, permutation crossovers) and the
// paper's heuristic fitness transform, on the shop substrate.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/op"
	"repro/internal/rng"
	"repro/internal/shop"
)

func flowProblem(in *shop.Instance) core.Problem[[]int] {
	return core.FuncProblem[[]int]{
		RandomFn:   func(r *rng.RNG) []int { return decode.RandomPermutation(in, r) },
		EvaluateFn: func(g []int) float64 { return float64(decode.FlowShopMakespan(in, g, nil)) },
		CloneFn:    func(g []int) []int { return append([]int(nil), g...) },
	}
}

// TestEngineWithEverySelectionScheme runs the engine end-to-end under every
// selection operator from the library; all must make progress and keep
// permutations valid.
func TestEngineWithEverySelectionScheme(t *testing.T) {
	in := shop.GenerateFlowShop("int-f", 12, 4, 1234)
	ref := decode.Reference(in, shop.Makespan)
	sels := map[string]core.Selection[[]int]{
		"roulette":   op.RouletteWheel[[]int](),
		"tournament": op.Tournament[[]int](3),
	}
	for name, sel := range sels {
		t.Run(name, func(t *testing.T) {
			res := core.New(flowProblem(in), rng.New(5), core.Config[[]int]{
				Pop: 40, Elite: 1,
				Ops:  core.Operators[[]int]{Select: sel, Cross: op.OX, Mutate: op.SwapMutation},
				Term: core.Termination{MaxGenerations: 60},
			}).Run()
			if res.Best.Obj > ref {
				t.Errorf("%s: GA (%v) worse than dispatching heuristic (%v)", name, res.Best.Obj, ref)
			}
			seen := make([]bool, len(res.Best.Genome))
			for _, v := range res.Best.Genome {
				if v < 0 || v >= len(seen) || seen[v] {
					t.Fatalf("%s: best genome not a permutation: %v", name, res.Best.Genome)
				}
				seen[v] = true
			}
		})
	}
}

// TestHeuristicFitnessDrivesSearch exercises the paper's equation (1)
// transform end-to-end: with F-bar from the dispatching reference, roulette
// selection still improves the population (individuals above F-bar get
// fitness 0 and die out).
func TestHeuristicFitnessDrivesSearch(t *testing.T) {
	in := shop.GenerateFlowShop("int-h", 12, 4, 4321)
	fbar := 1.5 * decode.Reference(in, shop.Makespan)
	res := core.New(flowProblem(in), rng.New(6), core.Config[[]int]{
		Pop: 40, Elite: 1, Fitness: core.HeuristicFitness(fbar),
		Ops:  core.Operators[[]int]{Select: op.RouletteWheel[[]int](), Cross: op.PMX, Mutate: op.SwapMutation},
		Term: core.Termination{MaxGenerations: 80},
	}).Run()
	if res.Best.Obj >= fbar {
		t.Errorf("heuristic-fitness GA stayed above F-bar: %v >= %v", res.Best.Obj, fbar)
	}
}

// TestEveryPermutationCrossoverInEngine drives each permutation crossover
// through full engine runs, asserting genome validity of every individual in
// the final population (failure injection for repair-free operators).
func TestEveryPermutationCrossoverInEngine(t *testing.T) {
	in := shop.GenerateFlowShop("int-x", 10, 3, 777)
	crossers := map[string]core.Crossover[[]int]{
		"PMX": op.PMX, "OX": op.OX, "LOX": op.LOX, "CX": op.CX,
	}
	for name, cross := range crossers {
		t.Run(name, func(t *testing.T) {
			eng := core.New(flowProblem(in), rng.New(7), core.Config[[]int]{
				Pop: 30,
				Ops: core.Operators[[]int]{
					Select: op.Tournament[[]int](2), Cross: cross, Mutate: op.SwapMutation,
				},
				Term: core.Termination{MaxGenerations: 40},
			})
			eng.Run()
			for i, ind := range eng.Population() {
				seen := make([]bool, len(ind.Genome))
				for _, v := range ind.Genome {
					if v < 0 || v >= len(seen) || seen[v] {
						t.Fatalf("%s: individual %d invalid after 40 generations: %v", name, i, ind.Genome)
					}
					seen[v] = true
				}
			}
		})
	}
}
