package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/island"
	"repro/internal/op"
	"repro/internal/rng"
	"repro/internal/shop"
	"repro/internal/shopga"
	"repro/internal/stats"
	"repro/internal/tables"
)

// T5aPark reproduces Park et al.'s finding that the island GA improves both
// the best and the average solution over the single-population GA at the
// same evaluation budget. The configuration follows Park's hybrid GA:
// active schedules (Giffler-Thompson decoding) and fitness-proportional
// selection — the combination whose panmictic version stagnates, which is
// precisely what subpopulations plus migration repair.
func T5aPark() []*tables.Table {
	in := shop.GenerateJobShop("t5a-js", 15, 15, 501, 502)
	prob := shopga.GTProblem(in, shop.Makespan)
	ops := core.Operators[[]float64]{
		Select: op.RouletteWheel[[]float64](),
		Cross:  op.ParameterizedUniformKeys(0.7),
		Mutate: op.GaussianKeys(0.3, 0.1),
	}
	fitness := core.HeuristicFitness(2 * decode.Reference(in, shop.Makespan))
	t := &tables.Table{
		ID:      "T5a",
		Title:   "Single GA vs island GA, GT decoding + roulette, ~12k evaluations (5 seeds)",
		Columns: []string{"model", "best", "average", "std"},
	}
	single := summarizeRuns(5, func(seed uint64) float64 {
		return core.New(prob, rng.New(seed), core.Config[[]float64]{
			Pop: 80, Elite: 1, Ops: ops, Fitness: fitness,
			Term: core.Termination{MaxGenerations: 150},
		}).Run().Best.Obj
	})
	mkIsland := func(n int) stats.Summary {
		return summarizeRuns(5, func(seed uint64) float64 {
			return island.New(rng.New(seed), island.Config[[]float64]{
				Islands: n, SubPop: 80 / n, Interval: 5, Epochs: 30, Migrants: 2,
				Topology: island.Ring{},
				Engine:   core.Config[[]float64]{Ops: ops, Elite: 1, Fitness: fitness},
				Problem:  func(int) core.Problem[[]float64] { return prob },
			}).Run().Best.Obj
		})
	}
	two := mkIsland(2)
	four := mkIsland(4)
	t.AddRow("single GA (pop 80)", single.Min, single.Mean, single.Std)
	t.AddRow("island GA (2 x 40)", two.Min, two.Mean, two.Std)
	t.AddRow("island GA (4 x 20)", four.Min, four.Mean, four.Std)
	t.Note("paper claim (Park [26]): the island GA improved not only the best but also the average solution")
	t.Note("fitness transform is the paper's eq. (1) with F-bar = 2x the dispatching reference")
	return []*tables.Table{t}
}

// lotStreamInstance builds the Defersha-style flexible job shop with lot
// streaming and sequence-dependent setups, expanded so each sublot is a job.
func lotStreamInstance() *shop.Instance {
	base := shop.GenerateFlexibleJobShop("t5b-fj", 6, 5, 3, 3, 503)
	shop.WithSetupTimes(base, 2, 9, 504)
	shop.WithBatchSizes(base, 6, 10, 505)
	sizes := make([][]int, len(base.Jobs))
	for j := range sizes {
		sizes[j] = decode.SublotSizes(base.BatchSize[j], 2, []float64{0.5, 0.5})
	}
	expanded, _ := decode.ExpandSublots(base, sizes)
	return expanded
}

func runFlexIsland(seed uint64, in *shop.Instance, topo island.Topology,
	sel island.MigrantSelect, rep island.ReplacePolicy) float64 {
	prob := shopga.FlexibleProblem(in, shop.Makespan)
	return island.New(rng.New(seed), island.Config[shopga.FlexGenome]{
		Islands: 8, SubPop: 15, Interval: 5, Epochs: 15, Migrants: 1,
		Topology: topo, Select: sel, Replace: rep,
		Engine:  core.Config[shopga.FlexGenome]{Ops: shopga.FlexOps(in), Elite: 1},
		Problem: func(int) core.Problem[shopga.FlexGenome] { return prob },
	}).Run().Best.Obj
}

// T5bTopologies reproduces Defersha & Chen's topology comparison on the
// flexible job shop with lot streaming: fully-connected slightly
// outperforms mesh and ring.
func T5bTopologies() []*tables.Table {
	in := lotStreamInstance()
	t := &tables.Table{
		ID:      "T5b",
		Title:   "Migration topology on FJSP + lot streaming + SDST (8 islands, 5 seeds)",
		Columns: []string{"topology", "mean best makespan", "min", "std"},
	}
	for _, topo := range []island.Topology{island.Ring{}, island.Torus2D{}, island.FullyConnected{}} {
		sum := summarizeRuns(5, func(seed uint64) float64 {
			return runFlexIsland(seed, in, topo, island.BestMigrants, island.ReplaceRandom)
		})
		t.AddRow(topo.Name(), sum.Mean, sum.Min, sum.Std)
	}
	t.Note("paper claim (Defersha [35]): the fully connected topology outperformed ring and mesh")
	return []*tables.Table{t}
}

// T5cPolicies reproduces the migration policy comparison: the island GA is
// not very sensitive to the policy, with best-replace-random slightly ahead.
func T5cPolicies() []*tables.Table {
	in := lotStreamInstance()
	t := &tables.Table{
		ID:      "T5c",
		Title:   "Migration policies on FJSP + lot streaming (ring, 8 islands, 5 seeds)",
		Columns: []string{"policy", "mean best makespan", "min", "std"},
	}
	type pol struct {
		name string
		sel  island.MigrantSelect
		rep  island.ReplacePolicy
	}
	for _, p := range []pol{
		{"random-replace-random", island.RandomMigrants, island.ReplaceRandom},
		{"best-replace-random", island.BestMigrants, island.ReplaceRandom},
		{"best-replace-worst", island.BestMigrants, island.ReplaceWorst},
	} {
		sum := summarizeRuns(5, func(seed uint64) float64 {
			return runFlexIsland(seed, in, island.Ring{}, p.sel, p.rep)
		})
		t.AddRow(p.name, sum.Mean, sum.Min, sum.Std)
	}
	t.Note("paper claim (Defersha [35]): low sensitivity to policy; best-replace-random slightly better")
	return []*tables.Table{t}
}

// T5dInterval reproduces Belkadi et al.'s finding that the migration
// interval is the decisive island parameter: quality improves with more
// frequent migration at a fixed generation budget.
func T5dInterval() []*tables.Table {
	in := shop.GenerateFlexibleFlowShop("t5d-ffs", 10, []int{2, 3, 2}, false, 506)
	prob := shopga.FlexibleProblem(in, shop.Makespan)
	t := &tables.Table{
		ID:      "T5d",
		Title:   "Migration interval at a fixed 60-generation budget (6 islands x 16, 3 seeds)",
		Columns: []string{"interval", "epochs", "mean best makespan", "std"},
	}
	const totalGens = 60
	for _, interval := range []int{1, 2, 5, 10, 20, 60} {
		epochs := totalGens / interval
		sum := summarizeRuns(3, func(seed uint64) float64 {
			return island.New(rng.New(seed), island.Config[shopga.FlexGenome]{
				Islands: 6, SubPop: 16, Interval: interval, Epochs: epochs, Migrants: 1,
				Topology: island.Ring{},
				Engine:   core.Config[shopga.FlexGenome]{Ops: shopga.FlexOps(in), Elite: 1},
				Problem:  func(int) core.Problem[shopga.FlexGenome] { return prob },
			}).Run().Best.Obj
		})
		label := fmt.Sprintf("%d", interval)
		if interval == totalGens {
			label = "60 (no migration)"
		}
		t.AddRow(label, epochs, sum.Mean, sum.Std)
	}
	t.Note("paper claim (Belkadi [37]): the migration interval has the decisive influence; quality improves with migration frequency")
	return []*tables.Table{t}
}

// T5eSubpops reproduces Belkadi et al.'s subpopulation sweep: with the
// total population fixed, more subpopulations degrade quality, and the
// effect shrinks as the problem gets harder.
func T5eSubpops() []*tables.Table {
	easy := shop.GenerateFlexibleFlowShop("t5e-easy", 8, []int{2, 2}, false, 507)
	hard := shop.GenerateFlexibleFlowShop("t5e-hard", 16, []int{3, 3, 2}, false, 508)
	t := &tables.Table{
		ID:      "T5e",
		Title:   "Subpopulation count at fixed total population 96 and 80 generations (3 seeds)",
		Columns: []string{"islands x subpop", "mean best (8 jobs)", "mean best (16 jobs)"},
	}
	run := func(in *shop.Instance, islands int, seed uint64) float64 {
		prob := shopga.FlexibleProblem(in, shop.Makespan)
		return island.New(rng.New(seed), island.Config[shopga.FlexGenome]{
			Islands: islands, SubPop: 96 / islands, Interval: 5, Epochs: 16, Migrants: 1,
			Topology: island.Ring{},
			Engine:   core.Config[shopga.FlexGenome]{Ops: shopga.FlexOps(in), Elite: 1},
			Problem:  func(int) core.Problem[shopga.FlexGenome] { return prob },
		}).Run().Best.Obj
	}
	for _, n := range []int{1, 2, 4, 8, 16} {
		e := summarizeRuns(3, func(seed uint64) float64 { return run(easy, n, seed) })
		h := summarizeRuns(3, func(seed uint64) float64 { return run(hard, n, seed) })
		t.AddRow(fmt.Sprintf("%d x %d", n, 96/n), e.Mean, h.Mean)
	}
	t.Note("paper claim (Belkadi [37]): quality decreases as subpopulations increase at fixed total size; the influence shrinks for harder problems")
	return []*tables.Table{t}
}

// T5fStrategies reproduces Bożejko & Wodecki's strategy grid: cooperative
// islands started from different subpopulations with different crossover
// operators per island beat the other combinations, improving both distance
// to reference and run-to-run deviation.
func T5fStrategies() []*tables.Table {
	in := shop.GenerateFlowShop("t5f-fs", 20, 5, 509)
	prob := shopga.FlowShopProblem(in, shop.Makespan)
	ref := decode.Reference(in, shop.Makespan)
	t := &tables.Table{
		ID:      "T5f",
		Title:   "Cooperation strategies on a 20x5 flow shop (6 islands x 16, 5 seeds)",
		Columns: []string{"strategy", "mean RPD vs heuristic (%)", "std of best"},
	}
	crossovers := []core.Crossover[[]int]{op.OX, op.PMX, op.CX, op.LOX}
	run := func(seed uint64, shared, coop, diffOps bool) float64 {
		cfg := island.Config[[]int]{
			Islands: 6, SubPop: 16, Interval: 5, Epochs: 16, Migrants: 1,
			Topology:    island.Ring{},
			SharedStart: shared,
			Engine:      core.Config[[]int]{Ops: shopga.PermOps(), Elite: 1},
			Problem:     func(int) core.Problem[[]int] { return prob },
		}
		if !coop {
			cfg.Topology = island.None{}
		}
		if diffOps {
			cfg.PerIsland = func(i int, base core.Config[[]int]) core.Config[[]int] {
				base.Ops.Cross = crossovers[i%len(crossovers)]
				return base
			}
		}
		return island.New(rng.New(seed), cfg).Run().Best.Obj
	}
	type strat struct {
		name                 string
		shared, coop, diffOp bool
	}
	for _, s := range []strat{
		{"same start, independent", true, false, false},
		{"same start, cooperative", true, true, false},
		{"different start, independent", false, false, false},
		{"different start, cooperative", false, true, false},
		{"diff start + coop + diff operators", false, true, true},
	} {
		sum := summarizeRuns(5, func(seed uint64) float64 {
			return run(seed, s.shared, s.coop, s.diffOp)
		})
		t.AddRow(s.name, stats.RPD(sum.Mean, ref), sum.Std)
	}
	t.Note("paper claim (Bozejko [30]): different start + cooperation + different operators significantly best (~7%% distance, ~40%% deviation improvement)")
	return []*tables.Table{t}
}

// T5gMerge reproduces Spanos et al.'s merging scheme: islands that stagnate
// (population homogeneity) merge until one remains, attaining quality
// comparable to fixed islands.
func T5gMerge() []*tables.Table {
	in := shop.GenerateJobShop("t5g-js", 10, 5, 510, 511)
	prob := shopga.JobShopProblem(in, shop.Makespan)
	ops := shopga.SeqOps(in)
	t := &tables.Table{
		ID:      "T5g",
		Title:   "Fixed islands vs merge-on-stagnation (6 x 16, 3 seeds)",
		Columns: []string{"variant", "mean best", "min", "mean islands at end"},
	}
	run := func(seed uint64, merge bool) (float64, int) {
		cfg := island.Config[[]int]{
			Islands: 6, SubPop: 16, Interval: 5, Epochs: 20, Migrants: 1,
			Topology: island.Ring{},
			Engine:   core.Config[[]int]{Ops: ops, Elite: 1},
			Problem:  func(int) core.Problem[[]int] { return prob },
		}
		if merge {
			cfg.Merge = &island.MergeConfig[[]int]{
				Dist:      stats.HammingDistance,
				Threshold: in.TotalOps() / 5,
			}
		}
		res := island.New(rng.New(seed), cfg).Run()
		return res.Best.Obj, res.IslandsLeft
	}
	for _, merge := range []bool{false, true} {
		islandsLeft := 0
		sum := summarizeRuns(3, func(seed uint64) float64 {
			obj, left := run(seed, merge)
			islandsLeft += left
			return obj
		})
		name := "fixed 6 islands"
		if merge {
			name = "merge-on-stagnation"
		}
		t.AddRow(name, sum.Mean, sum.Min, float64(islandsLeft)/3)
	}
	t.Note("paper claim (Spanos [29]): merging attains performance comparable to recent approaches")
	return []*tables.Table{t}
}
