package exp

import (
	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/rng"
	"repro/internal/shop"
	"repro/internal/shopga"
	"repro/internal/tables"
)

// T1Feasibility regenerates Table I as an executable artifact: every
// decoder, across every machine environment, must produce schedules
// satisfying the feasibility conditions (validated by shop.Schedule's
// checker, which enforces conditions 1-3; 4-5 are modelling assumptions).
func T1Feasibility() []*tables.Table {
	const trials = 200
	t := &tables.Table{
		ID:      "T1",
		Title:   "Feasibility conditions: random genomes decoded and validated",
		Columns: []string{"environment", "decoder", "schedules", "violations"},
	}
	r := rng.New(1)
	check := func(env, dec string, build func() *shop.Schedule) {
		violations := 0
		for i := 0; i < trials; i++ {
			if err := build().Validate(); err != nil {
				violations++
			}
		}
		t.AddRow(env, dec, trials, violations)
	}

	fs := shop.GenerateFlowShop("t1-fs", 8, 5, 101)
	shop.WithReleases(fs, 20, 102)
	check("flow-shop", "permutation", func() *shop.Schedule {
		return decode.FlowShop(fs, decode.RandomPermutation(fs, r))
	})

	js := shop.GenerateJobShop("t1-js", 8, 5, 103, 104)
	check("job-shop", "op-sequence (semi-active)", func() *shop.Schedule {
		return decode.JobShop(js, decode.RandomOpSequence(js, r))
	})
	check("job-shop", "Giffler-Thompson (active)", func() *shop.Schedule {
		pri := make([]float64, js.TotalOps())
		for i := range pri {
			pri[i] = r.Float64()
		}
		return decode.GifflerThompson(js, pri)
	})
	check("job-shop", "indirect (dispatching rules)", func() *shop.Schedule {
		rules := make([]int, js.TotalOps())
		for i := range rules {
			rules[i] = r.Intn(int(decode.NumRules))
		}
		return decode.IndirectRules(js, rules)
	})

	os := shop.GenerateOpenShop("t1-os", 8, 5, 105)
	for _, rule := range []decode.OpenRule{decode.EarliestStart, decode.LPTTask, decode.LPTMachine} {
		rule := rule
		check("open-shop", rule.String(), func() *shop.Schedule {
			return decode.OpenShop(os, decode.RandomOpSequence(os, r), rule)
		})
	}

	fj := shop.GenerateFlexibleJobShop("t1-fj", 6, 5, 4, 3, 106)
	shop.WithSetupTimes(fj, 1, 6, 107)
	check("flexible-job-shop+SDST", "assignment+sequence", func() *shop.Schedule {
		return decode.Flexible(fj, decode.RandomAssignment(fj, r), decode.RandomOpSequence(fj, r), nil)
	})

	t.Note("conditions 1-3 of Table I are checked per schedule; conditions 4-5 are model assumptions")
	return []*tables.Table{t}
}

// T2SimpleGA regenerates Table II as a running baseline: the serial simple
// GA on ft06 (known optimum 55) and on a generated 20x5 flow shop, with its
// convergence series.
func T2SimpleGA() []*tables.Table {
	conv := &tables.Table{
		ID:      "T2",
		Title:   "Simple GA convergence on ft06 (GT priorities, pop 60)",
		Columns: []string{"generation", "best-so-far", "population mean"},
	}
	in := shop.FT06()
	marks := map[int]bool{1: true, 5: true, 10: true, 20: true, 40: true, 80: true, 120: true}
	eng := core.New(shopga.GTProblem(in, shop.Makespan), rng.New(7), core.Config[[]float64]{
		Pop: 60, Elite: 2, Ops: shopga.KeysOps(),
		Term: core.Termination{MaxGenerations: 120},
		OnGeneration: func(gs core.GenStats) {
			if marks[gs.Generation] {
				conv.AddRow(gs.Generation, gs.BestSoFar, gs.MeanObj)
			}
		},
	})
	res := eng.Run()
	conv.Note("ft06 proven optimum: %d; simple GA reached %.0f", shop.FT06Optimum, res.Best.Obj)

	final := &tables.Table{
		ID:      "T2",
		Title:   "Simple GA final quality vs dispatching heuristic",
		Columns: []string{"instance", "GA best", "heuristic ref", "optimum"},
	}
	final.AddRow("ft06 (6x6 job shop)", res.Best.Obj,
		decode.Reference(in, shop.Makespan), shop.FT06Optimum)

	fs := shop.GenerateFlowShop("t2-fs", 20, 5, 873654221)
	fres := summarizeRuns(3, func(seed uint64) float64 {
		return core.New(shopga.FlowShopMakespanProblem(fs), rng.New(seed), core.Config[[]int]{
			Pop: 60, Elite: 2, Ops: shopga.PermOps(),
			Term: core.Termination{MaxGenerations: 150},
		}).Run().Best.Obj
	})
	final.AddRow("20x5 flow shop (Taillard-style)", fres.Mean,
		decode.Reference(fs, shop.Makespan), "unknown")
	final.Note("flow shop row reports the mean best of 3 seeds")
	return []*tables.Table{conv, final}
}
