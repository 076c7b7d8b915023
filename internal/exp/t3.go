package exp

import (
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/shop"
	"repro/internal/shopga"
	"repro/internal/sim"
	"repro/internal/tables"
)

// evalCostShape mirrors the two fitness regimes the master-slave papers
// contrast: a cheap decode (flow shop recurrence) and an expensive one
// (stochastic sampling / topological evaluation on large graphs).
const (
	cheapCost     = 1.0
	expensiveCost = 25.0
	// dispatchCost is master time per task; c/4 of the expensive cost makes
	// the master the bottleneck at ~4 effective workers, the regime in
	// which Mui et al. observed 3-4x savings on 6 processors.
	dispatchCost = expensiveCost / 4
)

// T3aSpeedup reproduces the master-slave speedup-vs-workers shape: near-
// linear for expensive evaluation until the master's dispatch serialisation
// bounds it, and negligible for cheap evaluation (the survey: the model
// "performs well ... when fitness value calculation is complex").
func T3aSpeedup() []*tables.Table {
	const popSize = 100
	t := &tables.Table{
		ID:    "T3a",
		Title: "Virtual master-slave speedup per generation (population 100)",
		Columns: []string{"workers", "speedup (cheap eval)", "speedup (expensive eval)",
			"efficiency (expensive)"},
	}
	mkCosts := func(c float64) []float64 {
		costs := make([]float64, popSize)
		for i := range costs {
			costs[i] = c
		}
		return costs
	}
	for _, w := range []int{1, 2, 4, 6, 8, 16, 32} {
		cl := sim.Uniform(w, 1)
		cl.DispatchOverhead = dispatchCost
		cheap := sim.SerialSpan(mkCosts(cheapCost)) / cl.EvalSpan(mkCosts(cheapCost), 1)
		expensive := sim.SerialSpan(mkCosts(expensiveCost)) / cl.EvalSpan(mkCosts(expensiveCost), 1)
		t.AddRow(w, fmtRatio(cheap), fmtRatio(expensive), expensive/float64(w))
	}
	t.Note("paper claims: Mui et al. [17] save 3-4x with 6 processors; Somani et al. [16] ~9x on GPU for large problems")
	t.Note("dispatch overhead = cost/4 for expensive eval; cheap eval is dominated by dispatch, so slaves barely help")

	// Real-concurrency sanity check: the engine's sharded pipeline at
	// several worker counts on this host; on a single-core machine
	// wall-clock speedup is ~1 by construction (see DESIGN.md
	// substitutions).
	real := &tables.Table{
		ID:      "T3a",
		Title:   "Real goroutine workers on this host (wall clock, informative only)",
		Columns: []string{"workers", "wall time", "trajectory identical to 0 workers"},
	}
	in := shop.GenerateJobShop("t3-js", 10, 8, 201, 202)
	prob := shopga.JobShopProblem(in, shop.Makespan)
	run := func(workers int) (time.Duration, core.Result[[]int]) {
		start := time.Now()
		res := core.New(prob, rng.New(5), core.Config[[]int]{
			Pop: 60, Ops: shopga.SeqOps(in), Workers: workers,
			Term: core.Termination{MaxGenerations: 40},
		}).Run()
		return time.Since(start), res
	}
	_, base := run(0)
	for _, w := range []int{1, 2, 4} {
		d, res := run(w)
		same := res.Best.Obj == base.Best.Obj && res.Evaluations == base.Evaluations
		real.AddRow(w, d.Round(time.Millisecond).String(), same)
	}
	real.Note("identical trajectories confirm the survey's point: master-slave parallelism does not change the algorithm")
	return []*tables.Table{t, real}
}

// T3bExplored reproduces AitZai et al.'s fixed-budget comparison: within
// the same virtual 300 s, the GPU-shaped cluster explores an order of
// magnitude more solutions than the 2-worker CPU configuration (~15x in
// the paper).
func T3bExplored() []*tables.Table {
	t := &tables.Table{
		ID:      "T3b",
		Title:   "Solutions explored in a fixed virtual budget of 300 s (AitZai)",
		Columns: []string{"platform", "workers", "batch", "explored", "vs serial CPU"},
	}
	const budget = 300.0
	serial := sim.Uniform(1, 1)
	cpu := sim.Uniform(2, 1)
	cpu.DispatchOverhead = 0.05
	gpu := sim.GPULike(448, 0.10, 8)

	serialN := serial.ExploredInBudget(1, 1, budget)
	cpuN := cpu.ExploredInBudget(1, 1, budget)
	gpuN := gpu.ExploredInBudget(1, 256, budget)
	t.AddRow("serial CPU", 1, 1, serialN, fmtRatio(1))
	t.AddRow("CPU star network (2 Xeon)", 2, 1, cpuN, fmtRatio(float64(cpuN)/float64(serialN)))
	t.AddRow("GPU (Quadro-like, 448 cores)", 448, 256, gpuN, fmtRatio(float64(gpuN)/float64(serialN)))
	t.Note("paper claim: master-slave GA on GPU explored up to 15x more solutions than the CPU version in 300 s")
	t.Note("GPU vs 2-worker CPU ratio here: %.1fx", float64(gpuN)/float64(cpuN))
	return []*tables.Table{t}
}

// T3cBatching reproduces Akhshabi et al.'s batched master-slave on a
// heterogeneous distributed system: batching amortises the per-batch
// dispatch cost, and with enough aggregate slave speed the GA runs up to
// ~9x faster than serial.
func T3cBatching() []*tables.Table {
	t := &tables.Table{
		ID:      "T3c",
		Title:   "Batched dispatch to heterogeneous slaves (population 120, expensive eval)",
		Columns: []string{"batch size", "virtual speedup", "efficiency"},
	}
	// 12 slaves of varying capacity, aggregate speed ~9.6 (the paper's
	// distributed system whose available resources vary over time).
	speeds := []float64{1.2, 1.0, 1.0, 0.9, 0.8, 0.8, 0.7, 0.7, 0.6, 0.6, 0.7, 0.6}
	cl := sim.Hetero(speeds)
	cl.BatchOverhead = 5
	costs := make([]float64, 120)
	for i := range costs {
		costs[i] = expensiveCost
	}
	serial := sim.SerialSpan(costs)
	for _, batch := range []int{1, 2, 5, 10, 20, 40} {
		sp := serial / cl.EvalSpan(costs, batch)
		t.AddRow(batch, fmtRatio(sp), sp/cl.TotalSpeed())
	}
	t.Note("paper claim: up to 9x faster than the serial GA (Lingo 8 baseline)")
	t.Note("aggregate slave speed %.1f bounds the achievable speedup", cl.TotalSpeed())
	return []*tables.Table{t}
}
