package repro

// One benchmark per table / figure-equivalent of the survey reproduction
// (exp.All lists them), plus decoder and operator kernels.
// Wall-clock speedups are not expected on a single-core host — the bench
// suite times the kernels; the virtual-cluster experiments in internal/exp
// regenerate the published speedup shapes.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/fuzzy"
	"repro/internal/hybrid"
	"repro/internal/island"
	"repro/internal/op"
	"repro/internal/qga"
	"repro/internal/rng"
	"repro/internal/shop"
	"repro/internal/shopga"
	"repro/internal/solver"
)

// BenchmarkTableII_SimpleGA times one serial generation of the Table II
// loop on ft06 with Giffler-Thompson decoding.
func BenchmarkTableII_SimpleGA(b *testing.B) {
	in := shop.FT06()
	eng := core.New(shopga.GTProblem(in, shop.Makespan), rng.New(1), core.Config[[]float64]{
		Pop: 60, Ops: shopga.KeysOps(),
		Term: core.Termination{MaxGenerations: 1 << 30},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkTableIII_MasterSlave times one generation of a 256-individual
// population at several worker counts (Table III's
// Parallel_FitnessValueEvaluation, grown into the engine's sharded
// pipeline: the workers run variation and evaluation per shard).
func BenchmarkTableIII_MasterSlave(b *testing.B) {
	in := shop.GenerateJobShop("bench-js", 15, 10, 901, 902)
	prob := shopga.JobShopProblem(in, shop.Makespan)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng := core.New(prob, rng.New(2), core.Config[[]int]{
				Pop: 256, Ops: shopga.SeqOps(in), Workers: w,
				Term: core.Termination{MaxGenerations: 1 << 30},
			})
			defer eng.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
	}
}

// BenchmarkTableIV_Cellular times one synchronous fine-grained generation
// of a 16x16 torus at several partition counts.
func BenchmarkTableIV_Cellular(b *testing.B) {
	in := shop.GenerateJobShop("bench-cell", 10, 5, 903, 904)
	prob := shopga.JobShopProblem(in, shop.Makespan)
	for _, parts := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			m := cellular.New(prob, rng.New(3), cellular.Config[[]int]{
				Width: 16, Height: 16,
				Cross: op.JOX(len(in.Jobs)), Mutate: op.SwapMutation,
				ReplaceIfBetter: true, Partitions: parts,
				Generations: 1 << 30,
			})
			defer m.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Step()
			}
		})
	}
}

// BenchmarkTableV_Island times one migration epoch (5 generations + ring
// exchange) at several island counts.
func BenchmarkTableV_Island(b *testing.B) {
	in := shop.GenerateJobShop("bench-isl", 10, 5, 905, 906)
	prob := shopga.JobShopProblem(in, shop.Makespan)
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("islands=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				island.New(rng.New(uint64(i)), island.Config[[]int]{
					Islands: n, SubPop: 64 / n, Interval: 5, Epochs: 1,
					Topology: island.Ring{},
					Engine:   core.Config[[]int]{Ops: shopga.SeqOps(in)},
					Problem:  func(int) core.Problem[[]int] { return prob },
				}).Run()
			}
		})
	}
}

// BenchmarkHybridRingOfTorus times one epoch of Lin's best-performing
// hybrid (4 tori of 5x5, 10 cellular generations per epoch).
func BenchmarkHybridRingOfTorus(b *testing.B) {
	in := shop.GenerateJobShop("bench-hyb", 10, 5, 907, 908)
	prob := shopga.JobShopProblem(in, shop.Makespan)
	for i := 0; i < b.N; i++ {
		hybrid.NewRingOfTorus(prob, rng.New(uint64(i)), hybrid.RingOfTorusConfig[[]int]{
			Grids: 4, Interval: 10, Epochs: 1,
			Grid: cellular.Config[[]int]{
				Width: 5, Height: 5,
				Cross: op.JOX(len(in.Jobs)), Mutate: op.SwapMutation,
				ReplaceIfBetter: true,
			},
		}).Run()
	}
}

// BenchmarkFuzzyFlowShop times Huang's fuzzy objective: the TFN recurrence
// plus agreement indices for a 30x5 instance.
func BenchmarkFuzzyFlowShop(b *testing.B) {
	f := fuzzy.Generate(30, 5, 0.15, 1.25, 909)
	perm := fuzzy.PermFromKeys(make([]float64, 30))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Objective(perm)
	}
}

// BenchmarkQGA times one quantum GA generation on the stochastic JSSP
// (every evaluation decodes all scenarios — the expensive fitness).
func BenchmarkQGA(b *testing.B) {
	st := qga.NewStochastic(shop.FT06(), 6, 0.12, 910)
	q := qga.NewQGA(st, rng.New(4), qga.Config{Pop: 16, Generations: 1 << 30})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Step()
	}
}

// BenchmarkSolverPool times the batch-serving path: 12 heterogeneous
// instances (mixed kinds and models) solved concurrently through the
// unified solver layer at several pool widths.
func BenchmarkSolverPool(b *testing.B) {
	kinds := []string{"job", "flow", "open", "fjs"}
	models := []string{"serial", "ms", "island", "cellular"}
	specs := make([]solver.Spec, 12)
	for i := range specs {
		specs[i] = solver.Spec{
			Problem: solver.ProblemSpec{
				Kind: kinds[i%len(kinds)], Jobs: 8, Machines: 4, Seed: int64(920 + i),
			},
			Model:  models[i%len(models)],
			Params: solver.Params{Pop: 32},
			Budget: solver.Budget{Generations: 30},
		}
	}
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			pool := &solver.Pool{Workers: w, BaseSeed: 42}
			for i := 0; i < b.N; i++ {
				items := pool.Solve(context.Background(), specs)
				for _, it := range items {
					if it.Err != nil {
						b.Fatal(it.Err)
					}
				}
			}
		})
	}
}

// Decoder kernels: the fitness evaluation inner loops of every
// environment.
func BenchmarkDecode(b *testing.B) {
	r := rng.New(5)

	fs := shop.GenerateFlowShop("bench-fs", 20, 5, 911)
	perm := decode.RandomPermutation(fs, r)
	buf := make([]int, fs.NumMachines)
	b.Run("flowshop-20x5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = decode.FlowShopMakespan(fs, perm, buf)
		}
	})

	js := shop.GenerateJobShop("bench-js2", 15, 10, 912, 913)
	seq := decode.RandomOpSequence(js, r)
	b.Run("jobshop-15x10-semiactive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = decode.JobShop(js, seq)
		}
	})
	pri := make([]float64, js.TotalOps())
	for i := range pri {
		pri[i] = r.Float64()
	}
	b.Run("jobshop-15x10-giffler-thompson", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = decode.GifflerThompson(js, pri)
		}
	})

	os := shop.GenerateOpenShop("bench-os", 10, 10, 914)
	oseq := decode.RandomOpSequence(os, r)
	b.Run("openshop-10x10-earliest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = decode.OpenShop(os, oseq, decode.EarliestStart)
		}
	})

	fj := shop.GenerateFlexibleJobShop("bench-fj", 10, 8, 5, 3, 915)
	shop.WithSetupTimes(fj, 1, 9, 916)
	assign := decode.RandomAssignment(fj, r)
	fseq := decode.RandomOpSequence(fj, r)
	b.Run("flexible-10x8-sdst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = decode.Flexible(fj, assign, fseq, nil)
		}
	})
}

// Operator kernels.
func BenchmarkOperators(b *testing.B) {
	r := rng.New(6)
	pa, pb := r.Perm(100), r.Perm(100)
	b.Run("PMX-100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = op.PMX(r, pa, pb)
		}
	})
	b.Run("OX-100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = op.OX(r, pa, pb)
		}
	})
	b.Run("CX-100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = op.CX(r, pa, pb)
		}
	})
	in := shop.GenerateJobShop("bench-ops", 10, 10, 917, 918)
	sa := decode.RandomOpSequence(in, r)
	sb := decode.RandomOpSequence(in, r)
	jox := op.JOX(10)
	b.Run("JOX-100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = jox(r, sa, sb)
		}
	})
}
