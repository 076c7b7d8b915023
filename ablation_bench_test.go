package repro

// Ablation benchmarks for the design choices DESIGN.md calls out: selection
// scheme cost, crossover families (plain vs LCS-aligned, the Huang
// rearrangement), update disciplines of the cellular model, sequential vs
// goroutine-parallel island stepping, and constructive heuristics versus
// random decodes.

import (
	"testing"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/island"
	"repro/internal/op"
	"repro/internal/rng"
	"repro/internal/shop"
	"repro/internal/shopga"
)

func BenchmarkAblationSelection(b *testing.B) {
	r := rng.New(11)
	pop := make([]core.Individual[int], 100)
	for i := range pop {
		pop[i] = core.Individual[int]{Genome: i, Fit: r.Float64()}
	}
	sels := map[string]core.Selection[int]{
		"roulette":     op.RouletteWheel[int](),
		"tournament-2": op.Tournament[int](2),
		"tournament-7": op.Tournament[int](7),
		"sus":          op.SUS[int](),
		"ranking":      op.Ranking[int](1.8),
	}
	for name, sel := range sels {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = sel(r, pop)
			}
		})
	}
}

func BenchmarkAblationLCSAlignment(b *testing.B) {
	r := rng.New(12)
	in := shop.GenerateJobShop("abl-lcs", 10, 10, 101, 102)
	sa := decode.RandomOpSequence(in, r)
	sb := decode.RandomOpSequence(in, r)
	plain := op.SeqOnePoint(10)
	aligned := op.LCSAlignedCrossover(plain)
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = plain(r, sa, sb)
		}
	})
	b.Run("lcs-aligned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = aligned(r, sa, sb)
		}
	})
}

func BenchmarkAblationCellularUpdate(b *testing.B) {
	in := shop.GenerateJobShop("abl-cell", 10, 5, 103, 104)
	prob := shopga.JobShopProblem(in, shop.Makespan)
	for name, upd := range map[string]cellular.Update{
		"synchronous": cellular.Synchronous,
		"line-sweep":  cellular.LineSweep,
	} {
		b.Run(name, func(b *testing.B) {
			m := cellular.New(prob, rng.New(5), cellular.Config[[]int]{
				Width: 12, Height: 12, Update: upd,
				Cross: op.JOX(len(in.Jobs)), Mutate: op.SwapMutation,
				ReplaceIfBetter: true, Generations: 1 << 30,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Step()
			}
		})
	}
}

func BenchmarkAblationIslandStepping(b *testing.B) {
	in := shop.GenerateJobShop("abl-isl", 10, 5, 105, 106)
	prob := shopga.JobShopProblem(in, shop.Makespan)
	for _, workers := range []int{1, 0} {
		name := "goroutines"
		if workers == 1 {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				island.New(rng.New(uint64(i)), island.Config[[]int]{
					Islands: 4, SubPop: 16, Interval: 5, Epochs: 2,
					Workers: workers,
					Engine:  core.Config[[]int]{Ops: shopga.SeqOps(in)},
					Problem: func(int) core.Problem[[]int] { return prob },
				}).Run()
			}
		})
	}
}

func BenchmarkAblationConstructive(b *testing.B) {
	in := shop.GenerateFlowShop("abl-neh", 20, 5, 107)
	r := rng.New(7)
	buf := make([]int, in.NumMachines)
	b.Run("random-decode", func(b *testing.B) {
		perm := decode.RandomPermutation(in, r)
		for i := 0; i < b.N; i++ {
			_ = decode.FlowShopMakespan(in, perm, buf)
		}
	})
	b.Run("neh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = decode.NEH(in)
		}
	})
	two := shop.GenerateFlowShop("abl-johnson", 20, 2, 108)
	b.Run("johnson", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = decode.Johnson(two)
		}
	})
}
