// Package decode turns GA genomes into feasible schedules for every machine
// environment in the shop package. These are the chromosome decodings the
// survey describes in Section III.A:
//
//   - flow shop: a permutation of jobs, decoded by the classic completion-
//     time recurrence (FlowShop / FlowShopMakespan);
//   - job shop, direct encoding: a permutation with repetition of job
//     indices ("operation-based representation", Park et al. [26]), decoded
//     semi-actively (JobShop) or through the Giffler-Thompson active
//     schedule builder (GifflerThompson, used by Mui et al. [17]);
//   - open shop: permutation with repetition decoded greedily with the
//     LPT-Task / LPT-Machine heuristics of Kokosiński & Studzienny [32];
//   - flexible shops: machine-assignment vector + operation sequence with
//     sequence-dependent setups (Defersha & Chen [36]) and optional machine
//     speed levels for energy-aware objectives;
//   - lot streaming: ExpandSublots rewrites an instance so each sublot is an
//     independent job (Defersha & Chen [35]).
package decode

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/shop"
)

// OpOffsets returns, for each job, the index of its first operation in the
// flattened operation numbering used by priority vectors and assignments.
func OpOffsets(in *shop.Instance) []int {
	off := make([]int, len(in.Jobs)+1)
	for j, job := range in.Jobs {
		off[j+1] = off[j] + len(job.Ops)
	}
	return off
}

// RandomOpSequence returns a uniformly random permutation-with-repetition of
// job indices: job j appears exactly len(in.Jobs[j].Ops) times. This is the
// operation-based representation for job shop chromosomes.
func RandomOpSequence(in *shop.Instance, r *rng.RNG) []int {
	seq := make([]int, 0, in.TotalOps())
	for j, job := range in.Jobs {
		for range job.Ops {
			seq = append(seq, j)
		}
	}
	r.Shuffle(len(seq), func(i, k int) { seq[i], seq[k] = seq[k], seq[i] })
	return seq
}

// RandomPermutation returns a random job permutation (flow shop genome).
func RandomPermutation(in *shop.Instance, r *rng.RNG) []int {
	return r.Perm(len(in.Jobs))
}

// RandomAssignment returns a random machine-assignment vector for flexible
// instances: one eligible-machine index per flattened operation.
func RandomAssignment(in *shop.Instance, r *rng.RNG) []int {
	assign := make([]int, 0, in.TotalOps())
	for _, job := range in.Jobs {
		for _, op := range job.Ops {
			assign = append(assign, r.Intn(len(op.Machines)))
		}
	}
	return assign
}

// GreedyAssignment returns the assignment choosing the fastest eligible
// machine for every operation (a common initialisation heuristic).
func GreedyAssignment(in *shop.Instance) []int {
	assign := make([]int, 0, in.TotalOps())
	for _, job := range in.Jobs {
		for _, op := range job.Ops {
			best := 0
			for i, t := range op.Times {
				if t < op.Times[best] {
					best = i
				}
			}
			assign = append(assign, best)
		}
	}
	return assign
}

// CountOpSequence verifies that seq is a valid permutation with repetition
// for in (job j appears exactly len(Ops) times) and returns an error naming
// the first violation.
func CountOpSequence(in *shop.Instance, seq []int) error {
	counts := make([]int, len(in.Jobs))
	for i, j := range seq {
		if j < 0 || j >= len(in.Jobs) {
			return fmt.Errorf("decode: token %d references job %d", i, j)
		}
		counts[j]++
	}
	for j, c := range counts {
		if want := len(in.Jobs[j].Ops); c != want {
			return fmt.Errorf("decode: job %d appears %d times, want %d", j, c, want)
		}
	}
	return nil
}

// RepairOpSequence rewrites an arbitrary integer slice into a valid
// permutation with repetition for in, preserving as much of the original
// token order as possible: tokens beyond a job's quota are reassigned to
// jobs still missing tokens, scanning left to right. It is the repair step
// the survey mentions after crossovers that break feasibility.
func RepairOpSequence(in *shop.Instance, seq []int) []int {
	want := in.OpsPerJob()
	total := in.TotalOps()
	out := make([]int, 0, total)
	have := make([]int, len(want))
	for _, j := range seq {
		if j >= 0 && j < len(want) && have[j] < want[j] {
			out = append(out, j)
			have[j]++
		}
	}
	// Fill shortfalls in job order.
	for j := range want {
		for have[j] < want[j] {
			out = append(out, j)
			have[j]++
		}
	}
	return out[:total]
}

// Any decodes a genome appropriate for the instance kind with the default
// decoder of that environment: a job permutation for flow shops, an
// operation sequence for job shops, an operation sequence with the
// earliest-start rule for open shops, and an operation sequence with the
// greedy fastest-machine assignment for flexible shops. It is the generic
// entry point used by the experiment harness and reference heuristics.
func Any(in *shop.Instance, seq []int) *shop.Schedule {
	switch in.Kind {
	case shop.FlowShop:
		return FlowShop(in, seq)
	case shop.JobShop:
		return JobShop(in, seq)
	case shop.OpenShop:
		return OpenShop(in, seq, EarliestStart)
	case shop.FlexibleFlowShop, shop.FlexibleJobShop:
		return Flexible(in, GreedyAssignment(in), seq, nil)
	default:
		panic("decode: unknown instance kind " + in.Kind.String())
	}
}
