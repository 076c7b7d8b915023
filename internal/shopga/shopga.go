// Package shopga bridges the shop scheduling substrate to the GA engine:
// it wraps each machine environment and chromosome representation from the
// survey as a core.Problem, and bundles sensible default operators for each
// genome family. Experiments and examples compose these problems with any
// of the parallel models.
package shopga

import (
	"reflect"
	"sync"

	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/op"
	"repro/internal/rng"
	"repro/internal/shop"
)

func cloneInts(g []int) []int { return append([]int(nil), g...) }

// cloneIntsInto recycles dst's capacity for a copy of src (the engine's
// CloneInto seam).
func cloneIntsInto(dst, src []int) []int { return append(dst[:0], src...) }

func cloneKeys(g []float64) []float64 { return append([]float64(nil), g...) }

func cloneKeysInto(dst, src []float64) []float64 { return append(dst[:0], src...) }

// makespanPtr identifies shop.Makespan by function pointer, so every
// constructor can route the common C_max objective onto the zero-allocation
// kernels while arbitrary objectives keep the schedule-reusing decoders.
var makespanPtr = reflect.ValueOf(shop.Makespan).Pointer()

func isMakespan(obj shop.Objective) bool {
	return reflect.ValueOf(obj).Pointer() == makespanPtr
}

// pooledEval wraps a scratch-parameterised evaluation into the shared
// EvaluateFn of every Problem below: each call round-trips a decode
// workspace pre-sized for the instance through a sync.Pool, which keeps it
// safe for concurrent callers (cellular partitions, hybrid grids,
// migration) while the steady state stays allocation-free. The engine's
// generations go through the per-executor BatchEvalFn closures instead.
func pooledEval[G any](in *shop.Instance, evalWith func(G, *decode.Scratch) float64) func(G) float64 {
	pool := &sync.Pool{New: func() interface{} { return decode.NewScratch(in) }}
	return func(g G) float64 {
		s := pool.Get().(*decode.Scratch)
		v := evalWith(g, s)
		pool.Put(s)
		return v
	}
}

// batchEval builds the BatchEvalFn factory of the problems below: each
// closure owns a private decode.BatchScratch — the lockstep workspace of the
// batch evaluation rung — and hands it to the kind-specific batch body.
func batchEval[G any](in *shop.Instance, with func([]G, []float64, *decode.BatchScratch)) func() func([]G, []float64) {
	return func() func([]G, []float64) {
		b := decode.NewBatchScratch(in)
		return func(genomes []G, out []float64) { with(genomes, out, b) }
	}
}

// scalarBatch adapts a per-genome evaluation into a batch body for
// objectives with no lockstep kernel: the closure's private scalar scratch
// decodes genome by genome, so the batch seam stays uniform while values
// remain those of the schedule-reusing decoders.
func scalarBatch[G any](evalWith func(G, *decode.Scratch) float64) func([]G, []float64, *decode.BatchScratch) {
	return func(genomes []G, out []float64, b *decode.BatchScratch) {
		s := b.Scalar()
		for i, g := range genomes {
			out[i] = evalWith(g, s)
		}
	}
}

// growViews resizes a reusable slice-of-views buffer without reallocating
// once it has seen the largest batch.
func growViews(buf [][]int, n int) [][]int {
	if cap(buf) < n {
		return make([][]int, n)
	}
	return buf[:n]
}

// FlowShopProblem is the permutation-encoded flow shop under an arbitrary
// objective. Makespan routes to the completion-row kernel; other objectives
// decode into a pooled, reused schedule.
func FlowShopProblem(in *shop.Instance, obj shop.Objective) core.Problem[[]int] {
	evalWith := func(g []int, s *decode.Scratch) float64 {
		return obj(decode.FlowShopInto(in, g, s))
	}
	batch := scalarBatch(evalWith)
	if isMakespan(obj) {
		evalWith = func(g []int, s *decode.Scratch) float64 {
			return float64(decode.FlowShopMakespanWith(in, g, s))
		}
		batch = func(gs [][]int, out []float64, b *decode.BatchScratch) {
			b.FlowShopMakespans(gs, out)
		}
	}
	eval := pooledEval(in, evalWith)
	return core.FuncProblem[[]int]{
		RandomFn:    func(r *rng.RNG) []int { return decode.RandomPermutation(in, r) },
		EvaluateFn:  eval,
		CloneFn:     cloneInts,
		CloneIntoFn: cloneIntsInto,
		BatchEvalFn: batchEval(in, batch),
	}
}

// JobShopProblem is the operation-sequence-encoded job shop (the direct
// representation of Section III.A) under an arbitrary objective. Makespan
// routes to the allocation-free semi-active kernel.
func JobShopProblem(in *shop.Instance, obj shop.Objective) core.Problem[[]int] {
	evalWith := func(g []int, s *decode.Scratch) float64 {
		return obj(decode.JobShopInto(in, g, s))
	}
	batch := scalarBatch(evalWith)
	if isMakespan(obj) {
		evalWith = func(g []int, s *decode.Scratch) float64 {
			return float64(decode.JobShopMakespan(in, g, s))
		}
		batch = func(gs [][]int, out []float64, b *decode.BatchScratch) {
			b.JobShopMakespans(gs, out)
		}
	}
	eval := pooledEval(in, evalWith)
	return core.FuncProblem[[]int]{
		RandomFn:    func(r *rng.RNG) []int { return decode.RandomOpSequence(in, r) },
		EvaluateFn:  eval,
		CloneFn:     cloneInts,
		CloneIntoFn: cloneIntsInto,
		BatchEvalFn: batchEval(in, batch),
	}
}

// OpenShopProblem is the open shop with the given decoding rule. Makespan
// routes to the allocation-free greedy kernel.
func OpenShopProblem(in *shop.Instance, rule decode.OpenRule, obj shop.Objective) core.Problem[[]int] {
	evalWith := func(g []int, s *decode.Scratch) float64 {
		return obj(decode.OpenShopInto(in, g, rule, s))
	}
	batch := scalarBatch(evalWith)
	if isMakespan(obj) {
		evalWith = func(g []int, s *decode.Scratch) float64 {
			return float64(decode.OpenShopMakespan(in, g, rule, s))
		}
		batch = func(gs [][]int, out []float64, b *decode.BatchScratch) {
			b.OpenShopMakespans(gs, rule, out)
		}
	}
	eval := pooledEval(in, evalWith)
	return core.FuncProblem[[]int]{
		RandomFn:    func(r *rng.RNG) []int { return decode.RandomOpSequence(in, r) },
		EvaluateFn:  eval,
		CloneFn:     cloneInts,
		CloneIntoFn: cloneIntsInto,
		BatchEvalFn: batchEval(in, batch),
	}
}

// GTProblem encodes job shop schedules as priority vectors decoded by the
// Giffler-Thompson active schedule builder (Mui et al. [17]). Makespan
// routes to the allocation-free active-schedule kernel.
func GTProblem(in *shop.Instance, obj shop.Objective) core.Problem[[]float64] {
	total := in.TotalOps()
	evalWith := func(g []float64, s *decode.Scratch) float64 {
		return obj(decode.GifflerThompsonInto(in, g, s))
	}
	batch := scalarBatch(evalWith)
	if isMakespan(obj) {
		evalWith = func(g []float64, s *decode.Scratch) float64 {
			return float64(decode.GifflerThompsonMakespan(in, g, s))
		}
		batch = func(gs [][]float64, out []float64, b *decode.BatchScratch) {
			b.GifflerThompsonMakespans(gs, out)
		}
	}
	eval := pooledEval(in, evalWith)
	return core.FuncProblem[[]float64]{
		RandomFn: func(r *rng.RNG) []float64 {
			g := make([]float64, total)
			for i := range g {
				g[i] = r.Float64()
			}
			return g
		},
		EvaluateFn:  eval,
		CloneFn:     cloneKeys,
		CloneIntoFn: cloneKeysInto,
		BatchEvalFn: batchEval(in, batch),
	}
}

// FlexGenome is the two-chromosome genome of flexible shops (Belkadi et
// al. [37]): a machine assignment per operation plus an operation sequence.
type FlexGenome struct {
	Assign []int
	Seq    []int
}

// CloneFlex deep-copies a FlexGenome.
func CloneFlex(g FlexGenome) FlexGenome {
	return FlexGenome{Assign: cloneInts(g.Assign), Seq: cloneInts(g.Seq)}
}

// CloneFlexInto deep-copies src reusing dst's chromosome capacity.
func CloneFlexInto(dst, src FlexGenome) FlexGenome {
	return FlexGenome{
		Assign: cloneIntsInto(dst.Assign, src.Assign),
		Seq:    cloneIntsInto(dst.Seq, src.Seq),
	}
}

// FlexibleProblem is the flexible job/flow shop with assignment+sequence
// genomes, honouring sequence-dependent setups when the instance has them.
// Makespan routes to the allocation-free flexible kernel.
func FlexibleProblem(in *shop.Instance, obj shop.Objective) core.Problem[FlexGenome] {
	evalWith := func(g FlexGenome, s *decode.Scratch) float64 {
		return obj(decode.FlexibleInto(in, g.Assign, g.Seq, nil, s))
	}
	batchFn := batchEval(in, scalarBatch(evalWith))
	if isMakespan(obj) {
		evalWith = func(g FlexGenome, s *decode.Scratch) float64 {
			return float64(decode.FlexibleMakespan(in, g.Assign, g.Seq, nil, s))
		}
		// The two-chromosome genome is split into view buffers that live in
		// the closure (never shared across workers) so the batch entry point
		// stays allocation-free once it has seen the largest batch.
		batchFn = func() func([]FlexGenome, []float64) {
			b := decode.NewBatchScratch(in)
			var assigns, seqs [][]int
			return func(gs []FlexGenome, out []float64) {
				assigns = growViews(assigns, len(gs))
				seqs = growViews(seqs, len(gs))
				for i, g := range gs {
					assigns[i], seqs[i] = g.Assign, g.Seq
				}
				b.FlexibleMakespans(assigns, seqs, nil, out)
			}
		}
	}
	eval := pooledEval(in, evalWith)
	return core.FuncProblem[FlexGenome]{
		RandomFn: func(r *rng.RNG) FlexGenome {
			return FlexGenome{
				Assign: decode.RandomAssignment(in, r),
				Seq:    decode.RandomOpSequence(in, r),
			}
		},
		EvaluateFn:  eval,
		CloneFn:     CloneFlex,
		CloneIntoFn: CloneFlexInto,
		BatchEvalFn: batchFn,
	}
}

// FixedAssignmentProblem is the sequence-only search over a flexible shop
// with a frozen machine assignment (the solver's greedy-assignment
// encoding). Makespan routes to the allocation-free flexible kernel.
func FixedAssignmentProblem(in *shop.Instance, assign []int, obj shop.Objective) core.Problem[[]int] {
	evalWith := func(g []int, s *decode.Scratch) float64 {
		return obj(decode.FlexibleInto(in, assign, g, nil, s))
	}
	batchFn := batchEval(in, scalarBatch(evalWith))
	if isMakespan(obj) {
		evalWith = func(g []int, s *decode.Scratch) float64 {
			return float64(decode.FlexibleMakespan(in, assign, g, nil, s))
		}
		batchFn = func() func([][]int, []float64) {
			b := decode.NewBatchScratch(in)
			var assigns [][]int
			return func(gs [][]int, out []float64) {
				assigns = growViews(assigns, len(gs))
				for i := range assigns {
					assigns[i] = assign
				}
				b.FlexibleMakespans(assigns, gs, nil, out)
			}
		}
	}
	eval := pooledEval(in, evalWith)
	return core.FuncProblem[[]int]{
		RandomFn:    func(r *rng.RNG) []int { return decode.RandomOpSequence(in, r) },
		EvaluateFn:  eval,
		CloneFn:     cloneInts,
		CloneIntoFn: cloneIntsInto,
		BatchEvalFn: batchFn,
	}
}

// EligibleCounts returns limits[i] = number of eligible machines of
// flattened operation i (the ResetWithin mutation bound).
func EligibleCounts(in *shop.Instance) []int {
	limits := make([]int, 0, in.TotalOps())
	for _, job := range in.Jobs {
		for _, o := range job.Ops {
			limits = append(limits, len(o.Machines))
		}
	}
	return limits
}

// PermOps bundles tournament selection, order crossover and swap mutation
// for permutation genomes (flow shop defaults). The CrossInto factory is
// the recycling OX of the sharded pipeline.
func PermOps() core.Operators[[]int] {
	return core.Operators[[]int]{
		Select:    op.Tournament[[]int](2),
		Cross:     op.OX,
		Mutate:    op.SwapMutation,
		CrossInto: op.OXInto(),
	}
}

// SeqOps bundles tournament selection, job-order crossover and swap
// mutation for operation-sequence genomes (job/open shop defaults).
func SeqOps(in *shop.Instance) core.Operators[[]int] {
	return core.Operators[[]int]{
		Select:    op.Tournament[[]int](2),
		Cross:     op.JOX(len(in.Jobs)),
		Mutate:    op.SwapMutation,
		CrossInto: op.JOXInto(len(in.Jobs)),
	}
}

// KeysOps bundles tournament selection, parameterized uniform crossover and
// Gaussian mutation for random-keys genomes (GT priorities, Huang [24]).
func KeysOps() core.Operators[[]float64] {
	return core.Operators[[]float64]{
		Select:    op.Tournament[[]float64](2),
		Cross:     op.ParameterizedUniformKeys(0.7),
		Mutate:    op.GaussianKeys(0.3, 0.1),
		CrossInto: op.UniformKeysInto(0.7),
	}
}

// FlexOps bundles operators acting on both chromosomes of a FlexGenome:
// uniform crossover on assignments + job-order crossover on sequences, and
// a mutation that flips a coin between machine reassignment and a sequence
// swap (the structure of Belkadi et al.'s operators).
func FlexOps(in *shop.Instance) core.Operators[FlexGenome] {
	limits := EligibleCounts(in)
	reset := op.ResetWithin(limits)
	seqCross := op.JOX(len(in.Jobs))
	return core.Operators[FlexGenome]{
		Select: op.Tournament[FlexGenome](2),
		Cross: func(r *rng.RNG, a, b FlexGenome) (FlexGenome, FlexGenome) {
			a1, a2 := op.UniformInt(r, a.Assign, b.Assign)
			s1, s2 := seqCross(r, a.Seq, b.Seq)
			return FlexGenome{Assign: a1, Seq: s1}, FlexGenome{Assign: a2, Seq: s2}
		},
		Mutate: func(r *rng.RNG, g FlexGenome) {
			if r.Bool(0.5) {
				reset(r, g.Assign)
			} else {
				op.SwapMutation(r, g.Seq)
			}
		},
		// Recycling composition in the same draw order as Cross: assignment
		// chromosome first, sequence chromosome second.
		CrossInto: func() core.CrossoverInto[FlexGenome] {
			assignInto := op.UniformIntInto()()
			seqInto := op.JOXInto(len(in.Jobs))()
			return func(r *rng.RNG, a, b, d1, d2 FlexGenome) (FlexGenome, FlexGenome) {
				a1, a2 := assignInto(r, a.Assign, b.Assign, d1.Assign, d2.Assign)
				s1, s2 := seqInto(r, a.Seq, b.Seq, d1.Seq, d2.Seq)
				return FlexGenome{Assign: a1, Seq: s1}, FlexGenome{Assign: a2, Seq: s2}
			}
		},
	}
}

// SeqView exposes an operation sequence for diversity statistics.
func SeqView(g []int) []int { return g }
