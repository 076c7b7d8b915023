// Package core implements the simple genetic algorithm of the survey's
// Table II as a generic, deterministic engine that the three parallel
// models (master-slave, fine-grained, island) build on:
//
//	1: initialize();
//	2: while (termination criteria are not satisfied) do
//	3:   Generation++
//	4:   Selection();
//	5:   Crossover();
//	6:   Mutation();
//	7:   FitnessValueEvaluation();
//	8: end while
//
// The engine is generic over the genome type G. A Problem[G] supplies
// random initialisation, objective evaluation (minimised, one genome or a
// batch), and cloning (fresh or into recycled storage).
// Fitness transforms implement the paper's equations (1) and (2). Every
// generation runs through one sharded pipeline whose executor count
// (Config.Workers) parallelises steps 4-7 without touching the algorithm:
// results are bit-identical for any worker count, which is exactly the
// survey's point about the master-slave model.
package core

import (
	"math"

	"repro/internal/rng"
)

// Individual couples a genome with its objective value (minimised) and its
// transformed fitness (maximised by selection).
type Individual[G any] struct {
	Genome G
	Obj    float64
	Fit    float64
}

// Problem defines the search problem for genomes of type G.
type Problem[G any] interface {
	// Random returns a new random genome.
	Random(r *rng.RNG) G
	// Evaluate returns the objective value of g; smaller is better.
	// Implementations must be pure and safe for concurrent use: migration
	// (MakeIndividual), the cellular partitions and the hybrid grids call
	// it from several goroutines.
	Evaluate(g G) float64
	// Clone returns an independent deep copy of g.
	Clone(g G) G
	// CloneInto returns a deep copy of src that may reuse dst's storage
	// capacity. The engine feeds dead genomes from retired generations
	// back as dst, so steady-state genome copies stop allocating. The
	// result must be independent of src (mutating it must not affect src),
	// and dst may be the zero value of G.
	CloneInto(dst, src G) G
	// BatchEvaluator returns a closure that fills out[i] with the
	// objective of genomes[i] for a whole contiguous span in one call. The
	// closure may own private scratch (a decode.BatchScratch, say) and is
	// only safe on one goroutine at a time; the engine builds one per
	// executor. Seeing the whole span lets implementations amortise
	// instance tables and decode genomes in lockstep. Closures must compute
	// exactly what Evaluate computes, genome for genome.
	BatchEvaluator() func(genomes []G, out []float64)
}

// FuncProblem adapts closures to the Problem interface. The recycling and
// batch closures are optional; without them the seams fall back to Clone
// and to a loop over Evaluate.
type FuncProblem[G any] struct {
	RandomFn   func(r *rng.RNG) G
	EvaluateFn func(g G) float64
	CloneFn    func(g G) G
	// CloneIntoFn, when set, copies src reusing dst's capacity; when nil,
	// CloneInto falls back to a plain Clone.
	CloneIntoFn func(dst, src G) G
	// BatchEvalFn, when set, builds a single-goroutine span-evaluation
	// closure; when nil, BatchEvaluator falls back to looping EvaluateFn,
	// so the seam always yields the same values.
	BatchEvalFn func() func(genomes []G, out []float64)
}

// Random implements Problem.
func (p FuncProblem[G]) Random(r *rng.RNG) G { return p.RandomFn(r) }

// Evaluate implements Problem.
func (p FuncProblem[G]) Evaluate(g G) float64 { return p.EvaluateFn(g) }

// Clone implements Problem.
func (p FuncProblem[G]) Clone(g G) G { return p.CloneFn(g) }

// CloneInto implements Problem, falling back to Clone when no CloneIntoFn
// was provided.
func (p FuncProblem[G]) CloneInto(dst, src G) G {
	if p.CloneIntoFn == nil {
		return p.CloneFn(src)
	}
	return p.CloneIntoFn(dst, src)
}

// BatchEvaluator implements Problem, falling back to a loop over
// EvaluateFn when no BatchEvalFn was provided.
func (p FuncProblem[G]) BatchEvaluator() func(genomes []G, out []float64) {
	if p.BatchEvalFn != nil {
		return p.BatchEvalFn()
	}
	return func(genomes []G, out []float64) {
		for i, g := range genomes {
			out[i] = p.EvaluateFn(g)
		}
	}
}

// Fitness maps an objective value (minimised) to a fitness value
// (maximised). Both transforms from the survey's Section III.A are provided.
type Fitness func(obj float64) float64

// HeuristicFitness is the paper's equation (1): FIT(i) = max(Fbar - F_i, 0),
// where Fbar is the objective value of some heuristic solution.
func HeuristicFitness(fbar float64) Fitness {
	return func(obj float64) float64 {
		if f := fbar - obj; f > 0 {
			return f
		}
		return 0
	}
}

// InverseFitness is the paper's equation (2): FIT(i) = 1 / F_i, defined for
// the strictly positive objective values shop scheduling produces. Zero
// objectives map to a large finite fitness to keep roulette wheels sane.
func InverseFitness() Fitness {
	return func(obj float64) float64 {
		if obj <= 0 {
			return math.MaxFloat64 / 1e6
		}
		return 1 / obj
	}
}

// Selection picks the index of one parent from the population. Higher Fit
// must be favoured; implementations draw randomness only from r.
type Selection[G any] func(r *rng.RNG, pop []Individual[G]) int

// Crossover produces two children from two parents. Implementations must
// not modify the parents and must return freshly allocated genomes.
type Crossover[G any] func(r *rng.RNG, a, b G) (G, G)

// CrossoverInto is the recycling form of Crossover: children are written
// reusing dst1/dst2's storage capacity (either may be the zero value of G,
// in which case fresh storage is allocated). dst1/dst2 must not alias the
// parents; the engine feeds it dead genomes from retired generations, which
// can never alias the live population. Implementations must draw exactly
// the same randomness as their plain Crossover counterpart, so swapping one
// in never changes a trajectory.
type CrossoverInto[G any] func(r *rng.RNG, a, b, dst1, dst2 G) (G, G)

// Mutation modifies a genome in place.
type Mutation[G any] func(r *rng.RNG, g G)

// Operators bundles the three GA operators of Table II, plus the optional
// recycling crossover seam.
type Operators[G any] struct {
	Select Selection[G]
	Cross  Crossover[G]
	Mutate Mutation[G]

	// CrossInto, when set, is a factory for recycling crossover instances.
	// It is a factory — not a bare CrossoverInto — because instances may
	// keep private scratch (a JOX keep-mask, say); the engine calls it once
	// per executor so the scratch is never shared between goroutines. Steps
	// route offspring through it to reuse the retired generation's genome
	// storage, which is what drops steady-state crossover allocations to
	// zero. Without it the engine calls Cross and the children allocate.
	CrossInto func() CrossoverInto[G]
}
