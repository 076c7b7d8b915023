package core

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Termination bundles the stopping criteria of the engine; any satisfied
// criterion stops the run. Zero values disable a criterion (except
// MaxGenerations, which defaults to 100 when everything is disabled).
type Termination struct {
	MaxGenerations int     // stop after this many generations
	MaxEvaluations int64   // stop once this many objective evaluations were spent
	MaxStagnation  int     // stop after this many generations without improvement
	Target         float64 // stop once best objective <= Target ...
	TargetSet      bool    // ... if TargetSet

	// Stop, when set, is polled between generations; returning true stops
	// the run. It is the seam external cancellation (a context's Done
	// channel) threads through, and must be safe to call concurrently: the
	// parallel models poll it from every island/partition goroutine.
	Stop func() bool
}

// Immigration configures Huang et al.'s generation scheme [24]: the next
// generation is composed of BestFrac elites, CrossFrac crossover offspring
// and RandomFrac fresh random immigrants (fractions must sum to 1).
type Immigration struct {
	Enabled    bool
	BestFrac   float64
	CrossFrac  float64
	RandomFrac float64
}

// GenStats summarises one generation for convergence-series experiments.
type GenStats struct {
	Generation  int
	BestObj     float64 // best of the current population
	BestSoFar   float64
	MeanObj     float64
	StdObj      float64
	Evaluations int64
}

// Config parameterises an Engine.
type Config[G any] struct {
	Pop           int     // population size (default 50, rounded up to even)
	CrossoverRate float64 // probability a selected pair recombines (default 0.9)
	MutationRate  float64 // probability each child mutates (default 0.2)
	Elite         int     // individuals preserved per generation (default 1)
	Ops           Operators[G]
	Fitness       Fitness // objective->fitness transform (default InverseFitness)
	Term          Termination
	Immigration   Immigration
	OnGeneration  func(GenStats) // optional per-generation hook

	// Workers is the number of executors of the sharded generation
	// pipeline (see sharded.go): Step partitions the next generation into
	// fixed-size shards, and each executor runs selection, crossover,
	// mutation AND evaluation for whole shards end-to-end, drawing
	// randomness from per-shard substreams (rng.SplitN). The shard
	// decomposition and its substreams depend only on Pop, so results are
	// bit-identical for any Workers value. 0 and 1 both mean one inline
	// executor on the calling goroutine; larger values add Workers-1
	// persistent goroutines, which need scheduling-safe operators (a
	// Selection must keep no state between calls; every bundled operator
	// qualifies), and an engine abandoned before Run completes should be
	// Close()d.
	// Between steps those goroutines wait on a spin-then-park barrier:
	// they poll for the next step for a few microseconds, yielding the CPU
	// on every poll, before they park, so back-to-back steps pay no
	// wake-up; the poll costs some CPU while a worker waits.
	Workers int
}

// Result reports the outcome of a Run.
type Result[G any] struct {
	Best        Individual[G]
	Generations int
	Evaluations int64
}

// Engine runs the Table II loop. It is deterministic given the seed stream
// passed to New; evaluation must not consume engine randomness.
type Engine[G any] struct {
	prob Problem[G]
	cfg  Config[G]
	rng  *rng.RNG

	pop        []Individual[G]
	gen        int
	evals      int64
	best       Individual[G]
	bestValid  bool
	stagnation int

	// Generation double-buffering: Step writes the next generation into
	// spare and swaps, so the per-generation individual slice is allocated
	// once and reused for the whole run.
	spare []Individual[G]

	// Genome recycling through Problem.CloneInto: free holds the master's
	// dead genomes (retired elite slots, children displaced by elitism),
	// which cloneGenome reuses for the elite copies; the shards keep their
	// own free lists (see sharded.go). Nobody can reference a retired
	// genome any more — elites and the incumbent best are always cloned,
	// migration clones before injecting.
	free []G

	// ordA, ordB are the reused index buffers of the elitism/immigration
	// rankings, keeping the per-generation ranking allocation-free.
	ordA, ordB []int

	// sharded is the generation pipeline state (see sharded.go).
	sharded *shardedState[G]
}

// New creates an engine, applies config defaults, and evaluates the initial
// random population (the Initialize() step).
func New[G any](p Problem[G], r *rng.RNG, cfg Config[G]) *Engine[G] {
	if p == nil {
		panic("core: nil problem")
	}
	if r == nil {
		panic("core: nil rng")
	}
	if cfg.Pop <= 0 {
		cfg.Pop = 50
	}
	if cfg.Pop%2 == 1 {
		cfg.Pop++
	}
	if cfg.CrossoverRate == 0 {
		cfg.CrossoverRate = 0.9
	}
	if cfg.MutationRate == 0 {
		cfg.MutationRate = 0.2
	}
	if cfg.Elite == 0 {
		cfg.Elite = 1
	}
	if cfg.Elite >= cfg.Pop {
		cfg.Elite = cfg.Pop - 1
	}
	if cfg.Fitness == nil {
		cfg.Fitness = InverseFitness()
	}
	if cfg.Ops.Select == nil || cfg.Ops.Cross == nil || cfg.Ops.Mutate == nil {
		panic("core: Config.Ops must provide Select, Cross and Mutate")
	}
	if cfg.Term.MaxGenerations == 0 && cfg.Term.MaxEvaluations == 0 &&
		cfg.Term.MaxStagnation == 0 && !cfg.Term.TargetSet {
		cfg.Term.MaxGenerations = 100
	}
	if cfg.Immigration.Enabled {
		sum := cfg.Immigration.BestFrac + cfg.Immigration.CrossFrac + cfg.Immigration.RandomFrac
		if sum < 0.999 || sum > 1.001 {
			panic(fmt.Sprintf("core: immigration fractions sum to %v, want 1", sum))
		}
	}
	e := &Engine[G]{prob: p, cfg: cfg, rng: r}
	e.pop = make([]Individual[G], cfg.Pop)
	genomes := make([]G, cfg.Pop)
	for i := range e.pop {
		genomes[i] = p.Random(r)
	}
	// The shard decomposition and its RNG substreams are derived after the
	// initial population's draws and depend only on Pop — never on Workers.
	e.sharded = newShardedState(e, cfg.Workers)
	objs := make([]float64, cfg.Pop)
	e.sharded.batch[0](genomes, objs)
	e.evals += int64(cfg.Pop)
	for i := range e.pop {
		e.pop[i] = Individual[G]{Genome: genomes[i], Obj: objs[i], Fit: cfg.Fitness(objs[i])}
	}
	e.refreshBest()
	return e
}

func (e *Engine[G]) refreshBest() {
	improved := false
	for _, ind := range e.pop {
		if !e.bestValid || ind.Obj < e.best.Obj {
			// The incumbent best genome is engine-owned (Best() hands out
			// clones), so its capacity can be recycled for the new copy.
			g := e.prob.CloneInto(e.best.Genome, ind.Genome)
			e.best = Individual[G]{Genome: g, Obj: ind.Obj, Fit: ind.Fit}
			e.bestValid = true
			improved = true
		}
	}
	if improved {
		e.stagnation = 0
	} else {
		e.stagnation++
	}
}

// cloneGenome deep-copies src for the next generation, reusing the capacity
// of a retired genome when one is free.
func (e *Engine[G]) cloneGenome(src G) G {
	var dst G
	if k := len(e.free); k > 0 {
		dst = e.free[k-1]
		e.free = e.free[:k-1]
	}
	return e.prob.CloneInto(dst, src)
}

// Generation returns the current generation counter.
func (e *Engine[G]) Generation() int { return e.gen }

// Evaluations returns the number of objective evaluations spent so far.
func (e *Engine[G]) Evaluations() int64 { return e.evals }

// Best returns a copy of the best individual found so far.
func (e *Engine[G]) Best() Individual[G] {
	return Individual[G]{Genome: e.prob.Clone(e.best.Genome), Obj: e.best.Obj, Fit: e.best.Fit}
}

// Stagnation returns the number of consecutive generations without
// improvement of the best objective.
func (e *Engine[G]) Stagnation() int { return e.stagnation }

// Population returns the live population slice. Callers (migration
// operators) may replace individuals but must keep Obj and Fit consistent.
// The slice and the genomes it references are valid only until the next
// Step: the engine double-buffers generations and recycles retired genome
// storage, so callers that need an individual beyond the current generation
// must Clone its genome.
func (e *Engine[G]) Population() []Individual[G] { return e.pop }

// SetPopulation replaces the population, e.g. when islands merge.
func (e *Engine[G]) SetPopulation(pop []Individual[G]) {
	if len(pop) == 0 {
		panic("core: empty population")
	}
	e.pop = pop
	e.refreshBest()
}

// MakeIndividual evaluates a genome and wraps it with consistent fitness,
// counting the evaluation. It is the entry point migration code uses to
// inject foreign genomes.
func (e *Engine[G]) MakeIndividual(g G) Individual[G] {
	obj := e.prob.Evaluate(g)
	e.evals++
	return Individual[G]{Genome: g, Obj: obj, Fit: e.cfg.Fitness(obj)}
}

// RNG exposes the engine's random stream for migration policies that must
// stay deterministic with respect to the engine.
func (e *Engine[G]) RNG() *rng.RNG { return e.rng }

// Problem returns the engine's problem.
func (e *Engine[G]) Problem() Problem[G] { return e.prob }

// Done reports whether any termination criterion is satisfied.
func (e *Engine[G]) Done() bool {
	t := &e.cfg.Term
	if t.MaxGenerations > 0 && e.gen >= t.MaxGenerations {
		return true
	}
	if t.MaxEvaluations > 0 && e.evals >= t.MaxEvaluations {
		return true
	}
	if t.MaxStagnation > 0 && e.stagnation >= t.MaxStagnation {
		return true
	}
	if t.TargetSet && e.bestValid && e.best.Obj <= t.Target {
		return true
	}
	if t.Stop != nil && t.Stop() {
		return true
	}
	return false
}

// Snapshot is a resumable copy of an engine's mid-run state: the live
// population with its cached objectives, the incumbent best, the loop
// counters and every random stream the next Step would draw from. Feeding
// it to Restore on a freshly built engine with the same configuration
// replays the run bit-identically from this point — the checkpoint seam
// behind the solver's durable jobs.
type Snapshot[G any] struct {
	Pop         []Individual[G]
	Best        Individual[G]
	HasBest     bool
	Generation  int
	Evaluations int64
	Stagnation  int
	// RNG is the master stream's state; Shards holds the per-shard
	// substream states, one per shard (ShardCount(Pop)). The shard
	// decomposition depends only on Pop, so a snapshot restores into any
	// engine with the same Pop regardless of Workers.
	RNG    rng.State
	Shards []rng.State
}

// Snapshot captures the engine's current resumable state. Genomes are
// deep-copied, so the snapshot stays valid across later Steps. It must not
// be called concurrently with Step (call it from OnGeneration, or between
// Steps, like every other engine accessor).
func (e *Engine[G]) Snapshot() Snapshot[G] {
	s := Snapshot[G]{
		Pop:         make([]Individual[G], len(e.pop)),
		HasBest:     e.bestValid,
		Generation:  e.gen,
		Evaluations: e.evals,
		Stagnation:  e.stagnation,
		RNG:         e.rng.State(),
		Shards:      make([]rng.State, len(e.sharded.rngs)),
	}
	for i, ind := range e.pop {
		s.Pop[i] = Individual[G]{Genome: e.prob.Clone(ind.Genome), Obj: ind.Obj, Fit: ind.Fit}
	}
	if e.bestValid {
		s.Best = Individual[G]{Genome: e.prob.Clone(e.best.Genome), Obj: e.best.Obj, Fit: e.best.Fit}
	}
	for i, r := range e.sharded.rngs {
		s.Shards[i] = r.State()
	}
	return s
}

// Restore replaces the engine's state with a snapshot taken from an engine
// of the same configuration: population and incumbent best (genomes are
// deep-copied in; fitness is recomputed through the engine's own transform,
// so snapshots never need to carry it), generation/evaluation/stagnation
// counters, and the random streams. Restore fails, leaving the engine
// unchanged, when the snapshot's shape does not fit: wrong population
// size, or a shard-stream count other than ShardCount(Pop).
func (e *Engine[G]) Restore(s Snapshot[G]) error {
	if len(s.Pop) != e.cfg.Pop {
		return fmt.Errorf("core: restore: snapshot population %d, engine expects %d", len(s.Pop), e.cfg.Pop)
	}
	if !s.HasBest {
		return fmt.Errorf("core: restore: snapshot has no incumbent best")
	}
	if len(s.Shards) != len(e.sharded.rngs) {
		return fmt.Errorf("core: restore: snapshot has %d shard streams, engine expects %d", len(s.Shards), len(e.sharded.rngs))
	}
	pop := make([]Individual[G], len(s.Pop))
	for i, ind := range s.Pop {
		pop[i] = Individual[G]{Genome: e.prob.Clone(ind.Genome), Obj: ind.Obj, Fit: e.cfg.Fitness(ind.Obj)}
	}
	e.pop = pop
	e.best = Individual[G]{Genome: e.prob.Clone(s.Best.Genome), Obj: s.Best.Obj, Fit: e.cfg.Fitness(s.Best.Obj)}
	e.bestValid = true
	e.gen = s.Generation
	e.evals = s.Evaluations
	e.stagnation = s.Stagnation
	e.rng.SetState(s.RNG)
	for i := range e.sharded.rngs {
		e.sharded.rngs[i].SetState(s.Shards[i])
	}
	// The discarded initial population and the double-buffer scratch hold
	// genomes nothing references any more; drop them so the recycling paths
	// start clean rather than resurrecting pre-restore storage.
	e.spare = nil
	e.free = nil
	return nil
}

// applyElitism copies the Elite best previous individuals over the worst
// children, recycling the displaced children's genome storage. The i-th
// best previous individual replaces the i-th worst child when it is
// strictly better.
func (e *Engine[G]) applyElitism(next []Individual[G]) {
	k := min(e.cfg.Elite, len(e.pop), len(next))
	e.ordA = rankedIndices(e.ordA, e.pop, k, false)
	e.ordB = rankedIndices(e.ordB, next, k, true)
	for i := 0; i < k; i++ {
		eliteIdx, worstIdx := e.ordA[i], e.ordB[i]
		if e.pop[eliteIdx].Obj < next[worstIdx].Obj {
			e.free = append(e.free, next[worstIdx].Genome)
			next[worstIdx] = Individual[G]{
				Genome: e.cloneGenome(e.pop[eliteIdx].Genome),
				Obj:    e.pop[eliteIdx].Obj,
				Fit:    e.pop[eliteIdx].Fit,
			}
		}
	}
}

// rankedIndices writes into buf (reusing its capacity) the ends of the
// stable ascending-objective order of pop, where ties rank by index:
// the first min(k, len(pop)) indices, best first, or with worst set the
// last ones, worst first. Each of the k rounds is one scan for the
// successor of the previous pick, so the cost is O(len(pop)*k) with no
// sort and no allocation once buf is warm; elitism and immigration need
// only a few ranks of a whole population.
func rankedIndices[G any](buf []int, pop []Individual[G], k int, worst bool) []int {
	// before reports whether i precedes j in the requested order.
	before := func(i, j int) bool {
		if worst {
			i, j = j, i
		}
		oi, oj := pop[i].Obj, pop[j].Obj
		return oi < oj || (oi == oj && i < j)
	}
	buf = buf[:0]
	for len(buf) < min(k, len(pop)) {
		pick := -1
		for i := range pop {
			if len(buf) > 0 && !before(buf[len(buf)-1], i) {
				continue
			}
			if pick < 0 || before(i, pick) {
				pick = i
			}
		}
		buf = append(buf, pick)
	}
	return buf
}

func (e *Engine[G]) record() {
	if e.cfg.OnGeneration == nil {
		return
	}
	// Mean and sample std in stats.Summarize's summation order, so
	// GenStats match it bit for bit without its copy and sort.
	bestGen := e.pop[0].Obj
	var sum float64
	for _, ind := range e.pop {
		sum += ind.Obj
		if ind.Obj < bestGen {
			bestGen = ind.Obj
		}
	}
	mean, std := sum/float64(len(e.pop)), 0.0
	if len(e.pop) > 1 {
		var ss float64
		for _, ind := range e.pop {
			d := ind.Obj - mean
			ss += d * d
		}
		std = math.Sqrt(ss / float64(len(e.pop)-1))
	}
	e.cfg.OnGeneration(GenStats{
		Generation:  e.gen,
		BestObj:     bestGen,
		BestSoFar:   e.best.Obj,
		MeanObj:     mean,
		StdObj:      std,
		Evaluations: e.evals,
	})
}

// Run executes Step until Done and returns the Result, releasing any
// sharded-pipeline workers on the way out (the engine stays usable: a
// later Step respawns them).
func (e *Engine[G]) Run() Result[G] {
	for !e.Done() {
		e.Step()
	}
	e.Close()
	return Result[G]{
		Best:        e.Best(),
		Generations: e.gen,
		Evaluations: e.evals,
	}
}
