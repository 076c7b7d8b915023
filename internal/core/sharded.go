package core

import (
	"sync/atomic"

	"repro/internal/rng"
)

// The sharded generation pipeline — the engine's only Step.
//
// A master that serialises the whole variation phase — selection,
// crossover, mutation, cloning — and fans out only the fitness evaluation
// hits exactly the master-slave bottleneck the parallel-GA literature
// works around by batching whole sub-populations per device (Luo & El
// Baz's dual heterogeneous island GA, arXiv:1903.10722) and by chunked
// rather than per-task dispatch (Sun et al., arXiv:0809.3285).
//
// Here the next generation is partitioned into fixed-size shards of
// shardSize slots. Each executor owns a contiguous range of shards, claims
// whole shards from it and runs selection -> crossover -> mutation ->
// evaluation for each shard end-to-end; once its range is drained it
// steals from the other executors' ranges:
//
//   - Randomness: shard s draws only from its own substream, derived once
//     at New via rng.SplitN(shards). The decomposition and the substreams
//     depend only on Pop, so results are bit-identical for ANY worker
//     count, 0 and 1 included — the property TestShardedWorkerInvariance
//     pins.
//   - Roles: each slot's role is a function of its index. Under Huang's
//     immigration scheme the first nBest slots are elites, copied on the
//     master with their cached Obj/Fit before the shards run and never
//     evaluated; the next CrossFrac share are offspring (selection,
//     crossover, mutation) and the rest are random immigrants. Without
//     immigration every slot is an offspring and elitism replaces the
//     worst children on the master afterwards.
//   - Memory: each shard owns the free list of retired genomes from its own
//     slot range and each executor owns its batch-evaluation closure
//     (private decode scratch via Problem.BatchEvaluator) and its
//     recycling crossover instance (private operator scratch via
//     Operators.CrossInto), so the steady-state step performs no
//     allocation, and every executor writes a contiguous span of the next
//     generation (no false sharing on the population buffer).
//   - Dispatch: shardSize is a small constant, so a 64-individual
//     population yields 16 shards — ~4 claims per worker at Workers=4 —
//     which keeps the tail balanced when evaluation costs are skewed
//     without per-genome claim traffic. Executor k owns shards
//     [k·S/W, (k+1)·S/W) of the S shards, each range with its own claim
//     counter on its own cache line. In the common case a shard's free
//     list, its RNG substream and its slots in the next generation so stay
//     on one core from step to step, and executors claim without touching
//     a shared line; an executor that drains its own range steals from the
//     others' in turn, which re-balances skewed costs. Which executor runs
//     a shard never changes what the shard computes. The executors are an
//     Executor of width Workers, created at New: executor 0 is the calling
//     goroutine, and Workers-1 persistent goroutines join it through the
//     executor's spin-then-park step barrier.
//
// The previous population is read-only during a step (selection reads it
// from every executor); elitism, replacement and best-tracking stay on the
// master between steps.

// shardSize is the number of slots per shard (two selection/crossover
// pairs, and exactly one 4-wide job-shop batch-kernel tile). It is a fixed
// constant — NOT derived from Workers — because the shard count decides
// how the RNG substreams are laid out; tying it to the worker count would
// break cross-worker-count determinism.
const shardSize = 4

// ShardCount returns the number of shards — and hence of shard RNG
// streams in a Snapshot — of an engine with population pop.
func ShardCount(pop int) int { return (pop + shardSize - 1) / shardSize }

// shardRange is one shard's half-open slot range in the next generation.
type shardRange struct{ lo, hi int }

// shardedState is the engine's pipeline state.
type shardedState[G any] struct {
	shards []shardRange
	rngs   []*rng.RNG // per-shard substream, advanced only by its shard
	free   [][]G      // per-shard free list of retired genomes

	// The slot plan: [0, nBest) elites, [nBest, crossEnd) offspring,
	// [crossEnd, Pop) random immigrants.
	nBest, crossEnd int

	// next is the generation buffer being filled, published to workers
	// before they are woken each step.
	next []Individual[G]

	claims []claimRange // per-executor shard ranges, reset each step
	exec   *Executor    // Workers wide; runs step once per executor each Step
	step   func(exec int)

	// Per-executor batch-evaluation closures and recycling crossover
	// instances, both possibly holding private scratch, plus the gather and
	// result buffers of the batch calls (capacity shardSize). All are
	// created once, at New. Evaluation draws no randomness, so running it
	// after a shard's variation loop leaves the trajectory untouched.
	batch []func(genomes []G, out []float64)
	cross []CrossoverInto[G]
	gbuf  [][]G
	obuf  [][]float64
}

// claimRange is one executor's range of shards, [lo, end): next is the
// next unclaimed shard. The padding gives each range its own cache line.
type claimRange struct {
	next    atomic.Int64
	lo, end int64
	_       [64 - 24]byte
}

// newShardedState builds the shard decomposition, its RNG substreams, the
// slot plan and the per-executor closures. It must be called after the
// initial population's random draws: the substreams are split off the
// master stream.
func newShardedState[G any](e *Engine[G], workers int) *shardedState[G] {
	n := e.cfg.Pop
	nShards := ShardCount(n)
	if workers > nShards {
		workers = nShards
	}
	if workers < 1 {
		workers = 1
	}
	sh := &shardedState[G]{crossEnd: n}
	if im := e.cfg.Immigration; im.Enabled {
		sh.nBest = int(float64(n) * im.BestFrac)
		sh.crossEnd = n - int(float64(n)*im.RandomFrac)
	}
	sh.exec = NewExecutor(workers)
	// Bound once: a method value taken on every Step would allocate.
	sh.step = e.runShards
	sh.shards = make([]shardRange, nShards)
	for s := range sh.shards {
		sh.shards[s] = shardRange{s * shardSize, min((s+1)*shardSize, n)}
	}
	sh.rngs = e.rng.SplitN(nShards)
	sh.free = make([][]G, nShards)
	sh.claims = make([]claimRange, workers)
	for k := range sh.claims {
		c := &sh.claims[k]
		c.lo, c.end = int64(k*nShards/workers), int64((k+1)*nShards/workers)
	}
	sh.batch = make([]func([]G, []float64), workers)
	sh.cross = make([]CrossoverInto[G], workers)
	sh.gbuf = make([][]G, workers)
	sh.obuf = make([][]float64, workers)
	for k := range sh.batch {
		sh.batch[k] = e.prob.BatchEvaluator()
		if e.cfg.Ops.CrossInto != nil {
			sh.cross[k] = e.cfg.Ops.CrossInto()
		} else {
			// A bundle without the recycling form allocates its children
			// and ignores the destinations; both forms draw the same
			// randomness, so the trajectory is the same.
			cross := e.cfg.Ops.Cross
			sh.cross[k] = func(r *rng.RNG, a, b, _, _ G) (G, G) { return cross(r, a, b) }
		}
		sh.gbuf[k] = make([]G, 0, shardSize)
		sh.obuf[k] = make([]float64, shardSize)
	}
	return sh
}

// take2 pops up to two retired genomes off a shard's free list, returning
// zero values when it runs dry (the recycling consumer then allocates).
func take2[G any](free []G) (d1, d2 G, rest []G) {
	if k := len(free); k > 0 {
		d1 = free[k-1]
		free = free[:k-1]
	}
	if k := len(free); k > 0 {
		d2 = free[k-1]
		free = free[:k-1]
	}
	return d1, d2, free
}

// Close stops the pipeline's persistent worker goroutines and returns once
// they have exited (Executor.Close). The engine stays usable: the next Step
// respawns the workers. Close is a no-op on single-executor engines
// (Workers <= 1), is idempotent, and must not be called concurrently with
// Step. Callers that abandon a multi-worker engine before Run returns
// should Close it; the solver's model adapters do.
func (e *Engine[G]) Close() { e.sharded.exec.Close() }

// Step runs one generation (Table II lines 4-7): harvest the retired
// generation's genome storage, copy the immigration elites on the master,
// let the executors drain the shard ranges, then apply elitism and
// bookkeeping on the master. The next generation is written into a double
// buffer that alternates with the current population, so the
// per-generation slices are allocated once per engine, not once per Step.
func (e *Engine[G]) Step() {
	sh := e.sharded
	e.gen++
	n := e.cfg.Pop
	next := e.spare
	if cap(next) < n {
		next = make([]Individual[G], n)
	}
	next = next[:n]
	// Harvest the retired generation: the master recycles the elite slots,
	// and shard s the rest of its own slot range, so the free lists need
	// no cross-worker synchronisation.
	if len(e.spare) > 0 {
		e.free = e.free[:0]
		for i := 0; i < sh.nBest && i < len(e.spare); i++ {
			e.free = append(e.free, e.spare[i].Genome)
		}
		for s, rg := range sh.shards {
			f := sh.free[s][:0]
			for i := max(rg.lo, sh.nBest); i < min(rg.hi, len(e.spare)); i++ {
				f = append(f, e.spare[i].Genome)
			}
			sh.free[s] = f
		}
	}
	if sh.nBest > 0 {
		e.ordA = rankedIndices(e.ordA, e.pop, sh.nBest, false)
		for i := 0; i < sh.nBest; i++ {
			// A population shrunk below nBest (SetPopulation) repeats its
			// best individuals rather than leaving elite slots unfilled.
			src := e.pop[e.ordA[i%len(e.ordA)]]
			next[i] = Individual[G]{Genome: e.cloneGenome(src.Genome), Obj: src.Obj, Fit: src.Fit}
		}
	}
	sh.next = next
	for k := range sh.claims {
		sh.claims[k].next.Store(sh.claims[k].lo)
	}
	sh.exec.Run(sh.step)
	e.evals += int64(n - sh.nBest)

	if e.cfg.Elite > 0 && !e.cfg.Immigration.Enabled {
		e.applyElitism(next)
	}
	e.spare = e.pop
	e.pop = next
	e.refreshBest()
	e.record()
}

// runShards is one executor's claim loop: run the shards of its own range
// one claim at a time, then steal from the other ranges in turn, from the
// next executor's on, until every range is drained. Claiming whole shards
// (not genomes) is the work-stealing that re-balances skewed evaluation
// costs across workers.
func (e *Engine[G]) runShards(exec int) {
	claims := e.sharded.claims
	for k := range claims {
		c := &claims[(exec+k)%len(claims)]
		for s := c.next.Add(1) - 1; s < c.end; s = c.next.Add(1) - 1 {
			e.runShard(int(s), exec)
		}
	}
}

// runShard fills the non-elite slots of shard s — offspring pairs, then
// random immigrants — and evaluates them with one batch call (a full
// shard is exactly one lockstep tile of the job-shop batch kernel).
func (e *Engine[G]) runShard(s, exec int) {
	sh := e.sharded
	rg := sh.shards[s]
	r := sh.rngs[s]
	free := sh.free[s]
	cross := sh.cross[exec]
	lo := max(rg.lo, sh.nBest)
	end := min(rg.hi, sh.crossEnd)
	for i := lo; i < end; i += 2 {
		i1 := e.cfg.Ops.Select(r, e.pop)
		i2 := e.cfg.Ops.Select(r, e.pop)
		p1, p2 := e.pop[i1].Genome, e.pop[i2].Genome
		var c1, c2, d1, d2 G
		d1, d2, free = take2(free)
		// Under Huang's scheme every offspring pair recombines.
		if e.cfg.Immigration.Enabled || r.Bool(e.cfg.CrossoverRate) {
			c1, c2 = cross(r, p1, p2, d1, d2)
		} else {
			c1 = e.prob.CloneInto(d1, p1)
			c2 = e.prob.CloneInto(d2, p2)
		}
		if r.Bool(e.cfg.MutationRate) {
			e.cfg.Ops.Mutate(r, c1)
		}
		if r.Bool(e.cfg.MutationRate) {
			e.cfg.Ops.Mutate(r, c2)
		}
		sh.next[i].Genome = c1
		if i+1 < end {
			sh.next[i+1].Genome = c2
		} else {
			// The pair straddles the offspring range's end: recycle the
			// second child's storage.
			free = append(free, c2)
		}
	}
	for i := max(lo, end); i < rg.hi; i++ {
		sh.next[i].Genome = e.prob.Random(r)
	}
	sh.free[s] = free
	if lo >= rg.hi {
		return
	}
	g := sh.gbuf[exec][:0]
	for i := lo; i < rg.hi; i++ {
		g = append(g, sh.next[i].Genome)
	}
	o := sh.obuf[exec][:len(g)]
	sh.batch[exec](g, o)
	for k, i := 0, lo; i < rg.hi; i, k = i+1, k+1 {
		sh.next[i].Obj = o[k]
		sh.next[i].Fit = e.cfg.Fitness(o[k])
	}
	sh.gbuf[exec] = g
}
