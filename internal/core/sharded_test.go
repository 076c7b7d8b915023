package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
)

// shardedProblem is a CloneInto []int problem whose evaluation depends on
// every gene, for trajectory comparisons.
func shardedProblem(n int) FuncProblem[[]int] {
	return FuncProblem[[]int]{
		RandomFn: func(r *rng.RNG) []int { return r.Perm(n) },
		EvaluateFn: func(g []int) float64 {
			v := 0.0
			for i, x := range g {
				v += float64((i + 1) * (x + 1) % 17)
			}
			return v + 1
		},
		CloneFn:     func(g []int) []int { return append([]int(nil), g...) },
		CloneIntoFn: func(dst, src []int) []int { return append(dst[:0], src...) },
	}
}

func shardedOps() Operators[[]int] {
	swap := func(r *rng.RNG, g []int) {
		i, j := r.Intn(len(g)), r.Intn(len(g))
		g[i], g[j] = g[j], g[i]
	}
	cross := func(r *rng.RNG, a, b []int) ([]int, []int) {
		cut := r.Intn(len(a))
		c1 := append(append([]int(nil), a[:cut]...), b[cut:]...)
		c2 := append(append([]int(nil), b[:cut]...), a[cut:]...)
		return c1, c2
	}
	return Operators[[]int]{
		Select: func(r *rng.RNG, pop []Individual[[]int]) int { return r.Intn(len(pop)) },
		Cross:  cross,
		Mutate: swap,
		CrossInto: func() CrossoverInto[[]int] {
			return func(r *rng.RNG, a, b, d1, d2 []int) ([]int, []int) {
				cut := r.Intn(len(a))
				d1 = append(append(d1[:0], a[:cut]...), b[cut:]...)
				d2 = append(append(d2[:0], b[:cut]...), a[cut:]...)
				return d1, d2
			}
		},
	}
}

// runSharded runs an engine for gens generations and returns the best
// objective, evaluation count and best genome.
func runSharded(t *testing.T, workers, pop, gens int, imm Immigration) (float64, int64, []int) {
	t.Helper()
	eng := New(shardedProblem(12), rng.New(99), Config[[]int]{
		Pop: pop, Workers: workers, Immigration: imm,
		Ops:  shardedOps(),
		Term: Termination{MaxGenerations: gens},
	})
	defer eng.Close()
	res := eng.Run()
	return res.Best.Obj, res.Evaluations, res.Best.Genome
}

// checkWorkerInvariance runs the engine at workers 0 and at every count in
// ws, requiring bit-identical best objective, evaluations and best genome.
func checkWorkerInvariance(t *testing.T, pop, gens int, imm Immigration, ws []int) {
	t.Helper()
	baseObj, baseEvals, baseGenome := runSharded(t, 0, pop, gens, imm)
	for _, w := range ws {
		obj, evals, genome := runSharded(t, w, pop, gens, imm)
		if obj != baseObj || evals != baseEvals {
			t.Errorf("workers=%d: (%v, %d) != workers=0 (%v, %d)", w, obj, evals, baseObj, baseEvals)
		}
		for i := range genome {
			if genome[i] != baseGenome[i] {
				t.Errorf("workers=%d: best genome diverges at %d", w, i)
				break
			}
		}
	}
}

// TestShardedWorkerInvariance is the engine-level determinism contract:
// the shard decomposition and its RNG substreams depend only on Pop, so
// any worker count — the inline executor of 0 and 1 included — produces
// bit-identical results.
func TestShardedWorkerInvariance(t *testing.T) {
	checkWorkerInvariance(t, 40, 30, Immigration{}, []int{1, 2, 3, 8, 64})
}

// TestImmigrationWorkerInvariance: Huang's immigration composition lives in
// the shard plan (elites on the master, offspring and immigrants in the
// shards, every draw from the owning shard's substream), so it is
// worker-count invariant too — including an odd elite count, where an
// offspring pair straddles a shard boundary.
func TestImmigrationWorkerInvariance(t *testing.T) {
	imm := Immigration{Enabled: true, BestFrac: 0.2, CrossFrac: 0.6, RandomFrac: 0.2}
	for _, pop := range []int{20, 26} {
		checkWorkerInvariance(t, pop, 15, imm, []int{1, 4})
	}
}

// TestShardedSharesInitialisation checks that engines of different worker
// counts with the same seed build the same initial population: the shard
// substreams are split off only after initialisation.
func TestShardedSharesInitialisation(t *testing.T) {
	p := shardedProblem(10)
	mk := func(workers int) *Engine[[]int] {
		return New(p, rng.New(5), Config[[]int]{
			Pop: 20, Workers: workers, Ops: shardedOps(),
			Term: Termination{MaxGenerations: 1},
		})
	}
	a, b := mk(0), mk(4)
	defer b.Close()
	for i := range a.Population() {
		ga, gb := a.Population()[i].Genome, b.Population()[i].Genome
		for k := range ga {
			if ga[k] != gb[k] {
				t.Fatalf("initial individual %d differs between 0 and 4 workers", i)
			}
		}
	}
}

// TestShardedCloseRespawns: Close releases the workers; the next Step
// respawns them and the trajectory is unaffected.
func TestShardedCloseRespawns(t *testing.T) {
	mk := func(closeMidway bool) float64 {
		eng := New(shardedProblem(9), rng.New(17), Config[[]int]{
			Pop: 24, Workers: 4, Ops: shardedOps(),
			Term: Termination{MaxGenerations: 1 << 30},
		})
		defer eng.Close()
		for i := 0; i < 10; i++ {
			if closeMidway && i == 5 {
				eng.Close()
			}
			eng.Step()
		}
		return eng.Best().Obj
	}
	if a, b := mk(false), mk(true); a != b {
		t.Errorf("Close mid-run changed the trajectory: %v vs %v", a, b)
	}
}

// populationTrace fingerprints an engine's current generation — every gene
// and objective in slot order — so two trajectories can be compared step by
// step, not only by their final best.
func populationTrace(eng *Engine[[]int]) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for _, ind := range eng.Population() {
		mix(uint64(ind.Obj))
		for _, x := range ind.Genome {
			mix(uint64(x))
		}
	}
	return h
}

// TestShardedBarrierStress drives the step barrier through every way a
// caller can pace it, over worker counts that exceed the shard count (Pop
// 2 and 6: one and two shards, so Workers is clamped) and ones that do not.
// "back-to-back" steps immediately, so workers are caught while polling;
// "sleep" pauses far longer than the poll window between steps, so every
// worker and the master park, and a lost wake-up hangs the test; "close"
// closes mid-run, closes twice and steps again, which respawns the workers
// on a fresh barrier. Each step's population must equal the Workers: 0
// run's, and once every engine is closed the worker goroutines must exit.
func TestShardedBarrierStress(t *testing.T) {
	const gens = 12
	baseline := runtime.NumGoroutine()
	trace := func(workers, pop int, pace func(eng *Engine[[]int], gen int)) []uint64 {
		eng := New(shardedProblem(9), rng.New(23), Config[[]int]{
			Pop: pop, Workers: workers, Ops: shardedOps(),
			Term: Termination{MaxGenerations: 1 << 30},
		})
		out := make([]uint64, 0, gens)
		for g := 0; g < gens; g++ {
			pace(eng, g)
			eng.Step()
			out = append(out, populationTrace(eng))
		}
		eng.Close()
		eng.Close()
		return out
	}
	paces := []struct {
		name string
		pace func(eng *Engine[[]int], gen int)
	}{
		{"back-to-back", func(*Engine[[]int], int) {}},
		{"sleep", func(eng *Engine[[]int], gen int) {
			if gen > 0 {
				time.Sleep(2 * time.Millisecond)
			}
		}},
		{"close", func(eng *Engine[[]int], gen int) {
			switch gen {
			case gens / 3:
				eng.Close()
			case 2 * gens / 3:
				eng.Close()
				eng.Close()
			}
		}},
	}
	for _, pop := range []int{2, 6, 24, 80} {
		want := trace(0, pop, paces[0].pace)
		for _, workers := range []int{2, 3, 4, 8} {
			for _, p := range paces {
				t.Run(fmt.Sprintf("pop%d/workers%d/%s", pop, workers, p.name), func(t *testing.T) {
					got := trace(workers, pop, p.pace)
					for g := range want {
						if got[g] != want[g] {
							t.Fatalf("generation %d differs from the Workers: 0 run", g+1)
						}
					}
				})
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after every engine closed, %d before: workers leaked",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardedClaimCoverage pins the shard claim protocol over ragged
// populations: every shard runs exactly once per step, whichever executor
// runs it; when one executor is slow, the others steal from its range once
// their own are drained; and the trajectory equals the Workers: 1 run.
// Each executor's recycling crossover instance sees which shard it serves
// (by the shard's RNG substream) and, at crossover rate 1, is called once
// per offspring pair. Executor W-1 is the slow one: each step it holds
// its first pair of its own range until another executor has run a shard
// of that range, so a claim loop that never steals fails the test instead
// of merely running slower.
func TestShardedClaimCoverage(t *testing.T) {
	const gens = 6
	trace := func(t *testing.T, workers, pop int) []uint64 {
		var (
			eng      *Engine[[]int]
			mu       sync.Mutex
			pairs    []int // per shard: crossover calls in the current step
			stolen   atomic.Bool
			timedOut atomic.Bool
			execs    int
		)
		slow := workers - 1
		// shardOf maps a shard's substream to its index, and owner a shard
		// to the executor whose range holds it.
		shardOf := func(r *rng.RNG) int {
			for s, sr := range eng.sharded.rngs {
				if sr == r {
					return s
				}
			}
			return -1
		}
		owner := func(s int) int {
			for k := range eng.sharded.claims {
				if int64(s) < eng.sharded.claims[k].end {
					return k
				}
			}
			return -1
		}
		ops := shardedOps()
		crossInto := ops.CrossInto
		ops.CrossInto = func() CrossoverInto[[]int] {
			exec := execs // New creates the instances in executor order
			execs++
			cross := crossInto()
			return func(r *rng.RNG, a, b, d1, d2 []int) ([]int, []int) {
				s := shardOf(r)
				if s < 0 {
					t.Error("crossover drew from no shard's substream")
					return cross(r, a, b, d1, d2)
				}
				own := owner(s)
				mu.Lock()
				pairs[s]++
				mu.Unlock()
				if own != exec && own == slow {
					stolen.Store(true)
				}
				if workers > 1 && exec == slow && own == slow {
					for deadline := time.Now().Add(2 * time.Second); !stolen.Load() && !timedOut.Load(); {
						if time.Now().After(deadline) {
							timedOut.Store(true)
						}
						time.Sleep(20 * time.Microsecond)
					}
				}
				return cross(r, a, b, d1, d2)
			}
		}
		eng = New(shardedProblem(9), rng.New(31), Config[[]int]{
			Pop: pop, Workers: workers, Ops: ops, CrossoverRate: 1,
			Term: Termination{MaxGenerations: 1 << 30},
		})
		defer eng.Close()
		if execs != workers || len(eng.sharded.claims) != workers {
			t.Fatalf("%d crossover instances and %d claim ranges for %d workers", execs, len(eng.sharded.claims), workers)
		}
		if c := &eng.sharded.claims[slow]; c.end-c.lo < 2 {
			t.Fatalf("slow executor's range [%d,%d) has no shard left to steal", c.lo, c.end)
		}
		pairs = make([]int, ShardCount(pop))
		out := make([]uint64, 0, gens)
		for g := 0; g < gens; g++ {
			stolen.Store(false)
			eng.Step()
			for s, n := range pairs {
				rg := eng.sharded.shards[s]
				if want := (rg.hi - rg.lo + 1) / 2; n != want {
					t.Fatalf("generation %d: shard %d made %d crossovers, want %d (one run)", g+1, s, n, want)
				}
				pairs[s] = 0
			}
			if workers > 1 && !stolen.Load() {
				t.Fatalf("generation %d: no executor stole from the slow executor's range", g+1)
			}
			out = append(out, populationTrace(eng))
		}
		return out
	}
	for _, pop := range []int{30, 80, 161} {
		want := trace(t, 1, pop)
		for workers := 2; workers <= 5; workers++ {
			t.Run(fmt.Sprintf("pop%d/workers%d", pop, workers), func(t *testing.T) {
				got := trace(t, workers, pop)
				for g := range want {
					if got[g] != want[g] {
						t.Fatalf("generation %d differs from the Workers: 1 run", g+1)
					}
				}
			})
		}
	}
}

// TestShardedBatchSeamTrajectoryInvariance: a span closure of its own
// (whole-shard batch calls after the variation loop) must step exactly the
// trajectory of FuncProblem's scalar loop over Evaluate — evaluation draws
// no randomness and batch closures return exactly the scalar objectives.
func TestShardedBatchSeamTrajectoryInvariance(t *testing.T) {
	run := func(p Problem[[]int], workers int, imm Immigration) Result[[]int] {
		eng := New(p, rng.New(41), Config[[]int]{
			Pop: 36, Workers: workers, Ops: shardedOps(), Immigration: imm,
			Term: Termination{MaxGenerations: 25},
		})
		defer eng.Close()
		return eng.Run()
	}
	scalar := shardedProblem(11)
	fp := scalar
	// A span closure with its own evaluation order, so the batch call is a
	// genuinely different code path from the scalar loop.
	fp.BatchEvalFn = func() func([][]int, []float64) {
		return func(gs [][]int, out []float64) {
			for i := len(gs) - 1; i >= 0; i-- {
				out[i] = fp.EvaluateFn(gs[i])
			}
		}
	}
	imms := []Immigration{{}, {Enabled: true, BestFrac: 0.25, CrossFrac: 0.5, RandomFrac: 0.25}}
	for _, imm := range imms {
		for _, workers := range []int{0, 1, 4} {
			with, without := run(fp, workers, imm), run(scalar, workers, imm)
			if with.Best.Obj != without.Best.Obj || with.Evaluations != without.Evaluations {
				t.Errorf("workers=%d immigration=%v: batch seam changed trajectory: (%v,%d) vs (%v,%d)",
					workers, imm.Enabled, with.Best.Obj, with.Evaluations, without.Best.Obj, without.Evaluations)
			}
			for i := range with.Best.Genome {
				if with.Best.Genome[i] != without.Best.Genome[i] {
					t.Errorf("workers=%d immigration=%v: best genome diverges at %d", workers, imm.Enabled, i)
					break
				}
			}
		}
	}
}

// TestShardedCrossIntoTrajectoryInvariance: an operator bundle with only
// the allocating Cross must step exactly the trajectory of one whose
// recycling CrossInto matches it — the engine may route offspring through
// either form without drawing different randomness.
func TestShardedCrossIntoTrajectoryInvariance(t *testing.T) {
	run := func(ops Operators[[]int], workers int, imm Immigration) Result[[]int] {
		eng := New(shardedProblem(11), rng.New(43), Config[[]int]{
			Pop: 36, Workers: workers, Ops: ops, Immigration: imm,
			Term: Termination{MaxGenerations: 25},
		})
		defer eng.Close()
		return eng.Run()
	}
	crossOnly := shardedOps()
	crossOnly.CrossInto = nil
	imms := []Immigration{{}, {Enabled: true, BestFrac: 0.25, CrossFrac: 0.5, RandomFrac: 0.25}}
	for _, imm := range imms {
		for _, workers := range []int{0, 1, 4} {
			with, without := run(shardedOps(), workers, imm), run(crossOnly, workers, imm)
			if with.Best.Obj != without.Best.Obj || with.Evaluations != without.Evaluations {
				t.Errorf("workers=%d immigration=%v: CrossInto changed trajectory: (%v,%d) vs (%v,%d)",
					workers, imm.Enabled, with.Best.Obj, with.Evaluations, without.Best.Obj, without.Evaluations)
			}
			for i := range with.Best.Genome {
				if with.Best.Genome[i] != without.Best.Genome[i] {
					t.Errorf("workers=%d immigration=%v: best genome diverges at %d", workers, imm.Enabled, i)
					break
				}
			}
		}
	}
}

// TestShardedStepAllocs is the zero-alloc guard of the pipeline: once
// warm, a full Step must stay within a small constant allocation budget
// independent of the population size and of the worker count, the inline
// executor included (bound: <= 8 allocs/op).
func TestShardedStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, workers := range []int{0, 4} {
		for _, pop := range []int{64, 256} {
			eng := New(shardedProblem(15), rng.New(8), Config[[]int]{
				Pop: pop, Workers: workers, Ops: shardedOps(),
				Term: Termination{MaxGenerations: 1 << 30},
			})
			for i := 0; i < 60; i++ { // warm the free lists and spawn the workers
				eng.Step()
			}
			avg := testing.AllocsPerRun(50, eng.Step)
			eng.Close()
			if avg > 8 {
				t.Errorf("Workers=%d Pop=%d: Step allocates %.1f/op, want <= 8", workers, pop, avg)
			}
		}
	}
}

// TestShardedParkerIgnoresStaleSignal: a signal for an earlier epoch — the last
// worker of step E finishing its signal after the master has moved on to
// step E+1 and parked — must not wake a waiter parked for a later one; the
// signal for its own epoch must.
func TestShardedParkerIgnoresStaleSignal(t *testing.T) {
	p := parker{wake: make(chan struct{}, 1)}
	var ready atomic.Bool
	woken := make(chan struct{})
	go func() {
		p.await(2, 0, ready.Load)
		close(woken)
	}()
	for p.parked.Load() != 2 {
		runtime.Gosched()
	}
	p.signal(1)
	select {
	case <-woken:
		t.Fatal("a signal for epoch 1 woke a waiter parked for epoch 2")
	case <-time.After(20 * time.Millisecond):
	}
	ready.Store(true)
	p.signal(2)
	<-woken
}
