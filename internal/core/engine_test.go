package core

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// sortProblem: genome is a permutation; objective counts displaced elements
// plus 1 (strictly positive so InverseFitness stays finite). Optimum is 1.
func sortProblem(n int) Problem[[]int] {
	return FuncProblem[[]int]{
		RandomFn: func(r *rng.RNG) []int { return r.Perm(n) },
		EvaluateFn: func(g []int) float64 {
			bad := 0
			for i, v := range g {
				if v != i {
					bad++
				}
			}
			return float64(bad + 1)
		},
		CloneFn: func(g []int) []int { return append([]int(nil), g...) },
	}
}

func permOps() Operators[[]int] {
	return Operators[[]int]{
		Select: func(r *rng.RNG, pop []Individual[[]int]) int {
			// 2-way tournament on fitness.
			a, b := r.Intn(len(pop)), r.Intn(len(pop))
			if pop[a].Fit >= pop[b].Fit {
				return a
			}
			return b
		},
		Cross: func(r *rng.RNG, a, b []int) ([]int, []int) {
			// Cycle-style positional mix that preserves permutations:
			// child1 takes a's prefix and completes with b's order.
			cut := r.Intn(len(a) + 1)
			mk := func(x, y []int) []int {
				c := append([]int(nil), x[:cut]...)
				used := map[int]bool{}
				for _, v := range c {
					used[v] = true
				}
				for _, v := range y {
					if !used[v] {
						c = append(c, v)
						used[v] = true
					}
				}
				return c
			}
			return mk(a, b), mk(b, a)
		},
		Mutate: func(r *rng.RNG, g []int) {
			i, j := r.Intn(len(g)), r.Intn(len(g))
			g[i], g[j] = g[j], g[i]
		},
	}
}

func TestEngineSolvesSortProblem(t *testing.T) {
	e := New(sortProblem(8), rng.New(42), Config[[]int]{
		Pop: 60, Ops: permOps(),
		Term: Termination{MaxGenerations: 300, Target: 1, TargetSet: true},
	})
	res := e.Run()
	if res.Best.Obj != 1 {
		t.Fatalf("did not reach optimum: best=%v after %d generations", res.Best.Obj, res.Generations)
	}
	if res.Generations >= 300 {
		t.Errorf("target termination did not fire early (gen=%d)", res.Generations)
	}
	if res.Evaluations <= 0 {
		t.Errorf("bookkeeping broken: %+v", res)
	}
}

func TestEngineDeterministic(t *testing.T) {
	run := func() Result[[]int] {
		e := New(sortProblem(10), rng.New(7), Config[[]int]{
			Pop: 30, Ops: permOps(), Term: Termination{MaxGenerations: 40},
		})
		return e.Run()
	}
	r1, r2 := run(), run()
	if r1.Best.Obj != r2.Best.Obj || r1.Evaluations != r2.Evaluations {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v",
			r1.Best.Obj, r1.Evaluations, r2.Best.Obj, r2.Evaluations)
	}
	for i := range r1.Best.Genome {
		if r1.Best.Genome[i] != r2.Best.Genome[i] {
			t.Fatal("best genomes differ")
		}
	}
}

func TestBestNeverWorsens(t *testing.T) {
	var history []GenStats
	e := New(sortProblem(10), rng.New(3), Config[[]int]{
		Pop: 20, Ops: permOps(), Term: Termination{MaxGenerations: 60},
		OnGeneration: func(gs GenStats) { history = append(history, gs) },
	})
	res := e.Run()
	prev := math.Inf(1)
	for _, gs := range history {
		if gs.BestSoFar > prev {
			t.Fatalf("best-so-far worsened at generation %d: %v > %v",
				gs.Generation, gs.BestSoFar, prev)
		}
		prev = gs.BestSoFar
	}
	if len(history) != res.Generations {
		t.Fatalf("history has %d entries for %d generations", len(history), res.Generations)
	}
}

func TestElitismKeepsBestInPopulation(t *testing.T) {
	e := New(sortProblem(12), rng.New(11), Config[[]int]{
		Pop: 20, Elite: 2, Ops: permOps(), Term: Termination{MaxGenerations: 1},
	})
	bestBefore := e.Best().Obj
	e.Step()
	bestInPop := math.Inf(1)
	for _, ind := range e.Population() {
		if ind.Obj < bestInPop {
			bestInPop = ind.Obj
		}
	}
	if bestInPop > bestBefore {
		t.Fatalf("elitism lost the best: before=%v, in pop=%v", bestBefore, bestInPop)
	}
}

func TestTerminationCriteria(t *testing.T) {
	mk := func(term Termination) *Engine[[]int] {
		return New(sortProblem(6), rng.New(5), Config[[]int]{
			Pop: 10, Ops: permOps(), Term: term,
		})
	}
	e := mk(Termination{MaxGenerations: 3})
	e.Run()
	if e.Generation() != 3 {
		t.Errorf("MaxGenerations: stopped at %d", e.Generation())
	}
	e = mk(Termination{MaxEvaluations: 25})
	e.Run()
	if e.Evaluations() < 25 || e.Evaluations() > 45 {
		t.Errorf("MaxEvaluations: spent %d", e.Evaluations())
	}
	e = mk(Termination{MaxStagnation: 5, MaxGenerations: 10000})
	e.Run()
	if e.Generation() >= 10000 {
		t.Error("MaxStagnation never fired")
	}
}

func TestDefaultsApplied(t *testing.T) {
	e := New(sortProblem(5), rng.New(1), Config[[]int]{Pop: 7, Ops: permOps()})
	if len(e.Population()) != 8 {
		t.Errorf("odd population not rounded: %d", len(e.Population()))
	}
	if !e.Done() {
		e.Step()
	}
	// Default termination (100 generations) must exist.
	if e.cfg.Term.MaxGenerations != 100 {
		t.Errorf("default MaxGenerations = %d", e.cfg.Term.MaxGenerations)
	}
	if e.cfg.Elite != 1 || e.cfg.Fitness == nil {
		t.Error("defaults missing")
	}
}

func TestNewPanics(t *testing.T) {
	cases := map[string]func(){
		"nil problem": func() { New[[]int](nil, rng.New(1), Config[[]int]{Ops: permOps()}) },
		"nil rng":     func() { New(sortProblem(4), nil, Config[[]int]{Ops: permOps()}) },
		"missing ops": func() { New(sortProblem(4), rng.New(1), Config[[]int]{}) },
		"bad immigration": func() {
			New(sortProblem(4), rng.New(1), Config[[]int]{
				Ops: permOps(),
				Immigration: Immigration{
					Enabled: true, BestFrac: 0.5, CrossFrac: 0.1, RandomFrac: 0.1,
				},
			})
		},
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// sortProblemCloneInto is sortProblem with the CloneInto recycling seam, so
// the engine's genome freelist is exercised.
func sortProblemCloneInto(n int) Problem[[]int] {
	p := sortProblem(n).(FuncProblem[[]int])
	p.CloneIntoFn = func(dst, src []int) []int { return append(dst[:0], src...) }
	return p
}

// TestCloneIntoTrajectoryIdentical pins the recycling seam's contract: an
// engine recycling genome storage through CloneInto must follow exactly the
// trajectory of an engine that allocates every copy.
func TestCloneIntoTrajectoryIdentical(t *testing.T) {
	run := func(p Problem[[]int]) Result[[]int] {
		return New(p, rng.New(17), Config[[]int]{
			Pop: 30, Elite: 2, Ops: permOps(), Term: Termination{MaxGenerations: 60},
		}).Run()
	}
	plain := run(sortProblem(12))
	recycled := run(sortProblemCloneInto(12))
	if plain.Best.Obj != recycled.Best.Obj || plain.Evaluations != recycled.Evaluations {
		t.Fatalf("CloneInto diverged: %v/%v vs %v/%v",
			plain.Best.Obj, plain.Evaluations, recycled.Best.Obj, recycled.Evaluations)
	}
	for i := range plain.Best.Genome {
		if plain.Best.Genome[i] != recycled.Best.Genome[i] {
			t.Fatal("best genomes differ under CloneInto recycling")
		}
	}
}

// TestCloneIntoImmigrationTrajectoryIdentical covers the recycling seam on
// the immigration generation scheme as well.
func TestCloneIntoImmigrationTrajectoryIdentical(t *testing.T) {
	imm := Immigration{Enabled: true, BestFrac: 0.2, CrossFrac: 0.6, RandomFrac: 0.2}
	run := func(p Problem[[]int]) Result[[]int] {
		return New(p, rng.New(23), Config[[]int]{
			Pop: 20, Ops: permOps(), Immigration: imm,
			Term: Termination{MaxGenerations: 40},
		}).Run()
	}
	plain := run(sortProblem(10))
	recycled := run(sortProblemCloneInto(10))
	if plain.Best.Obj != recycled.Best.Obj || plain.Evaluations != recycled.Evaluations {
		t.Fatalf("CloneInto diverged under immigration: %v/%v vs %v/%v",
			plain.Best.Obj, plain.Evaluations, recycled.Best.Obj, recycled.Evaluations)
	}
}

// TestImmigrationElitesNotReevaluated pins the evaluation budget of the
// immigration scheme: elites carry their cached objective, so each
// generation spends Pop - nBest evaluations, not Pop.
func TestImmigrationElitesNotReevaluated(t *testing.T) {
	pop, gens := 20, 10
	e := New(sortProblem(8), rng.New(31), Config[[]int]{
		Pop: pop, Ops: permOps(),
		Immigration: Immigration{Enabled: true, BestFrac: 0.2, CrossFrac: 0.6, RandomFrac: 0.2},
		Term:        Termination{MaxGenerations: gens},
	})
	res := e.Run()
	nBest := int(float64(pop) * 0.2)
	want := int64(pop + gens*(pop-nBest))
	if res.Evaluations != want {
		t.Fatalf("evaluations = %d, want %d (init %d + %d gens x %d children)",
			res.Evaluations, want, pop, gens, pop-nBest)
	}
	// Elites must still carry consistent cached values.
	for _, ind := range e.Population() {
		if got := e.Problem().Evaluate(ind.Genome); got != ind.Obj {
			t.Fatalf("cached objective %v, re-evaluated %v", ind.Obj, got)
		}
	}
}

// TestStepReusesGenerationBuffers pins the double-buffering: after warm-up,
// the population slices alternate between exactly two backing arrays.
func TestStepReusesGenerationBuffers(t *testing.T) {
	e := New(sortProblem(8), rng.New(37), Config[[]int]{
		Pop: 16, Ops: permOps(), Term: Termination{MaxGenerations: 1 << 30},
	})
	e.Step()
	a := &e.Population()[0]
	e.Step()
	b := &e.Population()[0]
	if a == b {
		t.Fatal("consecutive generations share one buffer")
	}
	for i := 0; i < 6; i++ {
		e.Step()
		p := &e.Population()[0]
		if want := []*Individual[[]int]{a, b}[i%2]; p != want {
			t.Fatalf("step %d: population buffer not recycled", i)
		}
	}
}

func TestImmigrationScheme(t *testing.T) {
	e := New(sortProblem(8), rng.New(21), Config[[]int]{
		Pop: 20, Ops: permOps(),
		Immigration: Immigration{Enabled: true, BestFrac: 0.2, CrossFrac: 0.6, RandomFrac: 0.2},
		Term:        Termination{MaxGenerations: 50},
	})
	res := e.Run()
	if res.Best.Obj > 4 {
		t.Errorf("immigration GA made no progress: %v", res.Best.Obj)
	}
}

func TestOnGenerationHook(t *testing.T) {
	calls := 0
	e := New(sortProblem(5), rng.New(2), Config[[]int]{
		Pop: 10, Ops: permOps(), Term: Termination{MaxGenerations: 7},
		OnGeneration: func(gs GenStats) {
			calls++
			if gs.Generation != calls {
				t.Errorf("generation %d reported as %d", calls, gs.Generation)
			}
			if gs.MeanObj < gs.BestObj {
				t.Errorf("mean %v below best %v", gs.MeanObj, gs.BestObj)
			}
		},
	})
	e.Run()
	if calls != 7 {
		t.Errorf("hook called %d times", calls)
	}
}

// TestRecordMatchesSummarize: the inline mean/std of record() must equal
// stats.Summarize's bit for bit on random populations of every size,
// including duplicate objectives and wide magnitudes.
func TestRecordMatchesSummarize(t *testing.T) {
	var got GenStats
	e := New(sortProblem(5), rng.New(3), Config[[]int]{
		Pop: 10, Ops: permOps(), OnGeneration: func(gs GenStats) { got = gs },
	})
	r := rng.New(77)
	for trial := 0; trial < 500; trial++ {
		pop := make([]Individual[[]int], 1+r.Intn(200))
		scale := math.Pow(10, float64(r.Intn(12)-3))
		objs := make([]float64, len(pop))
		for i := range pop {
			pop[i].Obj = math.Round(r.Float64()*scale*float64(1+r.Intn(3))) / float64(1+r.Intn(7))
			objs[i] = pop[i].Obj
		}
		e.pop = pop
		e.record()
		want := stats.Summarize(objs)
		if got.MeanObj != want.Mean || got.StdObj != want.Std || got.BestObj != want.Min {
			t.Fatalf("trial %d (n=%d): record mean/std/best %v/%v/%v, Summarize %v/%v/%v",
				trial, len(pop), got.MeanObj, got.StdObj, got.BestObj, want.Mean, want.Std, want.Min)
		}
	}
}

// TestObservedStepAllocs: observing a run through OnGeneration must not
// cost a warm Step any allocation.
func TestObservedStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var last GenStats
	eng := New(shardedProblem(15), rng.New(8), Config[[]int]{
		Pop: 64, Ops: shardedOps(), Term: Termination{MaxGenerations: 1 << 30},
		OnGeneration: func(gs GenStats) { last = gs },
	})
	for i := 0; i < 60; i++ {
		eng.Step()
	}
	if avg := testing.AllocsPerRun(50, eng.Step); avg != 0 {
		t.Errorf("observed Step allocates %.1f/op, want 0", avg)
	}
	eng.Close()
	if last.Generation == 0 {
		t.Error("OnGeneration never called")
	}
}

func TestMakeIndividualAndSetPopulation(t *testing.T) {
	e := New(sortProblem(5), rng.New(9), Config[[]int]{Pop: 10, Ops: permOps()})
	before := e.Evaluations()
	ind := e.MakeIndividual([]int{0, 1, 2, 3, 4})
	if ind.Obj != 1 {
		t.Errorf("identity objective = %v", ind.Obj)
	}
	if e.Evaluations() != before+1 {
		t.Error("MakeIndividual did not count the evaluation")
	}
	pop := []Individual[[]int]{ind}
	e.SetPopulation(pop)
	if e.Best().Obj != 1 {
		t.Errorf("SetPopulation did not refresh best: %v", e.Best().Obj)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for empty population")
		}
	}()
	e.SetPopulation(nil)
}

func TestFitnessTransforms(t *testing.T) {
	h := HeuristicFitness(100)
	if h(40) != 60 || h(100) != 0 || h(150) != 0 {
		t.Error("HeuristicFitness (eq. 1) wrong")
	}
	inv := InverseFitness()
	if inv(4) != 0.25 {
		t.Error("InverseFitness (eq. 2) wrong")
	}
	if f := inv(0); math.IsInf(f, 1) || f <= 0 {
		t.Errorf("InverseFitness(0) must be large finite, got %v", f)
	}
}

func TestStagnationCounter(t *testing.T) {
	e := New(sortProblem(6), rng.New(30), Config[[]int]{
		Pop: 10, Ops: permOps(), Term: Termination{MaxGenerations: 1 << 30, MaxStagnation: 4},
	})
	e.Run()
	if e.Stagnation() < 4 {
		t.Errorf("stagnation = %d at termination", e.Stagnation())
	}
}
