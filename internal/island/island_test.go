package island

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
)

// sortProblem: permutation genome, objective = displaced elements + 1.
func sortProblem(n int) core.Problem[[]int] {
	return core.FuncProblem[[]int]{
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

func permOps() core.Operators[[]int] {
	return core.Operators[[]int]{
		Select: func(r *rng.RNG, pop []core.Individual[[]int]) int {
			a, b := r.Intn(len(pop)), r.Intn(len(pop))
			if pop[a].Fit >= pop[b].Fit {
				return a
			}
			return b
		},
		Cross: func(r *rng.RNG, a, b []int) ([]int, []int) {
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

func baseConfig(n int) Config[[]int] {
	return Config[[]int]{
		Islands: 4, SubPop: 16, Interval: 4, Migrants: 1, Epochs: 12,
		Engine:  core.Config[[]int]{Ops: permOps()},
		Problem: func(int) core.Problem[[]int] { return sortProblem(n) },
	}
}

func TestTopologyProperties(t *testing.T) {
	r := rng.New(1)
	topos := []Topology{Ring{}, BiRing{}, Torus2D{}, FullyConnected{}, Star{}, Hypercube{}}
	for _, topo := range topos {
		if topo.Name() == "" {
			t.Errorf("%T has empty name", topo)
		}
		for _, n := range []int{2, 3, 4, 6, 8, 9, 12} {
			for i := 0; i < n; i++ {
				targets := topo.Targets(i, n, 3, r)
				seen := map[int]bool{}
				for _, tgt := range targets {
					if tgt < 0 || tgt >= n {
						t.Fatalf("%s: target %d out of range (n=%d)", topo.Name(), tgt, n)
					}
					if tgt == i {
						t.Fatalf("%s: island %d targets itself", topo.Name(), i)
					}
					if seen[tgt] {
						t.Fatalf("%s: duplicate target %d", topo.Name(), tgt)
					}
					seen[tgt] = true
				}
			}
		}
	}
}

func TestTopologyShapes(t *testing.T) {
	r := rng.New(2)
	if got := (Ring{}).Targets(3, 8, 0, r); len(got) != 1 || got[0] != 4 {
		t.Errorf("ring targets = %v", got)
	}
	if got := (Ring{}).Targets(7, 8, 0, r); got[0] != 0 {
		t.Errorf("ring wrap = %v", got)
	}
	if got := (BiRing{}).Targets(0, 5, 0, r); len(got) != 2 {
		t.Errorf("bi-ring degree = %v", got)
	}
	if got := (FullyConnected{}).Targets(2, 6, 0, r); len(got) != 5 {
		t.Errorf("fully connected degree = %v", got)
	}
	// Star: hub reaches all leaves, leaves reach only the hub.
	if got := (Star{}).Targets(0, 5, 0, r); len(got) != 4 {
		t.Errorf("star hub = %v", got)
	}
	if got := (Star{}).Targets(3, 5, 0, r); len(got) != 1 || got[0] != 0 {
		t.Errorf("star leaf = %v", got)
	}
	// Hypercube with 8 islands: exactly 3 neighbours each (Asadzadeh).
	for i := 0; i < 8; i++ {
		if got := (Hypercube{}).Targets(i, 8, 0, r); len(got) != 3 {
			t.Errorf("cube degree at %d = %v", i, got)
		}
	}
	// Torus on 6 islands: 2x3 grid, degree 3..4 (wrap duplicates removed).
	for i := 0; i < 6; i++ {
		got := (Torus2D{}).Targets(i, 6, 0, r)
		if len(got) < 2 || len(got) > 4 {
			t.Errorf("torus degree at %d = %v", i, got)
		}
	}
	// Prime count degenerates to ring-ish (1 x n): two lateral neighbours.
	if got := (Torus2D{}).Targets(0, 7, 0, r); len(got) == 0 {
		t.Error("torus with prime n has no targets")
	}
}

func TestPolicyStrings(t *testing.T) {
	if BestMigrants.String() != "best" || RandomMigrants.String() != "random" {
		t.Error("MigrantSelect names")
	}
	if ReplaceWorst.String() != "replace-worst" || ReplaceRandom.String() != "replace-random" {
		t.Error("ReplacePolicy names")
	}
}

func TestNewValidation(t *testing.T) {
	cases := map[string]func(){
		"missing problem": func() { New(rng.New(1), Config[[]int]{Engine: core.Config[[]int]{Ops: permOps()}}) },
		"bad two-level": func() {
			cfg := baseConfig(6)
			cfg.TwoLevel = &TwoLevel{GN: 4, LN: 6}
			New(rng.New(1), cfg)
		},
		"merge without dist": func() {
			cfg := baseConfig(6)
			cfg.Merge = &MergeConfig[[]int]{Threshold: 1}
			New(rng.New(1), cfg)
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

func TestDeterminismAndParallelEquivalence(t *testing.T) {
	run := func(workers int) Result[[]int] {
		cfg := baseConfig(10)
		cfg.Workers = workers
		return New(rng.New(123), cfg).Run()
	}
	seq1, seq2 := run(1), run(1)
	if seq1.Best.Obj != seq2.Best.Obj || seq1.Evaluations != seq2.Evaluations {
		t.Fatalf("sequential runs diverged: %v/%v", seq1.Best.Obj, seq2.Best.Obj)
	}
	par := run(4)
	if par.Best.Obj != seq1.Best.Obj || par.Evaluations != seq1.Evaluations {
		t.Fatalf("parallel diverged from sequential: %v/%v evals %d/%d",
			par.Best.Obj, seq1.Best.Obj, par.Evaluations, seq1.Evaluations)
	}
	for i := range par.Best.Genome {
		if par.Best.Genome[i] != seq1.Best.Genome[i] {
			t.Fatal("parallel best genome differs")
		}
	}
}

func TestIslandRunImproves(t *testing.T) {
	res := New(rng.New(5), baseConfig(12)).Run()
	if res.Best.Obj > 6 {
		t.Errorf("island GA made little progress: best=%v", res.Best.Obj)
	}
	if res.Generations != 12*4 {
		t.Errorf("generations = %d", res.Generations)
	}
	if res.IslandsLeft != 4 || len(res.PerIsland) != 4 {
		t.Errorf("island count wrong: %d / %d", res.IslandsLeft, len(res.PerIsland))
	}
	if len(res.History) != res.Epochs {
		t.Errorf("history %d entries for %d epochs", len(res.History), res.Epochs)
	}
	for _, h := range res.History {
		if h.MeanBestObj < h.BestObj {
			t.Errorf("epoch %d: mean best %v below best %v", h.Epoch, h.MeanBestObj, h.BestObj)
		}
	}
}

func TestMigrationSpreadsBest(t *testing.T) {
	// Frequent, heavy, fully-connected best-replace-worst migration should
	// pull every island's best close to the global best.
	cfg := baseConfig(10)
	cfg.Topology = FullyConnected{}
	cfg.Migrants = 2
	cfg.Interval = 2
	cfg.Epochs = 15
	res := New(rng.New(9), cfg).Run()
	for i, b := range res.PerIsland {
		if b.Obj > res.Best.Obj+3 {
			t.Errorf("island %d best %v far from global %v despite broadcast migration",
				i, b.Obj, res.Best.Obj)
		}
	}
}

func TestTargetStopsEarly(t *testing.T) {
	cfg := baseConfig(6)
	cfg.Epochs = 1000
	cfg.Target, cfg.TargetSet = 1, true
	res := New(rng.New(11), cfg).Run()
	if res.Epochs >= 1000 {
		t.Errorf("target did not stop the run (epochs=%d)", res.Epochs)
	}
	if res.Best.Obj != 1 {
		t.Errorf("stopped without reaching target: %v", res.Best.Obj)
	}
}

func TestMergeOnStagnation(t *testing.T) {
	cfg := baseConfig(8)
	cfg.Epochs = 6
	// Dist 0 for everything: every island is immediately "stagnated".
	cfg.Merge = &MergeConfig[[]int]{
		Dist:      func(a, b []int) int { return 0 },
		Threshold: 1,
	}
	res := New(rng.New(13), cfg).Run()
	if res.IslandsLeft != 1 {
		t.Errorf("merging left %d islands", res.IslandsLeft)
	}
	// The merged island carries the union population.
	if res.Evaluations <= 0 {
		t.Error("evaluations lost during merge")
	}
}

func TestMergeRealisticCriterion(t *testing.T) {
	cfg := baseConfig(8)
	cfg.Epochs = 4
	// Hamming distance with a generous threshold merges only genuinely
	// similar populations; fresh random islands should survive epoch 1.
	cfg.Merge = &MergeConfig[[]int]{
		Dist:      stats.HammingDistance,
		Threshold: 2,
	}
	m := New(rng.New(17), cfg)
	m.stepAll()
	m.maybeMerge()
	if len(m.Engines()) < 2 {
		t.Error("diverse islands merged prematurely")
	}
}

func TestTwoLevelBroadcast(t *testing.T) {
	cfg := baseConfig(10)
	cfg.TwoLevel = &TwoLevel{GN: 2, LN: 6}
	cfg.Epochs = 9
	res := New(rng.New(19), cfg).Run()
	if res.Best.Obj > 6 {
		t.Errorf("two-level run best = %v", res.Best.Obj)
	}
	// After broadcasts, island bests should be tightly clustered.
	spread := 0.0
	for _, b := range res.PerIsland {
		if d := b.Obj - res.Best.Obj; d > spread {
			spread = d
		}
	}
	if spread > 5 {
		t.Errorf("island bests spread %v despite broadcasts", spread)
	}
}

func TestSharedStartIdenticalWithoutMigration(t *testing.T) {
	cfg := baseConfig(9)
	cfg.SharedStart = true
	cfg.Migrants = 1
	cfg.Islands = 3
	cfg.Epochs = 0 // no evolution: just initial populations
	m := New(rng.New(23), cfg)
	e0 := m.Engines()[0].Population()
	for i, e := range m.Engines()[1:] {
		pop := e.Population()
		for k := range pop {
			for x := range pop[k].Genome {
				if pop[k].Genome[x] != e0[k].Genome[x] {
					t.Fatalf("island %d population differs from island 0 despite shared start", i+1)
				}
			}
		}
	}
}

func TestPerIslandHeterogeneous(t *testing.T) {
	mutCalls := make([]int, 2)
	cfg := baseConfig(8)
	cfg.Islands = 2
	cfg.Epochs = 3
	cfg.Workers = 1 // counters below are not synchronised
	cfg.PerIsland = func(i int, base core.Config[[]int]) core.Config[[]int] {
		ops := base.Ops
		inner := ops.Mutate
		ops.Mutate = func(r *rng.RNG, g []int) {
			mutCalls[i]++
			inner(r, g)
		}
		base.Ops = ops
		if i == 1 {
			base.MutationRate = 1.0
		} else {
			base.MutationRate = 0.01
		}
		return base
	}
	New(rng.New(29), cfg).Run()
	if mutCalls[1] <= mutCalls[0] {
		t.Errorf("heterogeneous rates ignored: %v", mutCalls)
	}
}

func TestPerIslandProblems(t *testing.T) {
	// Islands weight the objective differently (Rashidi's weighted pairs);
	// migration must re-evaluate under the target island's objective.
	cfg := baseConfig(8)
	cfg.Islands = 2
	cfg.Epochs = 5
	cfg.Topology = FullyConnected{}
	base := sortProblem(8)
	cfg.Problem = func(i int) core.Problem[[]int] {
		scale := float64(i + 1)
		return core.FuncProblem[[]int]{
			RandomFn:   base.Random,
			CloneFn:    base.Clone,
			EvaluateFn: func(g []int) float64 { return scale * base.Evaluate(g) },
		}
	}
	res := New(rng.New(31), cfg).Run()
	// Island 1 doubles the base objective (an integer >= 1), so every value
	// it reports — including re-evaluated immigrants — must be an even
	// number >= 2. An unscaled (foreign) evaluation would leak an odd value.
	obj1 := res.PerIsland[1].Obj
	if obj1 < 2 || obj1 != float64(2*int(obj1/2)) {
		t.Errorf("island 1 objective %v not consistent with its x2 scale", obj1)
	}
	for _, ind := range New(rng.New(31), cfg).Engines()[1].Population() {
		if ind.Obj < 2 || ind.Obj != float64(2*int(ind.Obj/2)) {
			t.Fatalf("island 1 resident with unscaled objective %v", ind.Obj)
		}
	}
}

func TestReplaceAndSelectPolicies(t *testing.T) {
	for _, sel := range []MigrantSelect{BestMigrants, RandomMigrants} {
		for _, rep := range []ReplacePolicy{ReplaceWorst, ReplaceRandom} {
			cfg := baseConfig(8)
			cfg.Select, cfg.Replace = sel, rep
			cfg.Epochs = 5
			res := New(rng.New(37), cfg).Run()
			if res.Best.Obj >= 9 {
				t.Errorf("%v/%v: no progress", sel, rep)
			}
		}
	}
}
