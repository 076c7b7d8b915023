package cellular

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

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

func permCross(r *rng.RNG, a, b []int) ([]int, []int) {
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
}

func permMutate(r *rng.RNG, g []int) {
	i, j := r.Intn(len(g)), r.Intn(len(g))
	g[i], g[j] = g[j], g[i]
}

func baseConfig() Config[[]int] {
	return Config[[]int]{
		Width: 6, Height: 6,
		Cross: permCross, Mutate: permMutate,
		ReplaceIfBetter: true,
		Generations:     30,
	}
}

func TestNeighborhoodShapes(t *testing.T) {
	if len(L5.offsets()) != 4 || len(C9.offsets()) != 8 || len(L9.offsets()) != 8 {
		t.Fatal("neighbourhood sizes wrong")
	}
	if L5.String() != "L5" || C9.String() != "C9" || L9.String() != "L9" ||
		Neighborhood(9).String() != "Neighborhood(?)" {
		t.Error("names wrong")
	}
}

func TestNeighborsTorusWrap(t *testing.T) {
	m := New(sortProblem(5), rng.New(1), baseConfig())
	// Corner cell 0 on a 6x6 torus with L5: up wraps to row 5, left wraps
	// to column 5.
	nb := m.neighbors(0)
	want := map[int]bool{30: true, 6: true, 5: true, 1: true}
	if len(nb) != 4 {
		t.Fatalf("neighbors = %v", nb)
	}
	for _, v := range nb {
		if !want[v] {
			t.Fatalf("unexpected neighbor %d in %v", v, nb)
		}
	}
}

func TestRunImprovesAndTracksBest(t *testing.T) {
	cfg := baseConfig()
	var history []GenStats
	cfg.OnGeneration = func(gs GenStats) { history = append(history, gs) }
	m := New(sortProblem(10), rng.New(7), cfg)
	res := m.Run()
	if res.Best.Obj > 5 {
		t.Errorf("cellular GA made little progress: %v", res.Best.Obj)
	}
	if res.Generations != 30 || len(history) != 30 {
		t.Errorf("generations/history: %d/%d", res.Generations, len(history))
	}
	prev := history[0].BestSoFar
	for _, h := range history[1:] {
		if h.BestSoFar > prev {
			t.Fatalf("best-so-far worsened at gen %d", h.Generation)
		}
		prev = h.BestSoFar
	}
}

func TestPartitionedEqualsSequential(t *testing.T) {
	run := func(parts int) Result[[]int] {
		cfg := baseConfig()
		cfg.Partitions = parts
		return New(sortProblem(9), rng.New(42), cfg).Run()
	}
	seq := run(1)
	for _, p := range []int{2, 3, 6} {
		par := run(p)
		if par.Best.Obj != seq.Best.Obj || par.Evaluations != seq.Evaluations {
			t.Fatalf("partitions=%d diverged: %v vs %v", p, par.Best.Obj, seq.Best.Obj)
		}
		for i := range par.Best.Genome {
			if par.Best.Genome[i] != seq.Best.Genome[i] {
				t.Fatalf("partitions=%d best genome differs", p)
			}
		}
	}
}

func TestLineSweepRuns(t *testing.T) {
	cfg := baseConfig()
	cfg.Update = LineSweep
	res := New(sortProblem(8), rng.New(3), cfg).Run()
	if res.Best.Obj > 6 {
		t.Errorf("line-sweep made little progress: %v", res.Best.Obj)
	}
}

func TestReplaceIfBetterNeverWorsensCell(t *testing.T) {
	cfg := baseConfig()
	cfg.Generations = 10
	m := New(sortProblem(8), rng.New(5), cfg)
	before := make([]float64, len(m.Cells()))
	for i, c := range m.Cells() {
		before[i] = c.Obj
	}
	m.Step()
	for i, c := range m.Cells() {
		if c.Obj > before[i] {
			t.Fatalf("cell %d worsened from %v to %v under replace-if-better",
				i, before[i], c.Obj)
		}
	}
}

func TestTargetStopsEarly(t *testing.T) {
	cfg := baseConfig()
	cfg.Generations = 10000
	cfg.Target, cfg.TargetSet = 1, true
	cfg.Width, cfg.Height = 8, 8
	res := New(sortProblem(6), rng.New(11), cfg).Run()
	if res.Generations >= 10000 {
		t.Error("target did not stop the run")
	}
	if res.Best.Obj != 1 {
		t.Errorf("stopped before target: %v", res.Best.Obj)
	}
}

func TestDiversityTracking(t *testing.T) {
	cfg := baseConfig()
	cfg.GenomeInts = func(g []int) []int { return g }
	cfg.Generations = 40
	var history []GenStats
	cfg.OnGeneration = func(gs GenStats) { history = append(history, gs) }
	m := New(sortProblem(8), rng.New(13), cfg)
	initial := m.Diversity()
	m.Run()
	final := history[len(history)-1].Diversity
	if initial <= 0 || initial > 1 {
		t.Fatalf("initial diversity out of range: %v", initial)
	}
	if final >= initial {
		t.Errorf("diversity did not decrease: %v -> %v", initial, final)
	}
	// Without GenomeInts the statistic is disabled.
	cfg2 := baseConfig()
	m2 := New(sortProblem(8), rng.New(13), cfg2)
	if m2.Diversity() != -1 {
		t.Error("diversity should be -1 without GenomeInts")
	}
}

func TestVirtualTimeAccounting(t *testing.T) {
	mk := func(parts int, comm float64) Result[[]int] {
		cfg := baseConfig()
		cfg.Generations = 5
		cfg.Partitions = parts
		cfg.CellCost = 1
		cfg.CommCost = comm
		return New(sortProblem(8), rng.New(17), cfg).Run()
	}
	serial := mk(1, 0)
	if serial.VirtualTime != serial.VirtualSerial {
		t.Fatalf("1 partition must have no comm: %v vs %v", serial.VirtualTime, serial.VirtualSerial)
	}
	ideal := mk(4, 0)
	if sp := ideal.VirtualSerial / ideal.VirtualTime; sp < 3.99 || sp > 4.01 {
		t.Errorf("ideal 4-way speedup = %v", sp)
	}
	comm := mk(4, 0.5)
	spComm := comm.VirtualSerial / comm.VirtualTime
	if spComm >= 4 {
		t.Errorf("comm-charged speedup %v should be sub-ideal", spComm)
	}
	if spComm <= 1 {
		t.Errorf("comm charge should not erase all speedup here: %v", spComm)
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing operators")
		}
	}()
	New(sortProblem(4), rng.New(1), Config[[]int]{})
}

func TestOnGenerationHook(t *testing.T) {
	calls := 0
	cfg := baseConfig()
	cfg.Generations = 6
	cfg.OnGeneration = func(gs GenStats) {
		calls++
		if gs.MeanObj < gs.BestObj {
			t.Errorf("mean %v < best %v", gs.MeanObj, gs.BestObj)
		}
	}
	New(sortProblem(7), rng.New(19), cfg).Run()
	if calls != 6 {
		t.Errorf("hook called %d times", calls)
	}
}
