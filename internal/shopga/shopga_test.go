package shopga

import (
	"testing"

	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/island"
	"repro/internal/rng"
	"repro/internal/shop"
)

func TestFlowShopProblemsAgree(t *testing.T) {
	in := shop.GenerateFlowShop("f", 10, 5, 314)
	// A wrapped Makespan is not recognised as makespan, so it takes the
	// schedule-decoding path the completion-row kernel must agree with.
	general := FlowShopProblem(in, func(s *shop.Schedule) float64 { return shop.Makespan(s) })
	fast := FlowShopProblem(in, shop.Makespan)
	r := rng.New(1)
	for i := 0; i < 30; i++ {
		g := general.Random(r)
		if a, b := general.Evaluate(g), fast.Evaluate(g); a != b {
			t.Fatalf("objective mismatch: %v vs %v", a, b)
		}
	}
}

func TestProblemCloneIndependence(t *testing.T) {
	in := shop.FT06()
	p := JobShopProblem(in, shop.Makespan)
	r := rng.New(2)
	g := p.Random(r)
	c := p.Clone(g)
	c[0] = c[0] + 1 // mutating the clone must not affect the original
	if p.Evaluate(g) != p.Evaluate(append([]int(nil), g...)) {
		t.Fatal("original genome was mutated through the clone")
	}
}

func TestJobShopProblemMatchesDecoder(t *testing.T) {
	in := shop.FT06()
	p := JobShopProblem(in, shop.Makespan)
	r := rng.New(3)
	for i := 0; i < 20; i++ {
		g := decode.RandomOpSequence(in, r)
		if got, want := p.Evaluate(g), float64(decode.JobShop(in, g).Makespan()); got != want {
			t.Fatalf("evaluate %v != decode %v", got, want)
		}
	}
}

// TestProblemsMatchOracleDecoders pins the scratch-pooled evaluation paths
// (both the makespan kernels and the schedule-reusing Into decoders) to the
// original schedule-building decoders, for every environment.
func TestProblemsMatchOracleDecoders(t *testing.T) {
	r := rng.New(99)
	objs := map[string]shop.Objective{
		"makespan": shop.Makespan,
		"twc":      shop.TotalWeightedCompletion,
	}

	js := shop.GenerateJobShop("eq-js", 8, 5, 121, 122)
	shop.WithSetupTimes(js, 1, 5, 123)
	fs := shop.GenerateFlowShop("eq-fs", 10, 4, 124)
	os := shop.GenerateOpenShop("eq-os", 6, 5, 125)
	fj := shop.GenerateFlexibleJobShop("eq-fj", 6, 5, 4, 3, 126)

	for name, obj := range objs {
		jsp := JobShopProblem(js, obj)
		fsp := FlowShopProblem(fs, obj)
		osp := OpenShopProblem(os, decode.LPTMachine, obj)
		gtp := GTProblem(js, obj)
		fjp := FlexibleProblem(fj, obj)
		fxp := FixedAssignmentProblem(fj, decode.GreedyAssignment(fj), obj)
		for trial := 0; trial < 25; trial++ {
			seq := decode.RandomOpSequence(js, r)
			if got, want := jsp.Evaluate(seq), obj(decode.JobShop(js, seq)); got != want {
				t.Fatalf("%s job shop: %v != %v", name, got, want)
			}
			perm := decode.RandomPermutation(fs, r)
			if got, want := fsp.Evaluate(perm), obj(decode.FlowShop(fs, perm)); got != want {
				t.Fatalf("%s flow shop: %v != %v", name, got, want)
			}
			oseq := decode.RandomOpSequence(os, r)
			if got, want := osp.Evaluate(oseq), obj(decode.OpenShop(os, oseq, decode.LPTMachine)); got != want {
				t.Fatalf("%s open shop: %v != %v", name, got, want)
			}
			pri := gtp.Random(r)
			if got, want := gtp.Evaluate(pri), obj(decode.GifflerThompson(js, pri)); got != want {
				t.Fatalf("%s GT: %v != %v", name, got, want)
			}
			fg := fjp.Random(r)
			if got, want := fjp.Evaluate(fg), obj(decode.Flexible(fj, fg.Assign, fg.Seq, nil)); got != want {
				t.Fatalf("%s flexible: %v != %v", name, got, want)
			}
			greedy := decode.GreedyAssignment(fj)
			if got, want := fxp.Evaluate(fg.Seq), obj(decode.Flexible(fj, greedy, fg.Seq, nil)); got != want {
				t.Fatalf("%s fixed-assignment: %v != %v", name, got, want)
			}
		}
	}
}

// TestCloneIntoIndependence checks the recycling copies are deep: mutating
// a CloneInto result must not leak into the source genome.
func TestCloneIntoIndependence(t *testing.T) {
	in := shop.FT06()
	p := JobShopProblem(in, shop.Makespan)
	r := rng.New(5)
	src := decode.RandomOpSequence(in, r)
	orig := append([]int(nil), src...)
	dst := decode.RandomOpSequence(in, r)
	c := p.CloneInto(dst, src)
	c[0]++
	for i := range src {
		if src[i] != orig[i] {
			t.Fatal("CloneInto result aliases the source")
		}
	}

	fp := FlexibleProblem(shop.GenerateFlexibleJobShop("ci-fj", 4, 3, 3, 2, 9), shop.Makespan)
	a := FlexGenome{Assign: []int{1, 2, 3}, Seq: []int{0, 1, 2}}
	got := fp.CloneInto(FlexGenome{}, a)
	got.Assign[0], got.Seq[0] = 9, 9
	if a.Assign[0] == 9 || a.Seq[0] == 9 {
		t.Fatal("FlexGenome CloneInto aliases the source")
	}
}

func TestOpenShopAndGTProblems(t *testing.T) {
	os := shop.GenerateOpenShop("o", 5, 4, 271)
	p := OpenShopProblem(os, decode.LPTTask, shop.Makespan)
	r := rng.New(4)
	g := p.Random(r)
	if v := p.Evaluate(g); v < float64(os.LowerBoundMakespan()) {
		t.Fatalf("open shop objective %v below bound", v)
	}

	js := shop.FT06()
	gt := GTProblem(js, shop.Makespan)
	pri := gt.Random(r)
	if len(pri) != js.TotalOps() {
		t.Fatalf("priority vector length %d", len(pri))
	}
	if v := gt.Evaluate(pri); v < shop.FT06Optimum {
		t.Fatalf("GT objective %v below optimum", v)
	}
	c := gt.Clone(pri)
	c[0] = 99
	if pri[0] == 99 {
		t.Fatal("GT clone shares storage")
	}
}

func TestFlexibleProblemAndOps(t *testing.T) {
	in := shop.GenerateFlexibleJobShop("fj", 5, 4, 3, 3, 99)
	shop.WithSetupTimes(in, 1, 4, 100)
	p := FlexibleProblem(in, shop.Makespan)
	ops := FlexOps(in)
	r := rng.New(5)
	a, b := p.Random(r), p.Random(r)
	c1, c2 := ops.Cross(r, a, b)
	for _, g := range []FlexGenome{c1, c2} {
		if err := decode.CountOpSequence(in, g.Seq); err != nil {
			t.Fatalf("crossover broke sequence: %v", err)
		}
		if len(g.Assign) != in.TotalOps() {
			t.Fatalf("assignment length %d", len(g.Assign))
		}
		if v := p.Evaluate(g); v <= 0 {
			t.Fatalf("objective %v", v)
		}
	}
	limits := EligibleCounts(in)
	if len(limits) != in.TotalOps() {
		t.Fatalf("EligibleCounts length %d", len(limits))
	}
	for trial := 0; trial < 100; trial++ {
		ops.Mutate(r, c1)
	}
	if err := decode.CountOpSequence(in, c1.Seq); err != nil {
		t.Fatalf("mutation broke sequence: %v", err)
	}
	// View for diversity statistics.
	if len(SeqView(c1.Seq)) != len(c1.Seq) {
		t.Error("genome view broken")
	}
}

func TestOperatorBundlesDriveEngine(t *testing.T) {
	in := shop.GenerateFlowShop("f", 8, 4, 717)
	res := core.New(FlowShopProblem(in, shop.Makespan), rng.New(6), core.Config[[]int]{
		Pop: 30, Ops: PermOps(), Term: core.Termination{MaxGenerations: 40},
	}).Run()
	ref := decode.Reference(in, shop.Makespan)
	if res.Best.Obj > ref {
		t.Errorf("GA (%v) worse than dispatching heuristic (%v)", res.Best.Obj, ref)
	}
}

// TestIslandGAFindsFT06Optimum is the end-to-end integration anchor: the
// island GA over Giffler-Thompson priorities must reach the proven optimum
// (55) of the classic ft06 instance.
func TestIslandGAFindsFT06Optimum(t *testing.T) {
	in := shop.FT06()
	res := island.New(rng.New(2024), island.Config[[]float64]{
		Islands: 4, SubPop: 50, Interval: 5, Migrants: 2, Epochs: 100,
		Topology: island.Ring{},
		Engine:   core.Config[[]float64]{Ops: KeysOps(), Elite: 2},
		Problem: func(int) core.Problem[[]float64] {
			return GTProblem(in, shop.Makespan)
		},
		Target: shop.FT06Optimum, TargetSet: true,
	}).Run()
	if res.Best.Obj != shop.FT06Optimum {
		t.Fatalf("island GA reached only %v on ft06 (optimum %d)", res.Best.Obj, shop.FT06Optimum)
	}
	if res.Epochs >= 100 {
		t.Errorf("optimum found but target stop failed (epochs=%d)", res.Epochs)
	}
}

func TestSeqOpsValidOffspring(t *testing.T) {
	in := shop.FT06()
	ops := SeqOps(in)
	r := rng.New(7)
	a := decode.RandomOpSequence(in, r)
	b := decode.RandomOpSequence(in, r)
	for i := 0; i < 50; i++ {
		c1, c2 := ops.Cross(r, a, b)
		ops.Mutate(r, c1)
		if err := decode.CountOpSequence(in, c1); err != nil {
			t.Fatal(err)
		}
		if err := decode.CountOpSequence(in, c2); err != nil {
			t.Fatal(err)
		}
		a, b = c1, c2
	}
}
