package decode

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/shop"
)

func TestOpOffsets(t *testing.T) {
	in := shop.GenerateFlexibleJobShop("x", 3, 4, 2, 2, 5)
	off := OpOffsets(in)
	if len(off) != 4 || off[0] != 0 || off[1] != 2 || off[2] != 4 || off[3] != 6 {
		t.Fatalf("offsets = %v", off)
	}
}

func TestRandomOpSequenceValid(t *testing.T) {
	in := shop.FT06()
	r := rng.New(1)
	for i := 0; i < 20; i++ {
		seq := RandomOpSequence(in, r)
		if err := CountOpSequence(in, seq); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRandomPermutation(t *testing.T) {
	in := shop.GenerateFlowShop("f", 7, 3, 99)
	r := rng.New(2)
	p := RandomPermutation(in, r)
	seen := make([]bool, 7)
	for _, v := range p {
		if v < 0 || v >= 7 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandomAndGreedyAssignment(t *testing.T) {
	in := shop.GenerateFlexibleJobShop("fj", 4, 5, 3, 3, 77)
	r := rng.New(3)
	a := RandomAssignment(in, r)
	if len(a) != in.TotalOps() {
		t.Fatalf("assignment length %d", len(a))
	}
	g := GreedyAssignment(in)
	off := OpOffsets(in)
	for j, job := range in.Jobs {
		for k, op := range job.Ops {
			idx := g[off[j]+k]
			for _, tt := range op.Times {
				if op.Times[idx] > tt {
					t.Fatalf("greedy assignment not minimal at (%d,%d)", j, k)
				}
			}
		}
	}
}

func TestCountOpSequenceErrors(t *testing.T) {
	in := shop.FT06()
	bad := make([]int, 36)
	bad[0] = 99
	if err := CountOpSequence(in, bad); err == nil {
		t.Error("expected out-of-range error")
	}
	short := []int{0, 0, 0}
	if err := CountOpSequence(in, short); err == nil {
		t.Error("expected count error")
	}
}

func TestRepairOpSequence(t *testing.T) {
	in := shop.FT06()
	r := rng.New(4)
	// Valid sequences are preserved exactly.
	seq := RandomOpSequence(in, r)
	repaired := RepairOpSequence(in, seq)
	for i := range seq {
		if repaired[i] != seq[i] {
			t.Fatalf("valid sequence modified at %d", i)
		}
	}
	// Arbitrary garbage becomes valid.
	f := func(raw []int8) bool {
		garbage := make([]int, len(raw))
		for i, v := range raw {
			garbage[i] = int(v)
		}
		out := RepairOpSequence(in, garbage)
		return CountOpSequence(in, out) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlowShopAgainstKnownValue(t *testing.T) {
	// 2 jobs, 2 machines: j0 = (3, 2), j1 = (1, 4).
	in := &shop.Instance{
		Name: "fs", Kind: shop.FlowShop, NumMachines: 2,
		Jobs: []shop.Job{
			{Ops: []shop.Operation{{Machines: []int{0}, Times: []int{3}}, {Machines: []int{1}, Times: []int{2}}}, Weight: 1},
			{Ops: []shop.Operation{{Machines: []int{0}, Times: []int{1}}, {Machines: []int{1}, Times: []int{4}}}, Weight: 1},
		},
	}
	// Order (1,0): M0: j1 [0,1), j0 [1,4); M1: j1 [1,5), j0 [5,7) -> 7.
	s := FlowShop(in, []int{1, 0})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if ms := s.Makespan(); ms != 7 {
		t.Fatalf("makespan = %d want 7", ms)
	}
	if fast := FlowShopMakespan(in, []int{1, 0}, nil); fast != 7 {
		t.Fatalf("fast makespan = %d want 7", fast)
	}
	// Order (0,1): M0: j0 [0,3), j1 [3,4); M1: j0 [3,5), j1 [5,9) -> 9.
	if fast := FlowShopMakespan(in, []int{0, 1}, nil); fast != 9 {
		t.Fatalf("fast makespan = %d want 9", fast)
	}
}

func TestFlowShopFastMatchesSchedule(t *testing.T) {
	in := shop.GenerateFlowShop("f", 12, 6, 4242)
	shop.WithReleases(in, 30, 4243)
	r := rng.New(5)
	buf := make([]int, in.NumMachines)
	for i := 0; i < 50; i++ {
		perm := RandomPermutation(in, r)
		s := FlowShop(in, perm)
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if got, want := FlowShopMakespan(in, perm, buf), s.Makespan(); got != want {
			t.Fatalf("fast %d != schedule %d for %v", got, want, perm)
		}
	}
}

func TestJobShopValidatesAndMatchesGraph(t *testing.T) {
	instances := []*shop.Instance{
		shop.FT06(),
		shop.GenerateJobShop("j1", 8, 5, 1001, 2002),
		shop.GenerateJobShop("j2", 5, 8, 3003, 4004),
	}
	r := rng.New(6)
	for _, in := range instances {
		for i := 0; i < 30; i++ {
			seq := RandomOpSequence(in, r)
			s := JobShop(in, seq)
			if err := s.Validate(); err != nil {
				t.Fatalf("%s: %v", in.Name, err)
			}
			gms, err := JobShopGraph(in, seq)
			if err != nil {
				t.Fatalf("%s: graph eval failed: %v", in.Name, err)
			}
			if gms != s.Makespan() {
				t.Fatalf("%s: graph makespan %d != list-scheduler %d", in.Name, gms, s.Makespan())
			}
			if lb := in.LowerBoundMakespan(); s.Makespan() < lb {
				t.Fatalf("%s: makespan %d below lower bound %d", in.Name, s.Makespan(), lb)
			}
		}
	}
}

func TestJobShopWithReleasesAndSetups(t *testing.T) {
	in := shop.GenerateJobShop("js", 6, 4, 11, 22)
	shop.WithReleases(in, 25, 33)
	shop.WithSetupTimes(in, 1, 6, 44)
	r := rng.New(7)
	for i := 0; i < 20; i++ {
		s := JobShop(in, RandomOpSequence(in, r))
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJobShopToleratesExcessTokens(t *testing.T) {
	in := shop.FT06()
	seq := RandomOpSequence(in, rng.New(8))
	seq = append(seq, 0, 1, 2) // junk tail must be ignored
	s := JobShop(in, seq)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMachineOrdersSorted(t *testing.T) {
	in := shop.FT06()
	s := JobShop(in, RandomOpSequence(in, rng.New(9)))
	orders := MachineOrders(s)
	off := OpOffsets(in)
	starts := map[int]int{}
	for _, a := range s.Ops {
		starts[off[a.Job]+a.Op] = a.Start
	}
	count := 0
	for _, order := range orders {
		count += len(order)
		for i := 1; i < len(order); i++ {
			if starts[order[i-1]] > starts[order[i]] {
				t.Fatalf("machine order not by start time: %v", order)
			}
		}
	}
	if count != in.TotalOps() {
		t.Fatalf("machine orders cover %d ops, want %d", count, in.TotalOps())
	}
}

func TestGifflerThompsonActiveAndValid(t *testing.T) {
	in := shop.FT06()
	r := rng.New(10)
	best := 1 << 30
	for i := 0; i < 60; i++ {
		pri := make([]float64, in.TotalOps())
		for k := range pri {
			pri[k] = r.Float64()
		}
		s := GifflerThompson(in, pri)
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if ms := s.Makespan(); ms < best {
			best = ms
		}
	}
	if best < shop.FT06Optimum {
		t.Fatalf("active schedule below proven optimum: %d", best)
	}
	// Active schedules on ft06 from 60 random priority vectors should land
	// well under the trivial serial bound and typically near the optimum.
	if best > 80 {
		t.Fatalf("best G&T makespan %d suspiciously poor", best)
	}
}

func TestGifflerThompsonDeterministic(t *testing.T) {
	in := shop.FT06()
	pri := make([]float64, in.TotalOps())
	for i := range pri {
		pri[i] = float64(i%7) * 0.1
	}
	a := GifflerThompson(in, pri)
	b := GifflerThompson(in, pri)
	if a.Makespan() != b.Makespan() {
		t.Fatal("G&T not deterministic")
	}
}

func TestOpenShopRules(t *testing.T) {
	in := shop.GenerateOpenShop("os", 6, 4, 555)
	r := rng.New(11)
	for _, rule := range []OpenRule{EarliestStart, LPTTask, LPTMachine} {
		for i := 0; i < 15; i++ {
			s := OpenShop(in, RandomOpSequence(in, r), rule)
			if err := s.Validate(); err != nil {
				t.Fatalf("%v: %v", rule, err)
			}
			if ms := s.Makespan(); ms < in.LowerBoundMakespan() {
				t.Fatalf("%v: makespan %d below bound", rule, ms)
			}
		}
	}
	if EarliestStart.String() == "" || LPTTask.String() == "" || LPTMachine.String() == "" ||
		OpenRule(9).String() != "OpenRule(?)" {
		t.Error("OpenRule.String broken")
	}
}

func TestOpenShopLPTTaskPicksLongest(t *testing.T) {
	// One job, two ops: M0 takes 2, M1 takes 9. LPT-Task must run M1 first.
	in := &shop.Instance{
		Name: "os1", Kind: shop.OpenShop, NumMachines: 2,
		Jobs: []shop.Job{{Ops: []shop.Operation{
			{Machines: []int{0}, Times: []int{2}},
			{Machines: []int{1}, Times: []int{9}},
		}, Weight: 1}},
	}
	s := OpenShop(in, []int{0, 0}, LPTTask)
	if s.Ops[0].Machine != 1 {
		t.Fatalf("LPT-Task scheduled machine %d first", s.Ops[0].Machine)
	}
}

func TestFlexibleDecoder(t *testing.T) {
	in := shop.GenerateFlexibleJobShop("fj", 6, 5, 4, 3, 808)
	shop.WithSetupTimes(in, 1, 5, 809)
	r := rng.New(12)
	for i := 0; i < 25; i++ {
		assign := RandomAssignment(in, r)
		seq := RandomOpSequence(in, r)
		s := Flexible(in, assign, seq, nil)
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// Assignment values out of range are wrapped, not rejected.
	assign := RandomAssignment(in, r)
	for i := range assign {
		assign[i] += 1000
	}
	s := Flexible(in, assign, RandomOpSequence(in, r), nil)
	if err := s.Validate(); err != nil {
		t.Fatalf("wrapped assignment: %v", err)
	}
}

func TestFlexibleWithSpeeds(t *testing.T) {
	in := shop.GenerateFlexibleFlowShop("ff", 4, []int{2, 2}, false, 606)
	shop.WithSpeedLevels(in, []float64{1, 2}, 2)
	r := rng.New(13)
	speeds := make([]int, in.TotalOps())
	for i := range speeds {
		speeds[i] = r.Intn(2)
	}
	s := Flexible(in, RandomAssignment(in, r), RandomOpSequence(in, r), speeds)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	fast := Flexible(in, RandomAssignment(in, r), RandomOpSequence(in, r), func() []int {
		all := make([]int, in.TotalOps())
		for i := range all {
			all[i] = 1
		}
		return all
	}())
	slow := Flexible(in, RandomAssignment(in, r), RandomOpSequence(in, r), make([]int, in.TotalOps()))
	if fast.Energy() <= slow.Energy() {
		t.Errorf("speed 2 should cost more energy: fast=%v slow=%v", fast.Energy(), slow.Energy())
	}
}

func TestSublotSizes(t *testing.T) {
	keys := []float64{0.5, 0.25, 0.25}
	sizes := SublotSizes(20, 3, keys)
	sum := 0
	for _, s := range sizes {
		if s < 1 {
			t.Fatalf("sublot size %d < 1", s)
		}
		sum += s
	}
	if sum != 20 {
		t.Fatalf("sizes sum to %d", sum)
	}
	if sizes[0] <= sizes[1] {
		t.Errorf("proportionality lost: %v", sizes)
	}
	// Degenerate keys still give a valid split.
	sizes = SublotSizes(5, 5, []float64{0, 0, 0, 0, 0})
	for _, s := range sizes {
		if s != 1 {
			t.Fatalf("five sublots of batch 5 must each be 1: %v", sizes)
		}
	}
}

func TestSublotSizesProperty(t *testing.T) {
	r := rng.New(15)
	f := func(batchRaw, countRaw uint8) bool {
		batch := int(batchRaw%50) + 1
		count := int(countRaw)%batch + 1
		keys := make([]float64, count)
		for i := range keys {
			keys[i] = r.Float64()
		}
		sizes := SublotSizes(batch, count, keys)
		sum := 0
		for _, s := range sizes {
			if s < 1 {
				return false
			}
			sum += s
		}
		return sum == batch
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSublotSizesPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { SublotSizes(3, 0, nil) },
		func() { SublotSizes(3, 4, make([]float64, 4)) },
		func() { SublotSizes(3, 2, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestExpandSublots(t *testing.T) {
	in := shop.GenerateFlexibleJobShop("ls", 3, 4, 3, 2, 121)
	shop.WithSetupTimes(in, 2, 7, 122)
	shop.WithBatchSizes(in, 6, 10, 123)
	sizes := make([][]int, 3)
	for j := range sizes {
		sizes[j] = SublotSizes(in.BatchSize[j], 2, []float64{0.6, 0.4})
	}
	out, origin := ExpandSublots(in, sizes)
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 6 || len(origin) != 6 {
		t.Fatalf("expanded to %d jobs", len(out.Jobs))
	}
	// Same-origin sublots have zero setup between them.
	if out.Setup[0][0][1] != 0 || out.Setup[0][1][0] != 0 {
		t.Error("same-origin setup not zeroed")
	}
	// Cross-origin setups inherited.
	if out.Setup[0][0][2] != in.Setup[0][0][1] {
		t.Errorf("cross setup %d want %d", out.Setup[0][0][2], in.Setup[0][0][1])
	}
	// Times scaled by sublot size.
	if want := in.Jobs[0].Ops[0].Times[0] * sizes[0][0]; out.Jobs[0].Ops[0].Times[0] != want {
		t.Errorf("time %d want %d", out.Jobs[0].Ops[0].Times[0], want)
	}
	// Decoding the expanded instance yields a valid schedule.
	r := rng.New(16)
	s := Flexible(out, RandomAssignment(out, r), RandomOpSequence(out, r), nil)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExpandSublotsPanics(t *testing.T) {
	in := shop.GenerateJobShop("p", 2, 2, 1, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic without batch sizes")
			}
		}()
		ExpandSublots(in, [][]int{{1}, {1}})
	}()
	shop.WithBatchSizes(in, 4, 4, 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on wrong sum")
			}
		}()
		ExpandSublots(in, [][]int{{1, 1}, {4}})
	}()
}

func TestReference(t *testing.T) {
	for _, in := range []*shop.Instance{
		shop.GenerateFlowShop("f", 8, 4, 21),
		shop.FT06(),
		shop.GenerateOpenShop("o", 6, 4, 22),
		shop.GenerateFlexibleJobShop("fj", 5, 4, 3, 2, 23),
	} {
		ref := Reference(in, shop.Makespan)
		if ref < float64(in.LowerBoundMakespan()) {
			t.Errorf("%s: reference %v below lower bound %d", in.Name, ref, in.LowerBoundMakespan())
		}
		if ref <= 0 {
			t.Errorf("%s: non-positive reference %v", in.Name, ref)
		}
	}
}

func TestAnyDispatch(t *testing.T) {
	r := rng.New(17)
	for _, in := range []*shop.Instance{
		shop.GenerateFlowShop("f", 6, 3, 31),
		shop.GenerateJobShop("j", 6, 3, 32, 33),
		shop.GenerateOpenShop("o", 6, 3, 34),
		shop.GenerateFlexibleJobShop("fj", 6, 3, 3, 2, 35),
		shop.GenerateFlexibleFlowShop("ff", 6, []int{2, 2}, true, 36),
	} {
		genome := RandomOpSequence
		if in.Kind == shop.FlowShop {
			genome = RandomPermutation
		}
		s := Any(in, genome(in, r))
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", in.Name, err)
		}
	}
}
