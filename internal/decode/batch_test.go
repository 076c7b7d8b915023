package decode

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/shop"
)

// The batch layer must be bit-identical to the scalar kernels (which are
// themselves oracle-pinned to the schedule builders in kernels_test.go) for
// every genome, every shop kind, and every batch size — including ragged
// final tiles. Each property test reuses one BatchScratch across all batch
// sizes and trials so stale-state bugs (a slot's rows not reset between
// sweeps) surface.

// batchSizes spans 1..257: both tile boundaries (63/64/65, 128) and ragged
// final tiles (100, 257 = 4*64+1).
var batchSizes = []int{1, 2, 3, 7, 63, 64, 65, 100, 128, 257}

func maxBatchSize() int {
	max := 0
	for _, n := range batchSizes {
		if n > max {
			max = n
		}
	}
	return max
}

func TestBatchJobShopMatchesKernel(t *testing.T) {
	r := rng.New(21)
	s := NewScratch(shop.FT06())
	for name, in := range jobShopInstances() {
		b := NewBatchScratch(in)
		seqs := make([][]int, maxBatchSize())
		for i := range seqs {
			seqs[i] = RandomOpSequence(in, r)
		}
		out := make([]float64, len(seqs))
		for _, size := range batchSizes {
			for i := range out {
				out[i] = -1
			}
			b.JobShopMakespans(seqs[:size], out[:size])
			for i := 0; i < size; i++ {
				if want := float64(JobShopMakespan(in, seqs[i], s)); out[i] != want {
					t.Fatalf("%s size %d genome %d: batch %v, kernel %v", name, size, i, out[i], want)
				}
			}
		}
	}
}

func TestBatchFlowShopMatchesKernel(t *testing.T) {
	r := rng.New(22)
	// released staggers a generated instance's release dates, so the
	// first block's releases are read on multi-block shapes too.
	released := func(in *shop.Instance) *shop.Instance {
		for j := range in.Jobs {
			in.Jobs[j].Release = 1 + (j*37)%53
		}
		return in
	}
	instances := map[string]*shop.Instance{
		"12x5":  shop.GenerateFlowShop("b-fs", 12, 5, 81),
		"20x10": shop.GenerateFlowShop("b-fs2", 20, 10, 82),
		"1x1":   {Kind: shop.FlowShop, NumMachines: 1, Jobs: []shop.Job{{Ops: []shop.Operation{{Machines: []int{0}, Times: []int{4}}}, Release: 2}}},
		// A full block, then a padded one-stage last block.
		"15x6-released": released(shop.GenerateFlowShop("b-fs6", 15, 6, 83)),
		// Four blocks: first, two middle, last.
		"20x20-released": released(shop.GenerateFlowShop("b-fs20", 20, 20, 84)),
	}
	for name, in := range instances {
		b := NewBatchScratch(in)
		s := NewScratch(in)
		perms := make([][]int, maxBatchSize())
		for i := range perms {
			perms[i] = RandomPermutation(in, r)
		}
		out := make([]float64, len(perms))
		for _, size := range batchSizes {
			b.FlowShopMakespans(perms[:size], out[:size])
			for i := 0; i < size; i++ {
				if want := float64(FlowShopMakespanWith(in, perms[i], s)); out[i] != want {
					t.Fatalf("%s size %d genome %d: batch %v, kernel %v", name, size, i, out[i], want)
				}
			}
		}
	}
}

func TestBatchFallbackKindsMatchKernels(t *testing.T) {
	r := rng.New(23)

	js := shop.GenerateJobShop("b-gt", 8, 6, 51, 52)
	bj := NewBatchScratch(js)
	s := NewScratch(js)
	pris := make([][]float64, 65)
	for i := range pris {
		pri := make([]float64, js.TotalOps())
		for k := range pri {
			pri[k] = r.Float64()
		}
		pris[i] = pri
	}
	out := make([]float64, len(pris))
	for _, size := range []int{1, 64, 65} {
		bj.GifflerThompsonMakespans(pris[:size], out[:size])
		for i := 0; i < size; i++ {
			if want := float64(GifflerThompsonMakespan(js, pris[i], s)); out[i] != want {
				t.Fatalf("GT size %d genome %d: batch %v, kernel %v", size, i, out[i], want)
			}
		}
	}

	os := shop.GenerateOpenShop("b-os", 6, 5, 61)
	bo := NewBatchScratch(os)
	so := NewScratch(os)
	seqs := make([][]int, 65)
	for i := range seqs {
		seqs[i] = RandomOpSequence(os, r)
	}
	for _, rule := range []OpenRule{EarliestStart, LPTTask, LPTMachine} {
		bo.OpenShopMakespans(seqs, rule, out[:len(seqs)])
		for i, seq := range seqs {
			if want := float64(OpenShopMakespan(os, seq, rule, so)); out[i] != want {
				t.Fatalf("open/%v genome %d: batch %v, kernel %v", rule, i, out[i], want)
			}
		}
	}

	fj := shop.GenerateFlexibleJobShop("b-fj", 6, 5, 4, 3, 71)
	shop.WithSetupTimes(fj, 1, 9, 72)
	fj.SpeedLevels = []float64{1, 1.5, 2}
	bf := NewBatchScratch(fj)
	sf := NewScratch(fj)
	assigns := make([][]int, 65)
	fseqs := make([][]int, 65)
	speeds := make([][]int, 65)
	for i := range assigns {
		assigns[i] = RandomAssignment(fj, r)
		fseqs[i] = RandomOpSequence(fj, r)
		sp := make([]int, fj.TotalOps())
		for k := range sp {
			sp[k] = r.Intn(len(fj.SpeedLevels) * 2)
		}
		speeds[i] = sp
	}
	bf.FlexibleMakespans(assigns, fseqs, speeds, out[:65])
	for i := 0; i < 65; i++ {
		if want := float64(FlexibleMakespan(fj, assigns[i], fseqs[i], speeds[i], sf)); out[i] != want {
			t.Fatalf("flexible genome %d: batch %v, kernel %v", i, out[i], want)
		}
	}
	bf.FlexibleMakespans(assigns, fseqs, nil, out[:65])
	for i := 0; i < 65; i++ {
		if want := float64(FlexibleMakespan(fj, assigns[i], fseqs[i], nil, sf)); out[i] != want {
			t.Fatalf("flexible (no speeds) genome %d: batch %v, kernel %v", i, out[i], want)
		}
	}
}

// TestBatchJobShopPacksNoFlowTables: a regular job shop (every job has
// one op per machine, so it passes the flow sweep's shape guard) packs
// its job-shop table but none of the flow sweep's, which only flow-shop
// genomes read.
func TestBatchJobShopPacksNoFlowTables(t *testing.T) {
	for _, in := range []*shop.Instance{shop.FT06(), shop.GenerateJobShop("10x10", 10, 10, 914, 915)} {
		b := NewBatchScratch(in)
		if b.ops == nil {
			t.Errorf("%s: no job-shop table", in.Name)
		}
		if b.flowTab != nil || b.flowReady != nil || b.flowWork != nil {
			t.Errorf("%s: job-shop scratch holds flow tables (%d rows, %d ready, %d work)",
				in.Name, len(b.flowTab), len(b.flowReady), len(b.flowWork))
		}
	}
}

// TestBatchWideFallback: durations beyond int32 disable both int32 sweeps
// (the packed job-shop table and the flow-shop block table), and the scalar
// fallback must still agree with the kernels.
func TestBatchWideFallback(t *testing.T) {
	huge := 1 << 33
	in := &shop.Instance{
		Kind: shop.JobShop, NumMachines: 2,
		Jobs: []shop.Job{
			{Ops: []shop.Operation{
				{Machines: []int{0}, Times: []int{huge}},
				{Machines: []int{1}, Times: []int{3}},
			}},
			{Ops: []shop.Operation{
				{Machines: []int{1}, Times: []int{5}},
				{Machines: []int{0}, Times: []int{huge}},
			}},
		},
	}
	b := NewBatchScratch(in)
	if b.ops != nil || b.flowTab != nil {
		t.Fatal("expected scalar fallback for 2^33 durations")
	}
	seqs := [][]int{{0, 1, 0, 1}, {1, 0, 1, 0}, {0, 0, 1, 1}}
	out := make([]float64, len(seqs))
	b.JobShopMakespans(seqs, out)
	for i, seq := range seqs {
		if want := float64(JobShopMakespan(in, seq, b.Scalar())); out[i] != want {
			t.Fatalf("wide genome %d: batch %v, kernel %v", i, out[i], want)
		}
	}
	perms := [][]int{{0, 1}, {1, 0}, {1}}
	b.FlowShopMakespans(perms, out)
	for i, perm := range perms {
		if want := float64(FlowShopMakespanWith(in, perm, b.Scalar())); out[i] != want {
			t.Fatalf("wide flow perm %d: batch %v, kernel %v", i, out[i], want)
		}
	}
}

// TestBatchNarrowingBound: the job-shop sweep runs on int32 rows only when
// every completion time provably fits — max release + total processing
// time (+ each op's largest setup) <= MaxInt32. Past the bound the sweep
// must take the scalar fallback even though each value fits int32 alone;
// at the bound it must run and stay exact.
func TestBatchNarrowingBound(t *testing.T) {
	const max32 = 1<<31 - 1
	job := func(release int, ops ...[2]int) shop.Job {
		j := shop.Job{Release: release}
		for _, o := range ops {
			j.Ops = append(j.Ops, shop.Operation{Machines: []int{o[0]}, Times: []int{o[1]}})
		}
		return j
	}
	cases := []struct {
		name  string
		in    *shop.Instance
		batch bool
	}{
		{"total work past int32", &shop.Instance{Kind: shop.JobShop, NumMachines: 2, Jobs: []shop.Job{
			job(0, [2]int{0, 1 << 30}, [2]int{1, 1 << 30}),
			job(0, [2]int{1, 1 << 30}, [2]int{0, 1 << 30}),
		}}, false},
		{"release + work past int32", &shop.Instance{Kind: shop.JobShop, NumMachines: 2, Jobs: []shop.Job{
			job(max32-5, [2]int{0, 3}, [2]int{1, 3}),
			job(0, [2]int{1, 2}, [2]int{0, 2}),
		}}, false},
		{"setups past int32", shop.WithSetupTimes(&shop.Instance{Kind: shop.JobShop, NumMachines: 2, Jobs: []shop.Job{
			job(0, [2]int{0, 1}, [2]int{1, 1}),
			job(0, [2]int{1, 1}, [2]int{0, 1}),
		}}, 1<<30, 1<<30, 5), false},
		{"exactly at the bound", &shop.Instance{Kind: shop.JobShop, NumMachines: 2, Jobs: []shop.Job{
			job(max32-10, [2]int{0, 3}, [2]int{1, 3}),
			job(0, [2]int{1, 2}, [2]int{0, 2}),
		}}, true},
	}
	// One lockstep quad, then a remainder genome for the scalar kernel.
	seqs := [][]int{{0, 1, 0, 1}, {1, 0, 1, 0}, {0, 0, 1, 1}, {0, 1, 1, 0}, {1, 1, 0, 0, 1}}
	for _, c := range cases {
		b := NewBatchScratch(c.in)
		if got := b.ops != nil; got != c.batch {
			t.Fatalf("%s: lockstep sweep enabled = %v, want %v", c.name, got, c.batch)
		}
		out := make([]float64, len(seqs))
		b.JobShopMakespans(seqs, out)
		for i, seq := range seqs {
			if want := float64(JobShopMakespan(c.in, seq, b.Scalar())); out[i] != want {
				t.Fatalf("%s genome %d: batch %v, kernel %v", c.name, i, out[i], want)
			}
		}
	}
}

// TestBatchFlowNarrowingBound mirrors TestBatchNarrowingBound for the
// flow-shop register-block sweep: it runs on int32 block tables only on a
// regular instance with non-negative times and releases and max release +
// total work <= MaxInt32. Every case past that bound, and an irregular job,
// must take the scalar fallback; at the bound the sweep must run and stay
// exact, and a repeated-token stream whose work would pass the bound must
// fall back per genome.
func TestBatchFlowNarrowingBound(t *testing.T) {
	const max32 = 1<<31 - 1
	job := func(release int, times ...int) shop.Job {
		j := shop.Job{Release: release}
		for k, d := range times {
			j.Ops = append(j.Ops, shop.Operation{Machines: []int{k}, Times: []int{d}})
		}
		return j
	}
	flow := func(jobs ...shop.Job) *shop.Instance {
		return &shop.Instance{Kind: shop.FlowShop, NumMachines: 2, Jobs: jobs}
	}
	cases := []struct {
		name  string
		in    *shop.Instance
		batch bool
	}{
		{"total work past int32", flow(job(0, 1<<30, 1<<30), job(0, 1<<30, 1<<30)), false},
		{"release + work past int32", flow(job(max32-5, 3, 3), job(0, 2, 2)), false},
		{"negative duration", flow(job(0, 3, -1), job(0, 2, 2)), false},
		{"negative release", flow(job(-4, 3, 3), job(0, 2, 2)), false},
		{"irregular job with m-1 ops", flow(job(0, 3, 3), job(0, 2)), false},
		{"exactly at the bound", flow(job(max32-10, 3, 3), job(0, 2, 2)), true},
		{"at the bound, one heavy job", flow(job(0, 1<<30, 1<<30-2), job(1, 0, 0)), true},
	}
	// Permutations, a partial and a repeated stream, the empty stream and
	// one longer than n (always the scalar kernel).
	perms := [][]int{{0, 1}, {1, 0}, {0}, {}, {0, 0}, {1, 1}, {1, 0, 1}}
	for _, c := range cases {
		b := NewBatchScratch(c.in)
		if got := b.flowTab != nil; got != c.batch {
			t.Fatalf("%s: register-block sweep enabled = %v, want %v", c.name, got, c.batch)
		}
		out := make([]float64, len(perms))
		b.FlowShopMakespans(perms, out)
		for i, perm := range perms {
			if want := float64(FlowShopMakespanWith(c.in, perm, b.Scalar())); out[i] != want {
				t.Fatalf("%s perm %v: batch %v, kernel %v", c.name, perm, out[i], want)
			}
		}
	}
	heavy := NewBatchScratch(cases[len(cases)-1].in)
	for _, c := range []struct {
		perm  []int
		sweep bool
	}{{[]int{0, 1}, true}, {[]int{1, 1}, true}, {[]int{0, 0}, false}, {[]int{0, 1, 1}, false}} {
		if got := heavy.flowFits(c.perm); got != c.sweep {
			t.Fatalf("heavy job, perm %v: sweep = %v, want %v", c.perm, got, c.sweep)
		}
	}
}

// TestBatchRandomInstancesAllSizes is the broad property sweep: fresh random
// instances of the batch-kernel kinds, every batch size in 1..257 worth
// hitting, one shared BatchScratch per instance.
func TestBatchRandomInstancesAllSizes(t *testing.T) {
	r := rng.New(24)
	for trial := 0; trial < 6; trial++ {
		n := 2 + r.Intn(12)
		m := 1 + r.Intn(8)
		js := shop.GenerateJobShop("p-js", n, m, int32(30+trial), int32(60+trial))
		if trial%2 == 1 {
			shop.WithSetupTimes(js, 1, 6, int32(90+trial))
		}
		fs := shop.GenerateFlowShop("p-fs", n, m, int32(120+trial))
		checkBatchAgainstKernel(t, r, js, fs)
	}
}

func checkBatchAgainstKernel(t *testing.T, r *rng.RNG, js, fs *shop.Instance) {
	t.Helper()
	bj, bf := NewBatchScratch(js), NewBatchScratch(fs)
	s := NewScratch(js)
	sf := NewScratch(fs)
	seqs := make([][]int, maxBatchSize())
	perms := make([][]int, maxBatchSize())
	for i := range seqs {
		seqs[i] = RandomOpSequence(js, r)
		perms[i] = RandomPermutation(fs, r)
	}
	out := make([]float64, maxBatchSize())
	for _, size := range batchSizes {
		bj.JobShopMakespans(seqs[:size], out[:size])
		for i := 0; i < size; i++ {
			if want := float64(JobShopMakespan(js, seqs[i], s)); out[i] != want {
				t.Fatalf("%s size %d genome %d: batch %v, kernel %v", js.Name, size, i, out[i], want)
			}
		}
		bf.FlowShopMakespans(perms[:size], out[:size])
		for i := 0; i < size; i++ {
			if want := float64(FlowShopMakespanWith(fs, perms[i], sf)); out[i] != want {
				t.Fatalf("%s size %d genome %d: batch %v, kernel %v", fs.Name, size, i, out[i], want)
			}
		}
	}
}

// FuzzBatchJobShopEquivalence drives arbitrary instance shapes, seeds and
// batch sizes through batch-vs-kernel equivalence.
func FuzzBatchJobShopEquivalence(f *testing.F) {
	f.Add(int32(1), 4, 3, 17)
	f.Add(int32(2), 1, 1, 1)
	f.Add(int32(3), 9, 7, 257)
	f.Fuzz(func(t *testing.T, seed int32, n, m, size int) {
		if n < 1 || n > 16 || m < 1 || m > 12 || size < 1 || size > 257 {
			t.Skip()
		}
		if seed < 1 || seed > 1<<30 { // Taillard seeds live in [1, 2^31-2]
			t.Skip()
		}
		in := shop.GenerateJobShop("fuzz-js", n, m, seed, seed+1)
		if seed%3 == 0 {
			shop.WithSetupTimes(in, 1, 5, seed+2)
		}
		r := rng.New(uint64(uint32(seed)) + 7)
		b := NewBatchScratch(in)
		s := NewScratch(in)
		seqs := make([][]int, size)
		for i := range seqs {
			seqs[i] = RandomOpSequence(in, r)
		}
		out := make([]float64, size)
		b.JobShopMakespans(seqs, out)
		for i := 0; i < size; i++ {
			if want := float64(JobShopMakespan(in, seqs[i], s)); out[i] != want {
				t.Fatalf("size %d genome %d: batch %v, kernel %v", size, i, out[i], want)
			}
		}
	})
}

// FuzzBatchJobShopTokens feeds arbitrary token streams — fuzzer bytes
// mapped to job ids in [0,n), any multiplicity — through the job-shop
// sweep, so over-long tokens (the sentinel ops), short sequences and
// tokens of exhausted or operation-less jobs are all exercised, with and
// without setups, on ragged routes and non-zero releases. The bytes are
// split into four equal-length sequences (one lockstep quad) plus a
// remainder genome for the scalar fallback.
func FuzzBatchJobShopTokens(f *testing.F) {
	f.Add(int32(1), 4, 3, []byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(int32(2), 1, 1, []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(int32(3), 9, 7, []byte("over-long, short and exhausted tokens in one stream"))
	f.Add(int32(4), 5, 4, []byte{})
	f.Fuzz(func(t *testing.T, seed int32, n, m int, data []byte) {
		if n < 1 || n > 16 || m < 1 || m > 12 || seed < 1 || seed > 1<<30 || len(data) > 4096 {
			t.Skip()
		}
		l := len(data) / 4
		seqs := make([][]int, batchW+1)
		for i := range seqs {
			seqs[i] = make([]int, 0, l)
		}
		for i, c := range data {
			g := batchW
			if l > 0 && i/l < batchW {
				g = i / l
			}
			seqs[g] = append(seqs[g], int(c)%n)
		}
		for _, withSetups := range []bool{false, true} {
			in := shop.GenerateJobShop("fuzz-tok", n, m, seed, seed+1)
			for j := range in.Jobs {
				in.Jobs[j].Ops = in.Jobs[j].Ops[:(int(seed)+j)%(m+1)]
				in.Jobs[j].Release = (int(seed) * (j + 1)) % 23
			}
			if withSetups {
				shop.WithSetupTimes(in, 0, 7, seed+2)
			}
			b := NewBatchScratch(in)
			out := make([]float64, len(seqs))
			b.JobShopMakespans(seqs, out)
			for i, seq := range seqs {
				if want := float64(JobShopMakespan(in, seq, NewScratch(in))); out[i] != want {
					t.Fatalf("setups=%v genome %d %v: batch %v, kernel %v", withSetups, i, seq, out[i], want)
				}
			}
		}
	})
}

// FuzzBatchFlowShop turns fuzzer bytes into a flow shop — n in 1..24, m in
// 1..24 (one to five stage blocks, the last often zero-padded), releases and
// durations with zeros — and checks the register-block sweep against the
// scalar kernel on a permutation, partial and repeated token streams, the
// empty stream and streams longer than n (the scalar fallback), in one
// batch with an odd count.
func FuzzBatchFlowShop(f *testing.F) {
	f.Add([]byte{3, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 0, 3, 2, 1, 0, 3})
	f.Add([]byte{19, 4, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11, 13, 17, 19, 23, 29, 31, 37})
	f.Add([]byte{0, 0})
	f.Add([]byte{6, 6, 0, 0, 0, 0, 5})
	f.Add([]byte("zero-padded stages, repeated and over-long token streams"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 4096 {
			t.Skip()
		}
		n, m, body := 1+int(data[0])%24, 1+int(data[1])%24, data[2:]
		at := func(i int) int {
			if len(body) == 0 {
				return 0
			}
			return int(body[i%len(body)])
		}
		in := &shop.Instance{Kind: shop.FlowShop, NumMachines: m, Jobs: make([]shop.Job, n)}
		i := 0
		for j := range in.Jobs {
			in.Jobs[j].Release = at(i) % 9
			i++
			for k := 0; k < m; k++ {
				in.Jobs[j].Ops = append(in.Jobs[j].Ops, shop.Operation{Machines: []int{k}, Times: []int{at(i) % 41}})
				i++
			}
		}
		perm := make([]int, n)
		for j := range perm {
			perm[j] = j
		}
		for k, c := range body {
			perm[k%n], perm[int(c)%n] = perm[int(c)%n], perm[k%n]
		}
		stream := make([]int, len(body))
		for k, c := range body {
			stream[k] = int(c) % n
		}
		repeated := make([]int, n)
		for k := range repeated {
			repeated[k] = at(0) % n
		}
		longer := append(append([]int{}, perm...), stream...)
		longer = append(longer, perm[0])
		perms := [][]int{perm, stream[:min(len(stream), n/2)], repeated, {}, stream, longer, perm}
		b := NewBatchScratch(in)
		if b.flowTab == nil {
			t.Fatal("small non-negative flow shop must run the register-block sweep")
		}
		out := make([]float64, len(perms))
		b.FlowShopMakespans(perms, out)
		for g, p := range perms {
			if want := float64(FlowShopMakespanWith(in, p, NewScratch(in))); out[g] != want {
				t.Fatalf("%dx%d genome %d %v: batch %v, kernel %v", n, m, g, p, out[g], want)
			}
		}
	})
}

// TestBatchZeroAlloc is the batch-path contract: once a BatchScratch is
// built, batch calls allocate nothing for any batch size, ragged or odd,
// including a flow shop whose last stage block is zero-padded.
func TestBatchZeroAlloc(t *testing.T) {
	r := rng.New(25)
	js := shop.GenerateJobShop("z-bjs", 15, 10, 912, 913)
	jss := shop.WithSetupTimes(shop.GenerateJobShop("z-bjss", 15, 10, 914, 915), 1, 9, 916)
	fs := shop.GenerateFlowShop("z-bfs", 20, 5, 911)
	fs7 := shop.GenerateFlowShop("z-bfs7", 20, 7, 917)
	bj, bjs, bf, bf7 := NewBatchScratch(js), NewBatchScratch(jss), NewBatchScratch(fs), NewBatchScratch(fs7)
	seqs := make([][]int, 100) // ragged: 64 + 36
	perms := make([][]int, 100)
	for i := range seqs {
		seqs[i] = RandomOpSequence(js, r)
		perms[i] = RandomPermutation(fs, r)
	}
	out := make([]float64, 100)
	for _, size := range []int{100, 63} {
		if n := testing.AllocsPerRun(50, func() { bj.JobShopMakespans(seqs[:size], out) }); n != 0 {
			t.Errorf("JobShopMakespans allocates %v per batch of %d", n, size)
		}
		if n := testing.AllocsPerRun(50, func() { bjs.JobShopMakespans(seqs[:size], out) }); n != 0 {
			t.Errorf("JobShopMakespans with setups allocates %v per batch of %d", n, size)
		}
		if n := testing.AllocsPerRun(50, func() { bf.FlowShopMakespans(perms[:size], out) }); n != 0 {
			t.Errorf("FlowShopMakespans allocates %v per batch of %d", n, size)
		}
		if n := testing.AllocsPerRun(50, func() { bf7.FlowShopMakespans(perms[:size], out) }); n != 0 {
			t.Errorf("FlowShopMakespans on 20x7 allocates %v per batch of %d", n, size)
		}
	}
}
