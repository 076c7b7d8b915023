package repro

// BenchmarkHotPath tracks the zero-allocation evaluation pipeline against
// the schedule-building oracle decoders, pairing each environment's
// "schedule" path (materialise a shop.Schedule, then take its objective)
// with its "kernel" path (decode into a reusable Scratch, return the
// objective directly). The measured baseline is recorded in
// BENCH_hotpath.json; regenerate it with
//
//	go test -run='^$' -bench=BenchmarkHotPath -benchtime=1s -benchmem . ./internal/core/
//
// (internal/core holds the engine-internal elitism row), run 5 or more
// times interleaved with the same command on a build of the commit being
// compared against, recording each row as the median of its runs; the
// ledger's "command" field names the runs behind each row.
// CI runs the suite with -benchtime=1x as a smoke test so the kernels and
// their alloc counters stay exercised on every PR.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/federation"
	"repro/internal/island"
	"repro/internal/op"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/shop"
	"repro/internal/shopga"
	"repro/internal/solver"
)

func BenchmarkHotPath(b *testing.B) {
	r := rng.New(42)

	// Batch rows (the third evaluation rung) decode one whole batchN-genome
	// batch through the batch kernels per benchmark op, so their ns/op is
	// per batch — divide by batchN to compare against the per-genome kernel
	// rows (BENCH_hotpath.json records the derived per-genome ratio).
	const batchN = 64

	// jobShops[1] is the engine-step and variation instance; 10x10 is the
	// shape of perfbench's ms, island, queue and fed2 jobs.
	jobShops := []*shop.Instance{
		shop.FT06(),
		shop.GenerateJobShop("hp-15x10", 15, 10, 912, 913),
		shop.GenerateJobShop("10x10", 10, 10, 914, 915),
	}
	for _, in := range jobShops {
		seq := decode.RandomOpSequence(in, r)
		name := fmt.Sprintf("jobshop-%s", in.Name)
		b.Run(name+"/schedule", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = decode.JobShop(in, seq).Makespan()
			}
		})
		b.Run(name+"/kernel", func(b *testing.B) {
			s := decode.NewScratch(in)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = decode.JobShopMakespan(in, seq, s)
			}
		})
	}

	fs := shop.GenerateFlowShop("hp-fs-20x5", 20, 5, 911)
	perm := decode.RandomPermutation(fs, r)
	b.Run("flowshop-hp-fs-20x5/schedule", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = decode.FlowShop(fs, perm).Makespan()
		}
	})
	b.Run("flowshop-hp-fs-20x5/kernel", func(b *testing.B) {
		s := decode.NewScratch(fs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = decode.FlowShopMakespanWith(fs, perm, s)
		}
	})
	fsPerms := make([][]int, batchN)
	for i := range fsPerms {
		fsPerms[i] = decode.RandomPermutation(fs, r)
	}
	fsOut := make([]float64, batchN)
	b.Run(fmt.Sprintf("flowshop-hp-fs-20x5/batch-%d", batchN), func(b *testing.B) {
		bs := decode.NewBatchScratch(fs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bs.FlowShopMakespans(fsPerms, fsOut)
		}
	})

	for _, in := range jobShops {
		seqs := make([][]int, batchN)
		for i := range seqs {
			seqs[i] = decode.RandomOpSequence(in, r)
		}
		out := make([]float64, batchN)
		b.Run(fmt.Sprintf("jobshop-%s/batch-%d", in.Name, batchN), func(b *testing.B) {
			bs := decode.NewBatchScratch(in)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bs.JobShopMakespans(seqs, out)
			}
		})
	}

	gt := shop.FT06()
	pri := make([]float64, gt.TotalOps())
	for i := range pri {
		pri[i] = r.Float64()
	}
	b.Run("gt-ft06/schedule", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = decode.GifflerThompson(gt, pri).Makespan()
		}
	})
	b.Run("gt-ft06/kernel", func(b *testing.B) {
		s := decode.NewScratch(gt)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = decode.GifflerThompsonMakespan(gt, pri, s)
		}
	})

	// Variation rows: one warm recycling crossover (two children into
	// recycled storage) on the engine-step job shop and on the flow shop
	// row's permutations — the operators SeqOps and PermOps hand the
	// sharded pipeline. The elitism-160 row lives in internal/core's
	// BenchmarkHotPath (the pass is engine-internal).
	variation := []struct {
		name string
		into core.CrossoverInto[[]int]
		a, b []int
	}{
		{"variation-15x10/jox", op.JOXInto(len(jobShops[1].Jobs))(),
			decode.RandomOpSequence(jobShops[1], r), decode.RandomOpSequence(jobShops[1], r)},
		{"variation-10x10/jox", op.JOXInto(len(jobShops[2].Jobs))(),
			decode.RandomOpSequence(jobShops[2], r), decode.RandomOpSequence(jobShops[2], r)},
		{"variation-fs-20/ox", op.OXInto()(), decode.RandomPermutation(fs, r), decode.RandomPermutation(fs, r)},
	}
	for _, v := range variation {
		b.Run(v.name, func(b *testing.B) {
			vr := rng.New(11)
			d1, d2 := v.into(vr, v.a, v.b, nil, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d1, d2 = v.into(vr, v.a, v.b, d1, d2)
			}
		})
	}

	// Federation wire: one marshal + unmarshal of a fed2-shaped shard
	// checkpoint (ft10, 2 islands x 100, so 200 packed genomes) — what a
	// failover-enabled shard pushes to its owner every epoch. wire_bytes
	// is the encoded size.
	b.Run("checkpoint-wire-ft10-200", func(b *testing.B) {
		var cp *solver.Checkpoint
		_, err := solver.SolveWithCheckpoints(context.Background(), solver.Spec{
			Problem: solver.ProblemSpec{Instance: "ft10"},
			Model:   "island",
			Params:  solver.Params{Pop: 200, Islands: 2, Workers: 1},
			Budget:  solver.Budget{Generations: 20},
			Seed:    7,
		}, solver.CheckpointOptions{Every: 10, Save: func(c *solver.Checkpoint) { cp = c }})
		if err != nil || cp == nil {
			b.Fatalf("no shard checkpoint: %v", err)
		}
		var raw []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if raw, err = json.Marshal(cp); err != nil {
				b.Fatal(err)
			}
			var back solver.Checkpoint
			if err = json.Unmarshal(raw, &back); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(raw)), "wire_bytes")
	})

	// End to end: one engine generation on the 20x5 flow shop at perfbench
	// flow's population (OX variation, register-block batch evaluation),
	// then on the 15x10 job shop. N workers own whole shards of the
	// generation and evaluate each shard with one batch call; shard-1 vs
	// shard-4 is the parallel-step speedup the CI gate ratchets
	// (TestShardedStepSpeedup).
	b.Run("engine-step-fs-20x5/shard-1", func(b *testing.B) {
		eng := core.New(shopga.FlowShopProblem(fs, shop.Makespan), rng.New(7), core.Config[[]int]{
			Pop: 160, Ops: shopga.PermOps(), Workers: 1,
			Term: core.Termination{MaxGenerations: 1 << 30},
		})
		defer eng.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Step()
		}
	})
	js := jobShops[1]
	prob := shopga.JobShopProblem(js, shop.Makespan)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("engine-step-15x10/shard-%d", workers), func(b *testing.B) {
			eng := core.New(prob, rng.New(7), core.Config[[]int]{
				Pop: 64, Ops: shopga.SeqOps(js), Workers: workers,
				Term: core.Termination{MaxGenerations: 1 << 30},
			})
			defer eng.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
	}

	// The perfbench ms shape: a 10x10 job shop at pop 80. shard-2 vs
	// shard-1 is the 2-worker step speedup, where the step barrier's
	// hand-off cost shows against only ~50-100 us of work per generation;
	// shard-2x2 steps two 2-worker engines concurrently, so four executors
	// share the host's cores, and reports the wall time per step of either
	// engine.
	ms := jobShops[2]
	msProb := shopga.JobShopProblem(ms, shop.Makespan)
	msEngine := func(workers int) *core.Engine[[]int] {
		return core.New(msProb, rng.New(7), core.Config[[]int]{
			Pop: 80, Ops: shopga.SeqOps(ms), Workers: workers,
			Term: core.Termination{MaxGenerations: 1 << 30},
		})
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("engine-step-10x10-pop80/shard-%d", workers), func(b *testing.B) {
			eng := msEngine(workers)
			defer eng.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
	}
	b.Run("engine-step-10x10-pop80/shard-2x2", func(b *testing.B) {
		a, c := msEngine(2), msEngine(2)
		defer a.Close()
		defer c.Close()
		b.ReportAllocs()
		b.ResetTimer()
		done := make(chan struct{})
		go func() {
			for i := 0; i < b.N; i++ {
				c.Step()
			}
			close(done)
		}()
		for i := 0; i < b.N; i++ {
			a.Step()
		}
		<-done
	})

	// In-process islands at perfbench island's shape: the 10x10 job shop,
	// 4 islands of 30, ring migration every 5 generations. One op is one
	// migration epoch (every island steps 5 generations, then the ring
	// exchange); workers-N steps the islands on an N-wide executor.
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("island-epoch-10x10-pop120/workers-%d", workers), func(b *testing.B) {
			m := island.New(rng.New(7), island.Config[[]int]{
				Islands: 4, SubPop: 30, Interval: 5, Epochs: b.N,
				Workers: workers,
				Engine:  core.Config[[]int]{Ops: shopga.SeqOps(ms)},
				Problem: func(int) core.Problem[[]int] { return msProb },
			})
			b.ReportAllocs()
			b.ResetTimer()
			m.Run()
		})
	}

	// HTTP job transport: a runner job emits started, 300 generation
	// events and done (a perfbench ms/flow job's 302 frames) through
	// serve.Server under httptest, and the stream is read raw the way
	// perfbench's client reads it. The runner starts once the stream is
	// open and emits back to back, so ns/op is the event stream's own cost
	// per job; B/op and allocs/op count server and client together.
	b.Run("sse-job-302", func(b *testing.B) { benchSSEJob(b, 300, 0) })
	// The same job paced like a model: the runner spins a fixed amount of
	// work (tens of us, on the order of one flow generation) before each
	// progress event and times every emit call, reported as ns/emit. That
	// is the cost a job's compute goroutine pays per event with a live
	// stream attached, which the back-to-back sse-job-302 row cannot show.
	b.Run("sse-paced-302", func(b *testing.B) { benchSSEJob(b, 300, 1<<14) })

	// Federation hop: two compute-free shards on two in-process nodes
	// under httptest meet at barrier after barrier. Each epoch both shards
	// send their batch and wait for the other's, so the two hops of an
	// epoch overlap and ns/op is one hop: from a shard's send to the peer
	// barrier's wake-up.
	b.Run("fed-epoch-hop", benchFedEpochHop)
}

// benchFedEpochHop runs BenchmarkHotPath's fed-epoch-hop row: b.N
// lockstep epochs of a two-node federated run, each shard sending the
// two fed2-shaped migrants (10x10 operation sequences) a real epoch
// ships.
func benchFedEpochHop(b *testing.B) {
	handlers := make([]atomic.Pointer[http.Handler], 2)
	urls := make([]string, 2)
	for i := range urls {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*handlers[i].Load()).ServeHTTP(w, r)
		}))
		defer ts.Close()
		urls[i] = ts.URL
	}
	ctx := context.Background()
	nodes := make([]*federation.Node, 2)
	for i := range nodes {
		srv, err := serve.New(serve.Config{})
		if err != nil {
			b.Fatal(err)
		}
		node, err := federation.New(federation.Config{Self: urls[i], Peers: urls, Service: srv.Service()})
		if err != nil {
			b.Fatal(err)
		}
		srv.SetFederation(node)
		h := node.Handler()
		handlers[i].Store(&h)
		defer srv.Drain(ctx)
		nodes[i] = node
	}
	in := shop.GenerateJobShop("10x10", 10, 10, 914, 915)
	r := rng.New(3)
	out := make([]solver.Migrant, 2)
	for i := range out {
		out[i] = solver.Migrant{Genome: solver.Genome{Seq: decode.RandomOpSequence(in, r)}, Obj: 1000}
	}
	const key, warm = "f0-hop-1", 8
	epochs := func(from, to int) {
		var wg sync.WaitGroup
		for _, n := range nodes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for e := from; e < to; e++ {
					want := len(out)
					if e == 0 {
						want = 0 // epoch 0 injects nothing
					}
					if rep := n.ExchangeMigrants(ctx, key, n.Rank(), e, out, nil); len(rep.Degraded) > 0 || len(rep.In) != want {
						b.Errorf("epoch %d on rank %d: %d migrants in, degraded %v", e, n.Rank(), len(rep.In), rep.Degraded)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	for _, n := range nodes {
		n.ShardStarted(key, n.Rank(), 2, 0)
		defer n.ShardFinished(key, n.Rank())
	}
	epochs(0, warm) // connections up before the timer starts
	b.ReportAllocs()
	b.ResetTimer()
	epochs(warm, warm+b.N)
}

// spinSink keeps spinWork's result live.
var spinSink uint64

// spinWork is n dependent multiply-adds: a fixed amount of CPU work that,
// unlike a sleep or a deadline loop, takes the same instructions on
// every build.
func spinWork(n int) {
	x := spinSink
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink = x
}

// benchSSEJob runs one SSE job per op with the given number of progress
// events; see BenchmarkHotPath's sse-job-302 row. With spin > 0 the
// runner does spinWork(spin) before each event and the row also reports
// the mean duration of an emit call (sse-paced-302).
func benchSSEJob(b *testing.B, progress, spin int) {
	// The replay ring and the subscriber buffer both hold the whole job,
	// so no frame is lost however the runner and the stream interleave.
	srv, err := serve.New(serve.Config{EventHistory: 512})
	if err != nil {
		b.Fatal(err)
	}
	srv.Service().EventBuffer = 512
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	defer srv.Drain(ctx)
	spec := solver.Spec{
		Problem: solver.ProblemSpec{Instance: "ft10"},
		Model:   "ms",
		Params:  solver.Params{Pop: 80, Workers: 2},
		Budget:  solver.Budget{Generations: progress},
	}
	var emitTime time.Duration // written by each runner, read after its Await
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		open := make(chan struct{})
		job, err := srv.Service().SubmitRunner(ctx, spec, func(ctx context.Context, emit func(solver.Event)) (*solver.Result, error) {
			<-open
			for g := 1; g <= progress; g++ {
				ev := solver.Event{Type: solver.EventGeneration, Generation: g, Evaluations: int64(80 * g), BestObjective: 1000}
				if spin == 0 {
					emit(ev)
					continue
				}
				spinWork(spin)
				t0 := time.Now()
				emit(ev)
				emitTime += time.Since(t0)
			}
			return &solver.Result{Model: "ms", Instance: "ft10", Generations: progress, Evaluations: int64(80 * progress), BestObjective: 1000}, nil
		})
		if err != nil {
			b.Fatal(err)
		}
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + job.ID() + "/events")
		close(open)
		if err != nil {
			b.Fatal(err)
		}
		frames, err := readSSEUntilDone(resp.Body)
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || frames != progress+2 {
			b.Fatalf("read %d frames (%v), want %d", frames, err, progress+2)
		}
		if _, err := job.Await(ctx); err != nil {
			b.Fatal(err)
		}
		srv.Service().Remove(job.ID())
	}
	if spin > 0 {
		b.ReportMetric(float64(emitTime.Nanoseconds())/float64(b.N*progress), "ns/emit")
	}
}

// readSSEUntilDone reads SSE frames line by line until the done event's
// data decodes, and returns the number of frames read.
func readSSEUntilDone(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	frames, event := 0, ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			event = ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			frames++
		case strings.HasPrefix(line, "data: ") && event == string(solver.EventDone):
			var done solver.Event
			return frames, json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &done)
		}
	}
	if err := sc.Err(); err != nil {
		return frames, err
	}
	return frames, io.ErrUnexpectedEOF
}

// TestShardedStepSpeedup gates the sharded pipeline's parallel-step scaling
// on the 15x10 engine-step workload: 4 workers must be >= 1.8x faster than
// 1 worker (the BENCH_hotpath.json acceptance row targets 2x; the gate
// leaves headroom for shared runners). Wall-clock parallel speedup needs
// real cores, so the guard skips below 4 CPUs — single-core containers
// (where 4 workers necessarily run at 1-worker speed) and -race/-short
// builds record the measurement as informational only.
func TestShardedStepSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts parallel timing")
	}
	js := shop.GenerateJobShop("sp-shard-15x10", 15, 10, 912, 913)
	prob := shopga.JobShopProblem(js, shop.Makespan)
	stepNs := func(workers int) int64 {
		eng := core.New(prob, rng.New(7), core.Config[[]int]{
			Pop: 64, Ops: shopga.SeqOps(js), Workers: workers,
			Term: core.Termination{MaxGenerations: 1 << 30},
		})
		defer eng.Close()
		for i := 0; i < 30; i++ { // warm free lists, spawn workers
			eng.Step()
		}
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
		return res.NsPerOp()
	}
	// Best of three attempts: a transiently loaded host (other test
	// binaries of `go test ./...` sharing the cores) must not flake the
	// gate; a genuinely broken pipeline fails all three.
	var one, four int64
	ratio := 0.0
	for attempt := 0; attempt < 3 && ratio < 1.8; attempt++ {
		one = stepNs(1)
		four = stepNs(4)
		if r := float64(one) / float64(four); r > ratio {
			ratio = r
		}
	}
	t.Logf("engine-step-15x10: shard-1 %d ns/op, shard-4 %d ns/op (best %.2fx, %d CPUs)",
		one, four, ratio, runtime.NumCPU())
	if runtime.NumCPU() < 4 {
		t.Skipf("only %d CPUs: parallel wall-clock speedup is not measurable here", runtime.NumCPU())
	}
	if ratio < 1.8 {
		t.Errorf("shard-4 only %.2fx faster than shard-1 over 3 attempts, want >= 1.8x", ratio)
	}
}

// pairedRatio measures two closures by alternating them rep-by-rep and
// taking each side's minimum wall time. On a frequency-throttled or shared
// host, measuring a and b sequentially biases whichever ran during the
// faster phase; interleaving exposes both sides to the same noise, and the
// minima approximate the undisturbed cost. Returns bestA/bestB.
func pairedRatio(reps int, a, b func()) float64 {
	bestA, bestB := int64(1)<<62, int64(1)<<62
	for rep := 0; rep < reps; rep++ {
		s := time.Now()
		a()
		if d := time.Since(s).Nanoseconds(); d < bestA {
			bestA = d
		}
		s = time.Now()
		b()
		if d := time.Since(s).Nanoseconds(); d < bestB {
			bestB = d
		}
	}
	return float64(bestA) / float64(bestB)
}

// TestBatchKernelSpeedup ratchets the batch rung against the scalar kernels
// on the BENCH_hotpath workloads: the flow shop's register-block sweep and
// the job shop's 4-wide lockstep decode must hold >= 1.2x on the 20x5 flow
// shop row and the 15x10 job shop row (measured ~3.3-4.2x, the 20x5
// sweep touching no ready row, and ~2.0-2.5x on a shared 2-vCPU x86-64
// host). Measurement is paired (kernel and batch timings interleaved,
// best-of-reps minima) so host frequency drift cannot fake or mask a
// regression, with best-of-3 attempts on top. The
// thresholds sit well below the measured ratios because binary layout
// alone moves the scalar kernel's tight loop ~10% between builds (linking
// unrelated code into the test binary shifted flow from ~1.6x to ~1.45x
// with decode's sources untouched) and single runs on a 1-CPU container
// scatter another ~10%; a thinner margin gates link order and host noise,
// not the kernels — a real batch regression reads ~1.0x.
func TestBatchKernelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the kernel-vs-batch ratio")
	}
	r := rng.New(4243)
	fs := shop.GenerateFlowShop("sp-fs-20x5", 20, 5, 911)
	js := shop.GenerateJobShop("sp-js-15x10", 15, 10, 912, 913)
	const batchN = 64
	const iters = 4096 // scalar decodes per timing sample (batch does iters/batchN batches)
	perms := make([][]int, batchN)
	seqs := make([][]int, batchN)
	for i := range perms {
		perms[i] = decode.RandomPermutation(fs, r)
		seqs[i] = decode.RandomOpSequence(js, r)
	}
	out := make([]float64, batchN)
	bf, bj := decode.NewBatchScratch(fs), decode.NewBatchScratch(js)
	sf, sj := decode.NewScratch(fs), decode.NewScratch(js)
	sink := 0
	cases := []struct {
		name      string
		threshold float64
		kernel    func()
		batch     func()
	}{
		{"flowshop-20x5", 1.2,
			func() {
				for i := 0; i < iters; i++ {
					sink += decode.FlowShopMakespanWith(fs, perms[i%batchN], sf)
				}
			},
			func() {
				for i := 0; i < iters/batchN; i++ {
					bf.FlowShopMakespans(perms, out)
				}
			}},
		{"jobshop-15x10", 1.2,
			func() {
				for i := 0; i < iters; i++ {
					sink += decode.JobShopMakespan(js, seqs[i%batchN], sj)
				}
			},
			func() {
				for i := 0; i < iters/batchN; i++ {
					bj.JobShopMakespans(seqs, out)
				}
			}},
	}
	for _, c := range cases {
		ratio := 0.0
		for attempt := 0; attempt < 3 && ratio < c.threshold; attempt++ {
			if r := pairedRatio(15, c.kernel, c.batch); r > ratio {
				ratio = r
			}
		}
		t.Logf("%s: batch %.2fx vs scalar kernel (want >= %.1fx)", c.name, ratio, c.threshold)
		if ratio < c.threshold {
			t.Errorf("%s: batch only %.2fx faster than the scalar kernel over 3 paired attempts, want >= %.1fx",
				c.name, ratio, c.threshold)
		}
	}
	_ = sink
}

// TestHotPathKernelSpeedup is a coarse ratchet for the acceptance criterion
// that the kernels beat the schedule-building path by >= 2x on the job shop
// instances (measured margin is ~4-5x). Wall-clock measurement is noisy on
// shared or race-instrumented hosts, so the guard skips under -short and
// -race; CI runs it as a non-blocking informational step, and the full
// local gate (go test ./...) enforces it.
func TestHotPathKernelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation compresses the kernel-vs-schedule ratio")
	}
	r := rng.New(4242)
	for _, in := range []*shop.Instance{shop.FT06(), shop.GenerateJobShop("sp-15x10", 15, 10, 912, 913)} {
		seq := decode.RandomOpSequence(in, r)
		s := decode.NewScratch(in)
		schedule := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = decode.JobShop(in, seq).Makespan()
			}
		})
		kernel := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = decode.JobShopMakespan(in, seq, s)
			}
		})
		ratio := float64(schedule.NsPerOp()) / float64(kernel.NsPerOp())
		t.Logf("%s: schedule %d ns/op, kernel %d ns/op (%.1fx)",
			in.Name, schedule.NsPerOp(), kernel.NsPerOp(), ratio)
		if ratio < 2 {
			t.Errorf("%s: kernel only %.2fx faster than schedule path, want >= 2x", in.Name, ratio)
		}
	}
}
