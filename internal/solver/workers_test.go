package solver

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestWorkerCountInvariance pins the contract of Params.Workers across the
// whole registry: the knob sets how wide a model executes, never what it
// computes. For every model, the same Spec.Seed must produce an identical
// Result for workers 1, 2 and 8 — the knob is the width of the model's
// core.Executor, and the engine's sharded pipeline guarantees it through
// its fixed shard decomposition and per-shard RNG substreams, island and
// hybrid deme stepping because each deme owns its stream, cellular
// partitions because every cell's stream is derived from (seed,
// generation, cell), and serial/agents/qga because their concurrency
// structure is fixed.
func TestWorkerCountInvariance(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			type outcome struct {
				obj      float64
				evals    int64
				gens     int
				makespan int
			}
			var base *outcome
			var baseWorkers int
			for _, w := range []int{1, 2, 8} {
				spec := smallSpec(name)
				spec.Params.Workers = w
				res, err := Solve(context.Background(), spec)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				got := outcome{
					obj:      res.BestObjective,
					evals:    res.Evaluations,
					gens:     res.Generations,
					makespan: res.Schedule.Makespan(),
				}
				if base == nil {
					base, baseWorkers = &got, w
					continue
				}
				if got != *base {
					t.Errorf("workers=%d result %+v differs from workers=%d result %+v",
						w, got, baseWorkers, *base)
				}
			}
		})
	}
}

// TestModelsCloseTheirExecutors: every model owns the executors it runs
// on for exactly one run. At workers 2, Solve run to completion and Solve
// cancelled mid-run (at the first progress event) must both leave the
// goroutine count back at its baseline, so every return path closes them.
func TestModelsCloseTheirExecutors(t *testing.T) {
	settle := func(t *testing.T, baseline int, how string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before the run: executors leaked",
					how, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			spec := smallSpec(name)
			spec.Params.Workers = 2
			if _, err := Solve(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
			settle(t, baseline, "run to completion")

			spec.Budget = Budget{Generations: 1 << 20}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			res, err := solve(ctx, spec, func(ev Event) {
				if ev.Type != EventStarted {
					cancel()
				}
			}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Canceled {
				t.Fatalf("the run was not cancelled mid-run: %d generations", res.Generations)
			}
			settle(t, baseline, "cancelled mid-run")
		})
	}
}

// TestSerialEqualsMasterSlave is the survey's Table III claim made exact:
// master-slave parallelism does not change the algorithm. serial runs the
// engine's pipeline on one inline executor and ms on persistent workers,
// so for the same Spec and seed they return the same best objective,
// schedule, evaluations and generations — and their final checkpoints,
// which carry the best genome, the whole population and every RNG stream,
// agree field for field apart from the model pin.
func TestSerialEqualsMasterSlave(t *testing.T) {
	problems := []struct {
		enc     string
		problem ProblemSpec
	}{
		{EncSeq, ProblemSpec{Instance: "ft06"}},
		{EncKeys, ProblemSpec{Instance: "ft06"}},
		{EncPerm, ProblemSpec{Kind: "flow", Jobs: 6, Machines: 4}},
		{EncFlex, ProblemSpec{Kind: "fjs", Jobs: 5, Machines: 4}},
	}
	for _, pc := range problems {
		t.Run(pc.enc, func(t *testing.T) {
			serial := ckSpec("serial", pc.enc, pc.problem)
			ms := ckSpec("ms", pc.enc, pc.problem)
			ms.Params.Workers = 4
			gens := serial.Budget.Generations
			a, acps := collectCheckpoints(t, serial, gens, nil)
			b, bcps := collectCheckpoints(t, ms, gens, nil)
			if a.BestObjective != b.BestObjective || a.Evaluations != b.Evaluations || a.Generations != b.Generations {
				t.Fatalf("serial (%v, %d evals, %d gens) != ms (%v, %d evals, %d gens)",
					a.BestObjective, a.Evaluations, a.Generations, b.BestObjective, b.Evaluations, b.Generations)
			}
			if !reflect.DeepEqual(a.Schedule, b.Schedule) {
				t.Error("serial and ms best schedules differ")
			}
			if len(acps) != 1 || len(bcps) != 1 {
				t.Fatalf("want one final checkpoint each, got %d and %d", len(acps), len(bcps))
			}
			ca, cb := normalizeCp(acps[0]), normalizeCp(bcps[0])
			cb.Model = ca.Model
			if !reflect.DeepEqual(ca, cb) {
				t.Error("serial and ms final checkpoints (best genome, population, RNG streams) differ")
			}
		})
	}
}
