package solver

import (
	"context"
	"reflect"
	"testing"
)

// TestWorkerCountInvariance pins the contract of Params.Workers across the
// whole registry: the knob sets how wide a model executes, never what it
// computes. For every model, the same Spec.Seed must produce an identical
// Result for workers 1, 2 and 8 — the engine's sharded pipeline
// guarantees it through its fixed shard decomposition and per-shard RNG
// substreams, the island/hybrid stepping pools because each deme owns its
// stream, cellular because every cell's stream is derived from (seed,
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
