package core

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

// runTo steps the engine exactly n generations (no termination checks).
func runTo[G any](e *Engine[G], n int) {
	for e.Generation() < n {
		e.Step()
	}
}

// popSignature flattens the population into a comparable form.
func popSignature(e *Engine[[]int]) [][]int {
	out := make([][]int, len(e.pop))
	for i, ind := range e.pop {
		out[i] = append(append([]int(nil), ind.Genome...), int(ind.Obj))
	}
	return out
}

// testResumeBitIdentical runs a reference engine to gen 30, snapshots a
// second identical engine at gen 10 and restores it into a THIRD, freshly
// built engine, then checks the resumed trajectory matches the reference
// population-for-population at gens 20 and 30.
func testResumeBitIdentical(t *testing.T, workers int) {
	t.Helper()
	mk := func() *Engine[[]int] {
		return New(sortProblem(12), rng.New(99), Config[[]int]{
			Pop: 40, Ops: permOps(), Workers: workers,
			Term: Termination{MaxGenerations: 1 << 20},
		})
	}
	ref := mk()
	defer ref.Close()
	runTo(ref, 10)
	snap := ref.Snapshot()
	runTo(ref, 20)
	sig20 := popSignature(ref)
	runTo(ref, 30)
	sig30 := popSignature(ref)
	refBest := ref.Best()

	resumed := mk()
	defer resumed.Close()
	if err := resumed.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if resumed.Generation() != 10 || resumed.Evaluations() != snap.Evaluations {
		t.Fatalf("restored counters: gen=%d evals=%d", resumed.Generation(), resumed.Evaluations())
	}
	runTo(resumed, 20)
	if got := popSignature(resumed); !reflect.DeepEqual(got, sig20) {
		t.Fatalf("resumed population diverged from reference at gen 20")
	}
	runTo(resumed, 30)
	if got := popSignature(resumed); !reflect.DeepEqual(got, sig30) {
		t.Fatalf("resumed population diverged from reference at gen 30")
	}
	if b := resumed.Best(); b.Obj != refBest.Obj || !reflect.DeepEqual(b.Genome, refBest.Genome) {
		t.Fatalf("resumed best %v (obj %v) != reference best %v (obj %v)",
			b.Genome, b.Obj, refBest.Genome, refBest.Obj)
	}
	if resumed.Evaluations() != ref.Evaluations() {
		t.Fatalf("resumed evaluations %d != reference %d", resumed.Evaluations(), ref.Evaluations())
	}
}

// Workers 0 runs the pipeline inline on the master goroutine.
func TestEngineResumeBitIdenticalMasterPath(t *testing.T) {
	testResumeBitIdentical(t, 0)
}

func TestEngineResumeBitIdenticalSharded(t *testing.T) {
	testResumeBitIdentical(t, 3)
}

// A snapshot restores into an engine of a DIFFERENT worker count, the
// inline executor included: the shard decomposition depends only on Pop.
func TestEngineResumeAcrossWorkerCounts(t *testing.T) {
	mk := func(workers int) *Engine[[]int] {
		return New(sortProblem(12), rng.New(5), Config[[]int]{
			Pop: 40, Ops: permOps(), Workers: workers,
			Term: Termination{MaxGenerations: 1 << 20},
		})
	}
	ref := mk(1)
	defer ref.Close()
	runTo(ref, 8)
	snap := ref.Snapshot()
	runTo(ref, 16)
	want := popSignature(ref)

	resumed := mk(4)
	defer resumed.Close()
	if err := resumed.Restore(snap); err != nil {
		t.Fatalf("restore across worker counts: %v", err)
	}
	runTo(resumed, 16)
	if got := popSignature(resumed); !reflect.DeepEqual(got, want) {
		t.Fatal("worker-count change broke resumed trajectory")
	}
}

func TestEngineRestoreShapeMismatches(t *testing.T) {
	base := New(sortProblem(8), rng.New(1), Config[[]int]{Pop: 20, Ops: permOps()})
	runTo(base, 2)
	snap := base.Snapshot()
	if len(snap.Shards) != ShardCount(20) {
		t.Fatalf("snapshot carries %d shard streams, want %d", len(snap.Shards), ShardCount(20))
	}

	wrongPop := New(sortProblem(8), rng.New(1), Config[[]int]{Pop: 30, Ops: permOps()})
	if err := wrongPop.Restore(snap); err == nil {
		t.Error("restore with mismatched population size accepted")
	}

	sharded := New(sortProblem(8), rng.New(1), Config[[]int]{Pop: 20, Ops: permOps(), Workers: 2})
	defer sharded.Close()
	for _, k := range []int{0, 1, ShardCount(20) + 1} {
		bad := snap
		bad.Shards = make([]rng.State, k)
		copy(bad.Shards, snap.Shards)
		if err := sharded.Restore(bad); err == nil {
			t.Errorf("snapshot with %d shard streams accepted, engine has %d", k, ShardCount(20))
		}
	}
	if err := sharded.Restore(snap); err != nil {
		t.Errorf("well-formed snapshot rejected after failed restores: %v", err)
	}

	noBest := snap
	noBest.HasBest = false
	if err := base.Restore(noBest); err == nil {
		t.Error("snapshot without incumbent accepted")
	}
}

// A snapshot survives later Steps of the source engine: the genomes were
// deep-copied, so mutation of the live population cannot corrupt it.
func TestSnapshotIsIndependentOfSourceEngine(t *testing.T) {
	e := New(sortProblem(10), rng.New(3), Config[[]int]{Pop: 24, Ops: permOps()})
	runTo(e, 5)
	snap := e.Snapshot()
	frozen := make([][]int, len(snap.Pop))
	for i, ind := range snap.Pop {
		frozen[i] = append([]int(nil), ind.Genome...)
	}
	runTo(e, 25)
	for i, ind := range snap.Pop {
		if !reflect.DeepEqual(ind.Genome, frozen[i]) {
			t.Fatalf("snapshot genome %d mutated by source engine", i)
		}
	}
}
