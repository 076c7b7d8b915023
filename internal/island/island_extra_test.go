package island

import (
	"testing"

	"repro/internal/rng"
)

// TestEvaluationsAccounting verifies the exact evaluation count of a run:
// islands * (initial subpop + epochs*interval generations * subpop children)
// plus one re-evaluation per injected migrant.
func TestEvaluationsAccounting(t *testing.T) {
	const islands, subPop, interval, epochs, migrants = 3, 10, 4, 5, 1
	res := New(rng.New(99), Config[[]int]{
		Islands: islands, SubPop: subPop, Interval: interval, Epochs: epochs,
		Migrants: migrants, Topology: Ring{},
		Engine:  baseConfig(8).Engine,
		Problem: baseConfig(8).Problem,
	}).Run()
	evolution := int64(islands * (subPop + epochs*interval*subPop))
	migrations := int64(epochs * islands * migrants) // ring: one target each
	if res.Evaluations != evolution+migrations {
		t.Fatalf("evaluations = %d, want %d evolution + %d migration = %d",
			res.Evaluations, evolution, migrations, evolution+migrations)
	}
}

// TestDeterministicTopologiesSymmetric verifies in-degree equals out-degree
// for the static topologies — the property the agents package's barrier
// arithmetic relies on.
func TestDeterministicTopologiesSymmetric(t *testing.T) {
	r := rng.New(2)
	for _, topo := range []Topology{Ring{}, BiRing{}, Torus2D{}, FullyConnected{}, Hypercube{}} {
		for _, n := range []int{2, 4, 6, 8, 12} {
			out := make([]int, n)
			in := make([]int, n)
			for i := 0; i < n; i++ {
				for _, tgt := range topo.Targets(i, n, 0, r) {
					out[i]++
					in[tgt]++
				}
			}
			for i := 0; i < n; i++ {
				switch topo.(type) {
				case Ring, BiRing, Torus2D, FullyConnected, Hypercube:
					// Star is deliberately asymmetric and excluded.
					if topo.Name() != "ring" && in[i] != out[i] {
						t.Errorf("%s n=%d node %d: in %d out %d", topo.Name(), n, i, in[i], out[i])
					}
				}
			}
			// Total flow conservation holds for every topology.
			ti, to := 0, 0
			for i := 0; i < n; i++ {
				ti += in[i]
				to += out[i]
			}
			if ti != to {
				t.Errorf("%s n=%d: total in %d != out %d", topo.Name(), n, ti, to)
			}
		}
	}
}

// TestMigrantsLargerThanSubpopClamped exercises the emigrant picker when
// Migrants exceeds the subpopulation size.
func TestMigrantsLargerThanSubpopClamped(t *testing.T) {
	cfg := baseConfig(8)
	cfg.SubPop = 4
	cfg.Migrants = 10 // more than the population: picker must clamp
	cfg.Epochs = 3
	res := New(rng.New(3), cfg).Run()
	if res.Best.Obj <= 0 {
		t.Fatalf("run failed: %+v", res.Best)
	}
}

// TestSingleIslandNoMigration: one island must behave like a plain engine
// (migration is a no-op) and still report results.
func TestSingleIslandNoMigration(t *testing.T) {
	cfg := baseConfig(8)
	cfg.Islands = 1
	cfg.Epochs = 5
	res := New(rng.New(4), cfg).Run()
	if res.IslandsLeft != 1 || len(res.PerIsland) != 1 {
		t.Fatalf("islands = %d", res.IslandsLeft)
	}
	if res.Best.Obj != res.PerIsland[0].Obj {
		t.Fatalf("best %v != only island's best %v", res.Best.Obj, res.PerIsland[0].Obj)
	}
}

// TestHistoryBestMonotone: the global best in the epoch history never
// worsens.
func TestHistoryBestMonotone(t *testing.T) {
	res := New(rng.New(5), baseConfig(10)).Run()
	prev := res.History[0].BestObj
	for _, h := range res.History[1:] {
		if h.BestObj > prev {
			t.Fatalf("global best worsened at epoch %d: %v > %v", h.Epoch, h.BestObj, prev)
		}
		prev = h.BestObj
	}
}
