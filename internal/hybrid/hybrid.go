// Package hybrid implements the two hybrid parallel GAs Lin et al. [21]
// evaluated on job shop scheduling:
//
//   - RingOfTorus embeds the fine-grained model into the island model: each
//     subpopulation on a migration ring is itself a 2-D torus cellular GA,
//     with ring migration much less frequent than the within-torus
//     diffusion. Lin et al. found this combination (islands connected in a
//     fine-grained style) produced the best solutions.
//   - TorusOfIslands uses the island model with the connection topology
//     typically found in fine-grained GAs — a 2-D torus over a relatively
//     large number of small islands — keeping the usual migration
//     frequency.
package hybrid

import (
	"fmt"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/island"
	"repro/internal/rng"
)

// RingOfTorusConfig parameterises the island-of-cellular hybrid.
type RingOfTorusConfig[G any] struct {
	Grids    int // number of torus islands on the ring (default 4)
	Interval int // cellular generations between ring migrations (default 10)
	Epochs   int // migration epochs (default 10)

	Grid cellular.Config[G] // per-island cellular configuration

	// Workers is the width of the core.Executor each Run steps the grids
	// on (default 0: min(GOMAXPROCS, Grids)). Every grid owns its
	// randomness, so results are identical for every worker count.
	Workers int

	Target    float64
	TargetSet bool

	// Stop, when set, is polled between cellular generations on every grid
	// and at every epoch boundary; returning true ends the run. Must be
	// safe for concurrent use.
	Stop func() bool

	// OnEpoch, when set, is called after each ring migration with the
	// completed epoch index and the best objective across all grids — the
	// model's streaming-progress seam. It runs on the model's own
	// goroutine, between epochs.
	OnEpoch func(epoch int, best float64)
}

// RingOfTorus is the configured hybrid model.
type RingOfTorus[G any] struct {
	cfg   RingOfTorusConfig[G]
	prob  core.Problem[G]
	grids []*cellular.Model[G]
	epoch int // completed ring-migration epochs (Run resumes here)
}

// Result reports a hybrid run.
type Result[G any] struct {
	Best        core.Individual[G]
	PerGrid     []core.Individual[G]
	Epochs      int
	Evaluations int64
}

// NewRingOfTorus builds the hybrid: one cellular model per ring node, each
// with an independent RNG stream split from r.
func NewRingOfTorus[G any](p core.Problem[G], r *rng.RNG, cfg RingOfTorusConfig[G]) *RingOfTorus[G] {
	if p == nil {
		panic("hybrid: nil problem")
	}
	if cfg.Grids <= 0 {
		cfg.Grids = 4
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 10
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	// Grids are stepped manually; neutralise the per-grid run bounds.
	cfg.Grid.Generations = 1 << 30
	h := &RingOfTorus[G]{cfg: cfg, prob: p}
	for i := 0; i < cfg.Grids; i++ {
		h.grids = append(h.grids, cellular.New(p, r.Split(), cfg.Grid))
	}
	return h
}

// Grids exposes the cellular islands.
func (h *RingOfTorus[G]) Grids() []*cellular.Model[G] { return h.grids }

// Best returns the best individual across all grids.
func (h *RingOfTorus[G]) Best() core.Individual[G] {
	best := h.grids[0].Best()
	for _, g := range h.grids[1:] {
		if b := g.Best(); b.Obj < best.Obj {
			best = b
		}
	}
	return best
}

// migrate sends each grid's best cell to its ring successor, replacing the
// successor's worst cell. Emigrants were evaluated under the shared
// problem, so their objective values carry over.
func (h *RingOfTorus[G]) migrate() {
	n := len(h.grids)
	if n < 2 {
		return
	}
	emigrants := make([]core.Individual[G], n)
	for i, g := range h.grids {
		emigrants[i] = g.Best()
	}
	for i := range h.grids {
		to := (i + 1) % n
		cells := h.grids[to].Cells()
		worst := 0
		for k := range cells {
			if cells[k].Obj > cells[worst].Obj {
				worst = k
			}
		}
		mig := emigrants[i]
		cells[worst] = core.Individual[G]{
			Genome: h.prob.Clone(mig.Genome), Obj: mig.Obj, Fit: mig.Fit,
		}
	}
}

// stepGrids advances every grid by Interval generations on the run's
// executor (Executor.For, Config.Workers wide). Every grid owns its
// randomness, so the executor width cannot change the result.
func (h *RingOfTorus[G]) stepGrids(x *core.Executor, stopped func() bool) {
	x.For(len(h.grids), func(i int) {
		g := h.grids[i]
		for s := 0; s < h.cfg.Interval; s++ {
			if stopped() {
				break
			}
			g.Step()
		}
	})
}

// Snapshot captures the hybrid's complete evolution state: one cellular
// snapshot per torus grid plus the epoch counter. Call it between epochs
// (e.g. from OnEpoch) — never while stepGrids is stepping the grids. The
// snapshot shares nothing with the model.
func (h *RingOfTorus[G]) Snapshot() Snapshot[G] {
	s := Snapshot[G]{Epoch: h.epoch}
	for _, g := range h.grids {
		s.Demes = append(s.Demes, g.Snapshot())
	}
	return s
}

// Snapshot is the state captured by RingOfTorus.Snapshot.
type Snapshot[G any] struct {
	Demes []cellular.Snapshot[G]
	Epoch int
}

// Restore overwrites the hybrid's evolution state with the snapshot's. The
// deme count must match the configured grids and every deme must satisfy
// the cellular model's restore validation; an error may leave earlier
// demes restored, so a failed Restore discards the model. A restored run
// continues from Snapshot.Epoch and is bit-identical to the uninterrupted
// one for any Workers count.
func (h *RingOfTorus[G]) Restore(s Snapshot[G]) error {
	if len(s.Demes) != len(h.grids) {
		return fmt.Errorf("hybrid: snapshot has %d demes, model has %d grids", len(s.Demes), len(h.grids))
	}
	if s.Epoch < 0 {
		return fmt.Errorf("hybrid: snapshot epoch negative (%d)", s.Epoch)
	}
	for i, g := range h.grids {
		if err := g.Restore(s.Demes[i]); err != nil {
			return fmt.Errorf("hybrid: deme %d: %w", i, err)
		}
	}
	h.epoch = s.Epoch
	return nil
}

// Run executes the epochs; grids advance concurrently between migrations
// (deterministic: every grid owns its randomness). After a Restore it
// picks up at the snapshot's epoch, so Result.Epochs still counts the
// run's total.
func (h *RingOfTorus[G]) Run() Result[G] {
	x := core.NewExecutor(core.Width(h.cfg.Workers, len(h.grids)))
	defer func() {
		x.Close()
		for _, g := range h.grids {
			g.Close()
		}
	}()
	stopped := func() bool { return h.cfg.Stop != nil && h.cfg.Stop() }
	epoch := h.epoch
	for ; epoch < h.cfg.Epochs; epoch++ {
		if h.cfg.TargetSet && h.Best().Obj <= h.cfg.Target {
			break
		}
		if stopped() {
			break
		}
		h.stepGrids(x, stopped)
		h.migrate()
		// Advance before the observer runs: a Snapshot taken from inside
		// OnEpoch captures "epoch done, next not begun".
		h.epoch = epoch + 1
		if h.cfg.OnEpoch != nil {
			h.cfg.OnEpoch(epoch, h.Best().Obj)
		}
	}
	res := Result[G]{Best: h.Best(), Epochs: epoch}
	for _, g := range h.grids {
		res.PerGrid = append(res.PerGrid, g.Best())
		res.Evaluations += g.Evaluations()
	}
	return res
}

// TorusOfIslands runs Lin's second hybrid: a standard island model whose
// many small islands are connected in the 2-D torus topology of the
// fine-grained model.
func TorusOfIslands[G any](r *rng.RNG, cfg island.Config[G]) island.Result[G] {
	cfg.Topology = island.Torus2D{}
	return island.New(r, cfg).Run()
}
