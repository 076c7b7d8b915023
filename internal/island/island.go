// Package island implements the survey's Table V model — the coarse-grained
// / multi-deme parallel GA that dominates the literature on parallel GAs
// for shop scheduling:
//
//	1: Initialize();
//	2: while (termination criteria are not satisfied) do
//	3:   Generation++
//	4:   Parallel_SubSelection_Islands();
//	5:   Parallel_SubCrossover_Islands();
//	6:   Parallel_SubMutation_Individuals();
//	7:   Parallel_FitnessValueEvaluation_Individuals();
//	8:   if (generation % migration interval == 0)
//	9:     Parallel_Migration_Islands();
//	10:  end if
//	11: end while
//
// Each island is a core.Engine with its own split RNG; islands advance in
// parallel on one core.Executor between synchronised migration epochs, so
// runs are deterministic for a fixed master seed regardless of scheduling.
// The configuration space covers the designs the survey analyses: connection
// topologies, emigrant-selection and replacement policies, migration
// interval and rate, heterogeneous per-island operators (Park [26], Bożejko
// [30]), per-island objectives (Rashidi [38]), merge-on-stagnation (Spanos
// [29]) and two-level GN/LN broadcast (Harmanani [33]).
package island

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/rng"
)

// MigrantSelect chooses which individuals emigrate.
type MigrantSelect int

const (
	// BestMigrants sends copies of the island's best individuals.
	BestMigrants MigrantSelect = iota
	// RandomMigrants sends copies of uniformly chosen individuals.
	RandomMigrants
)

// String names the policy half for tables.
func (s MigrantSelect) String() string {
	if s == BestMigrants {
		return "best"
	}
	return "random"
}

// ReplacePolicy chooses which residents immigrants replace.
type ReplacePolicy int

const (
	// ReplaceWorst overwrites the current worst resident.
	ReplaceWorst ReplacePolicy = iota
	// ReplaceRandom overwrites a uniformly chosen resident.
	ReplaceRandom
)

// String names the policy half for tables.
func (p ReplacePolicy) String() string {
	if p == ReplaceWorst {
		return "replace-worst"
	}
	return "replace-random"
}

// MergeConfig enables Spanos et al.'s island merging: after each epoch an
// island whose population has collapsed (more than PairFrac of sampled
// pairs closer than Threshold under Dist) is merged into its ring
// successor; the process continues until a single island remains.
type MergeConfig[G any] struct {
	Dist      func(a, b G) int
	Threshold int
	PairFrac  float64 // default 0.5
}

// TwoLevel enables Harmanani et al.'s two-level communication: neighbour
// exchange every GN generations (the normal topology migration) plus an
// all-islands broadcast of the global best every LN generations, GN << LN.
type TwoLevel struct {
	GN int
	LN int
}

// Exchange records one directed edge of a migration epoch: Count migrants
// moved from island From to island To. Remote injections (Config.Exchange)
// are recorded with From = -1.
type Exchange struct {
	From  int
	To    int
	Count int
}

// EpochStats records the state after one migration epoch.
type EpochStats struct {
	Epoch       int
	Generation  int
	BestObj     float64
	MeanBestObj float64 // mean of per-island bests
	Islands     int
	// Exchanges lists the epoch's migrant movements, one entry per
	// (from, to) pair that shipped at least one migrant.
	Exchanges []Exchange
}

// Config parameterises the island model.
type Config[G any] struct {
	Islands  int // number of islands (default 4)
	SubPop   int // population per island (default Engine.Pop or 20)
	Interval int // generations between migrations (default 5)
	Migrants int // emigrants per edge per epoch (default 1)
	Epochs   int // migration epochs to run (default 20)

	Topology Topology
	Select   MigrantSelect
	Replace  ReplacePolicy

	// Engine is the per-island GA configuration. Pop is overridden by
	// SubPop; Term is overridden by the epoch structure.
	Engine core.Config[G]
	// PerIsland, when set, customises island i's configuration (different
	// operators or rates per island — Park [26], Bożejko [30]).
	PerIsland func(i int, base core.Config[G]) core.Config[G]
	// Problem builds island i's problem; all islands share problem 0's
	// search space but may weight objectives differently (Rashidi [38]).
	Problem func(i int) core.Problem[G]
	// SharedStart, when true, initialises every island from the same seed
	// so all subpopulations start identically (one of Bożejko's strategies).
	SharedStart bool

	Merge    *MergeConfig[G]
	TwoLevel *TwoLevel

	// Workers is the width of the core.Executor each Run steps the islands
	// on (default 0: min(GOMAXPROCS, Islands)), so a 32-island run on 8
	// cores does not oversubscribe the scheduler. Results are identical for
	// every worker count — each island owns its engine and RNG stream, so
	// which executor steps it cannot matter.
	Workers int

	// OnEpoch, when set, is called after every migration epoch with the
	// epoch's stats — the model's streaming-progress seam. It runs on the
	// model's own goroutine, between epochs, so it never races the island
	// steps.
	OnEpoch func(EpochStats)

	// Exchange, when set, extends each migration epoch beyond the process
	// boundary: after the local topology exchange it receives the epoch
	// number and a clone of each island's best individual (island order)
	// and returns foreign genomes to absorb. Returned genomes are injected
	// in order, round-robin over the islands starting at island 0, using
	// the configured replacement policy — so for a fixed sequence of
	// returned genomes the injection is deterministic. It runs on the
	// model's own goroutine, between epochs. This is the federation seam:
	// the caller serialises the elites, ships them to peers, and returns
	// the migrants to absorb this epoch (the federation returns those
	// its peers shipped one epoch earlier, so none at epoch 0).
	Exchange func(epoch int, elites []core.Individual[G]) []G

	Target    float64 // optional global early stop on best objective
	TargetSet bool

	// Stop, when set, is polled between generations on every island and at
	// every epoch boundary; returning true ends the run with the best found
	// so far. Must be safe for concurrent use (the islands poll it from
	// the executor's goroutines).
	Stop func() bool
}

// Result reports an island-model run.
type Result[G any] struct {
	Best        core.Individual[G]
	PerIsland   []core.Individual[G] // best of each island at termination
	Generations int                  // generations executed per surviving island
	Evaluations int64                // total across all islands
	Epochs      int
	IslandsLeft int
	History     []EpochStats
}

// Model is a configured island GA.
type Model[G any] struct {
	cfg     Config[G]
	engines []*core.Engine[G]
	rng     *rng.RNG
	history []EpochStats
	removed int64 // evaluations of merged-away islands
	gen     int
	epoch   int   // completed migration epochs (Run resumes here)
	order   []int // pickEmigrant's reused ranking buffer
}

// New builds the model: cfg.Problem(i) and split RNGs per island.
func New[G any](r *rng.RNG, cfg Config[G]) *Model[G] {
	if cfg.Problem == nil {
		panic("island: Config.Problem is required")
	}
	if cfg.Islands <= 0 {
		cfg.Islands = 4
	}
	if cfg.SubPop <= 0 {
		if cfg.Engine.Pop > 0 {
			cfg.SubPop = cfg.Engine.Pop
		} else {
			cfg.SubPop = 20
		}
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5
	}
	if cfg.Migrants <= 0 {
		cfg.Migrants = 1
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 20
	}
	if cfg.Topology == nil {
		cfg.Topology = Ring{}
	}
	if cfg.TwoLevel != nil {
		if cfg.TwoLevel.GN <= 0 || cfg.TwoLevel.LN <= 0 || cfg.TwoLevel.LN%cfg.TwoLevel.GN != 0 {
			panic("island: TwoLevel requires GN > 0 and LN a positive multiple of GN")
		}
		cfg.Interval = cfg.TwoLevel.GN
	}
	if cfg.Merge != nil {
		if cfg.Merge.Dist == nil {
			panic("island: MergeConfig requires Dist")
		}
		if cfg.Merge.PairFrac <= 0 {
			cfg.Merge.PairFrac = 0.5
		}
	}
	m := &Model[G]{cfg: cfg, rng: r}
	var sharedSeed uint64
	if cfg.SharedStart {
		sharedSeed = r.Uint64()
	}
	for i := 0; i < cfg.Islands; i++ {
		ecfg := cfg.Engine
		ecfg.Pop = cfg.SubPop
		// Engines never self-terminate: the model drives the epochs.
		ecfg.Term = core.Termination{MaxGenerations: 1 << 30}
		if cfg.PerIsland != nil {
			ecfg = cfg.PerIsland(i, ecfg)
			ecfg.Pop = cfg.SubPop
			ecfg.Term = core.Termination{MaxGenerations: 1 << 30}
		}
		var er *rng.RNG
		if cfg.SharedStart {
			er = rng.New(sharedSeed)
		} else {
			er = r.Split()
		}
		m.engines = append(m.engines, core.New(cfg.Problem(i), er, ecfg))
	}
	return m
}

// Engines exposes the live islands (tests and diversity probes).
func (m *Model[G]) Engines() []*core.Engine[G] { return m.engines }

// Best returns the best individual over all islands.
func (m *Model[G]) Best() core.Individual[G] {
	best := m.engines[0].Best()
	for _, e := range m.engines[1:] {
		if b := e.Best(); b.Obj < best.Obj {
			best = b
		}
	}
	return best
}

func (m *Model[G]) done() bool {
	if m.cfg.Stop != nil && m.cfg.Stop() {
		return true
	}
	return m.cfg.TargetSet && m.Best().Obj <= m.cfg.Target
}

// stopped polls the external cancellation hook only (no Target check).
func (m *Model[G]) stopped() bool {
	return m.cfg.Stop != nil && m.cfg.Stop()
}

// stepAll advances every island by the migration interval on the run's
// executor (Executor.For, Config.Workers wide; width 1 steps them on the
// calling goroutine).
// Islands only touch their own state and RNGs, so the result is
// independent of goroutine scheduling — and of the executor width.
func (m *Model[G]) stepAll(x *core.Executor) {
	steps := m.cfg.Interval
	x.For(len(m.engines), func(i int) {
		e := m.engines[i]
		for s := 0; s < steps; s++ {
			if m.stopped() {
				break
			}
			e.Step()
		}
	})
	m.gen += steps
}

// migrate performs one synchronous exchange over the topology: emigrants
// are snapshotted from every island first, then injected, so the exchange
// is simultaneous and order-independent. It returns the epoch's directed
// shipment tally for EpochStats.
func (m *Model[G]) migrate() []Exchange {
	n := len(m.engines)
	if n < 2 {
		return nil
	}
	type shipment struct {
		to     int
		genome G
		from   int
	}
	var ships []shipment
	var edges []Exchange
	for i, e := range m.engines {
		targets := m.cfg.Topology.Targets(i, n)
		if len(targets) == 0 {
			continue
		}
		for _, t := range targets {
			for k := 0; k < m.cfg.Migrants; k++ {
				idx := m.pickEmigrant(e, k)
				g := e.Problem().Clone(e.Population()[idx].Genome)
				ships = append(ships, shipment{to: t, genome: g, from: i})
			}
			edges = append(edges, Exchange{From: i, To: t, Count: m.cfg.Migrants})
		}
	}
	for _, s := range ships {
		m.inject(m.engines[s.to], s.genome)
	}
	return edges
}

// exchange runs the external Exchange hook: ships a clone of each island's
// best and injects whatever came back, round-robin over the islands in
// order. Returns the injection tally (From = -1 marks remote origin).
func (m *Model[G]) exchange(epoch int) []Exchange {
	if m.cfg.Exchange == nil {
		return nil
	}
	elites := make([]core.Individual[G], len(m.engines))
	for i, e := range m.engines {
		b := e.Best()
		elites[i] = core.Individual[G]{Genome: e.Problem().Clone(b.Genome), Obj: b.Obj}
	}
	in := m.cfg.Exchange(epoch, elites)
	if len(in) == 0 {
		return nil
	}
	counts := make([]int, len(m.engines))
	for j, g := range in {
		to := j % len(m.engines)
		m.inject(m.engines[to], g)
		counts[to]++
	}
	var edges []Exchange
	for to, c := range counts {
		if c > 0 {
			edges = append(edges, Exchange{From: -1, To: to, Count: c})
		}
	}
	return edges
}

// pickEmigrant returns the population index of the k-th emigrant: the k-th
// best resident for BestMigrants, a uniform draw for RandomMigrants. Ties
// go to the lowest index, as in a stable sort by objective: for k = 0 that
// is the first strict minimum, found in one scan; for k > 0 the ranking is
// stably sorted in a buffer the model reuses.
func (m *Model[G]) pickEmigrant(e *core.Engine[G], k int) int {
	pop := e.Population()
	if m.cfg.Select == RandomMigrants {
		return m.rng.Intn(len(pop))
	}
	if k == 0 {
		best := 0
		for i := range pop {
			if pop[i].Obj < pop[best].Obj {
				best = i
			}
		}
		return best
	}
	k = min(k, len(pop)-1)
	m.order = m.order[:0]
	for i := range pop {
		m.order = append(m.order, i)
	}
	slices.SortStableFunc(m.order, func(a, b int) int {
		return cmp.Compare(pop[a].Obj, pop[b].Obj)
	})
	return m.order[k]
}

// inject re-evaluates the genome under the target island's problem (islands
// may weight objectives differently) and replaces a resident per policy.
func (m *Model[G]) inject(e *core.Engine[G], g G) {
	ind := e.MakeIndividual(g)
	pop := e.Population()
	var victim int
	if m.cfg.Replace == ReplaceRandom {
		victim = m.rng.Intn(len(pop))
	} else {
		victim = 0
		for i := range pop {
			if pop[i].Obj > pop[victim].Obj {
				victim = i
			}
		}
	}
	pop[victim] = ind
}

// broadcastBest sends the global best to every island (the LN-level
// broadcast of Harmanani's hybrid island GA and Kokosiński's all-to-all
// exchange).
func (m *Model[G]) broadcastBest() {
	best := m.Best()
	for _, e := range m.engines {
		m.inject(e, e.Problem().Clone(best.Genome))
	}
}

// maybeMerge folds stagnated islands into their ring successors.
func (m *Model[G]) maybeMerge() {
	mc := m.cfg.Merge
	for i := 0; i < len(m.engines) && len(m.engines) > 1; {
		if !m.stagnated(m.engines[i], mc) {
			i++
			continue
		}
		next := (i + 1) % len(m.engines)
		merged := append(m.engines[next].Population(), m.engines[i].Population()...)
		m.engines[next].SetPopulation(merged)
		m.removed += m.engines[i].Evaluations()
		m.engines = append(m.engines[:i], m.engines[i+1:]...)
		// Do not advance i: the next engine shifted into position i.
	}
}

// stagnated applies the Spanos criterion to one island.
func (m *Model[G]) stagnated(e *core.Engine[G], mc *MergeConfig[G]) bool {
	pop := e.Population()
	if len(pop) < 2 {
		return false
	}
	closePairs, pairs := 0, 0
	for i := 0; i < len(pop); i++ {
		for j := i + 1; j < len(pop); j++ {
			pairs++
			if mc.Dist(pop[i].Genome, pop[j].Genome) < mc.Threshold {
				closePairs++
			}
		}
	}
	return float64(closePairs) > mc.PairFrac*float64(pairs)
}

func (m *Model[G]) record(epoch int, edges []Exchange) {
	best := m.Best()
	var sum float64
	for _, e := range m.engines {
		sum += e.Best().Obj
	}
	es := EpochStats{
		Epoch:       epoch,
		Generation:  m.gen,
		BestObj:     best.Obj,
		MeanBestObj: sum / float64(len(m.engines)),
		Islands:     len(m.engines),
		Exchanges:   edges,
	}
	m.history = append(m.history, es)
	// The epoch counter advances before the observer runs, so a Snapshot
	// taken from inside OnEpoch captures exactly the state a restored run
	// continues from: epoch done, the next one not begun.
	m.epoch = epoch + 1
	if m.cfg.OnEpoch != nil {
		m.cfg.OnEpoch(es)
	}
}

// Snapshot captures the model's complete evolution state with a per-deme
// layout: one engine snapshot per island plus the model-level RNG stream
// (which drives migrant selection, replacement and topology draws), the
// generation and epoch counters, and the evaluations of merged-away
// islands. Call it between epochs (e.g. from OnEpoch) — never while
// stepAll is stepping the islands. The snapshot shares nothing with
// the model.
func (m *Model[G]) Snapshot() Snapshot[G] {
	s := Snapshot[G]{
		RNG:        m.rng.State(),
		Generation: m.gen,
		Epoch:      m.epoch,
		Removed:    m.removed,
	}
	for _, e := range m.engines {
		s.Demes = append(s.Demes, e.Snapshot())
	}
	return s
}

// Snapshot is the state captured by Model.Snapshot.
type Snapshot[G any] struct {
	Demes      []core.Snapshot[G]
	RNG        rng.State
	Generation int
	Epoch      int
	Removed    int64
}

// Restore overwrites the model's evolution state with the snapshot's. The
// deme count must match the configured islands and every deme must satisfy
// the engine's own restore validation; an error may leave earlier demes
// restored, so a failed Restore discards the model. A restored run
// continues from Snapshot.Epoch and is bit-identical to the uninterrupted
// one for any Workers count.
func (m *Model[G]) Restore(s Snapshot[G]) error {
	if len(s.Demes) != len(m.engines) {
		return fmt.Errorf("island: snapshot has %d demes, model has %d islands", len(s.Demes), len(m.engines))
	}
	if s.Generation < 0 || s.Epoch < 0 || s.Removed < 0 {
		return fmt.Errorf("island: snapshot counters negative (gen=%d epoch=%d removed=%d)", s.Generation, s.Epoch, s.Removed)
	}
	for i, e := range m.engines {
		if err := e.Restore(s.Demes[i]); err != nil {
			return fmt.Errorf("island: deme %d: %w", i, err)
		}
	}
	m.rng.SetState(s.RNG)
	m.gen = s.Generation
	m.epoch = s.Epoch
	m.removed = s.Removed
	return nil
}

// Run executes the configured number of epochs (or stops early at the
// target) and returns the result. After a Restore it picks up at the
// snapshot's epoch, so Result.Epochs still counts the run's total.
func (m *Model[G]) Run() Result[G] {
	x := core.NewExecutor(core.Width(m.cfg.Workers, len(m.engines)))
	defer x.Close()
	epoch := m.epoch
	for ; epoch < m.cfg.Epochs && !m.done(); epoch++ {
		m.stepAll(x)
		edges := m.migrate()
		edges = append(edges, m.exchange(epoch)...)
		if tl := m.cfg.TwoLevel; tl != nil {
			if (epoch+1)%(tl.LN/tl.GN) == 0 {
				m.broadcastBest()
			}
		}
		if m.cfg.Merge != nil {
			m.maybeMerge()
		}
		m.record(epoch, edges)
	}
	res := Result[G]{
		Best:        m.Best(),
		Generations: m.gen,
		Epochs:      epoch,
		IslandsLeft: len(m.engines),
		History:     m.history,
		Evaluations: m.removed,
	}
	for _, e := range m.engines {
		res.PerIsland = append(res.PerIsland, e.Best())
		res.Evaluations += e.Evaluations()
	}
	return res
}
