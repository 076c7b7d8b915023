// Package cellular implements the survey's Table IV model — the
// fine-grained (neighbourhood / diffusion / massively parallel) GA:
//
//	1: Initialize();
//	2: while (termination criteria are not satisfied) do
//	3:   Generation++
//	4:   Parallel_NeighborhoodSelection_Individuals();
//	5:   Parallel_NeighborhoodCrossover_Individuals();
//	6:   Parallel_Mutation_Individuals();
//	7:   Parallel_FitnessValueEvaluation_Individuals();
//	8: end while
//
// One individual lives on every cell of a 2-D torus; selection and mating
// are restricted to a small neighbourhood (L5 von Neumann, C9 Moore, or the
// radius-2 L9 cross), and overlapping neighbourhoods diffuse good genes
// across the grid — Tamaki & Nishikawa's neighbourhood model [20].
//
// The synchronous update is double-buffered and every cell draws its
// randomness from a stream derived from (seed, generation, cell), so
// partitioning the grid over a core.Executor cannot change the result: the
// parallel run is bit-identical to the sequential one. Virtual-time
// accounting with a per-neighbour communication charge reproduces the
// Transputer observation that message passing keeps the speedup of the
// 16-processor run below the ideal.
package cellular

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Neighborhood selects the mating neighbourhood shape.
type Neighborhood int

const (
	// L5 is the von Neumann cross (4 neighbours).
	L5 Neighborhood = iota
	// C9 is the Moore 3x3 block (8 neighbours).
	C9
	// L9 is the radius-2 cross (8 neighbours).
	L9
)

// String names the neighbourhood for experiment tables.
func (n Neighborhood) String() string {
	switch n {
	case L5:
		return "L5"
	case C9:
		return "C9"
	case L9:
		return "L9"
	default:
		return "Neighborhood(?)"
	}
}

// offsets returns the relative coordinates of the neighbourhood (self
// excluded).
func (n Neighborhood) offsets() [][2]int {
	switch n {
	case C9:
		return [][2]int{{-1, -1}, {-1, 0}, {-1, 1}, {0, -1}, {0, 1}, {1, -1}, {1, 0}, {1, 1}}
	case L9:
		return [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}, {-2, 0}, {2, 0}, {0, -2}, {0, 2}}
	default:
		return [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}}
	}
}

// Update selects the grid update discipline.
type Update int

const (
	// Synchronous double-buffers the grid: all cells update from the same
	// previous generation (deterministic and parallelisable).
	Synchronous Update = iota
	// LineSweep updates cells in place in row-major order (an asynchronous
	// policy; inherently sequential).
	LineSweep
)

// GenStats records one cellular generation.
type GenStats struct {
	Generation int
	BestObj    float64
	BestSoFar  float64
	MeanObj    float64
	Diversity  float64 // positional entropy; -1 when no GenomeInts is set
}

// Config parameterises the cellular model.
type Config[G any] struct {
	Width, Height int // grid dimensions (default 8x8)
	Neighborhood  Neighborhood
	Update        Update
	// ReplaceIfBetter keeps the resident unless the child improves on it
	// (the usual cellular policy). When false the child always replaces.
	ReplaceIfBetter bool

	CrossoverRate float64 // default 0.9
	MutationRate  float64 // default 0.2

	Cross   core.Crossover[G]
	Mutate  core.Mutation[G]
	Fitness core.Fitness // default InverseFitness

	Partitions int // row bands of the synchronous update, one per executor (default 1)

	Generations int // default 100
	Target      float64
	TargetSet   bool

	// Stop, when set, is polled between generations; returning true ends
	// the run with the best found so far (external cancellation seam).
	Stop func() bool

	// CellCost and CommCost drive the Transputer-style virtual-time model:
	// each generation costs cells*CellCost/Partitions compute time plus
	// CommCost per cross-partition neighbour exchange.
	CellCost float64
	CommCost float64

	// GenomeInts, when set, exposes genomes as []int for the diversity
	// statistic (premature-convergence experiments).
	GenomeInts func(G) []int

	OnGeneration func(GenStats)
}

// Result reports a cellular run.
type Result[G any] struct {
	Best          core.Individual[G]
	Generations   int
	Evaluations   int64
	VirtualTime   float64
	VirtualSerial float64
}

// Model is a configured fine-grained GA.
type Model[G any] struct {
	prob  core.Problem[G]
	cfg   Config[G]
	cells []core.Individual[G]
	gen   int
	evals int64
	best  core.Individual[G]
	seed  uint64

	// exec (Partitions wide) runs part, bound once at New, for every band
	// of the synchronous update, filling next.
	exec *core.Executor
	part func(k int)
	next []core.Individual[G]

	virtualTime   float64
	virtualSerial float64
}

// New builds the grid and evaluates the initial population.
func New[G any](p core.Problem[G], r *rng.RNG, cfg Config[G]) *Model[G] {
	if p == nil {
		panic("cellular: nil problem")
	}
	if cfg.Width <= 0 {
		cfg.Width = 8
	}
	if cfg.Height <= 0 {
		cfg.Height = 8
	}
	if cfg.CrossoverRate == 0 {
		cfg.CrossoverRate = 0.9
	}
	if cfg.MutationRate == 0 {
		cfg.MutationRate = 0.2
	}
	if cfg.Fitness == nil {
		cfg.Fitness = core.InverseFitness()
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	if cfg.Partitions > cfg.Height {
		cfg.Partitions = cfg.Height
	}
	if cfg.Generations <= 0 {
		cfg.Generations = 100
	}
	if cfg.Cross == nil || cfg.Mutate == nil {
		panic("cellular: Config must provide Cross and Mutate")
	}
	m := &Model[G]{prob: p, cfg: cfg, seed: r.Uint64(), exec: core.NewExecutor(cfg.Partitions)}
	m.part = m.updatePartition
	n := cfg.Width * cfg.Height
	m.cells = make([]core.Individual[G], n)
	for i := range m.cells {
		g := p.Random(r)
		obj := p.Evaluate(g)
		m.evals++
		m.cells[i] = core.Individual[G]{Genome: g, Obj: obj, Fit: cfg.Fitness(obj)}
	}
	m.best = m.cloneInd(m.bestCell())
	return m
}

func (m *Model[G]) cloneInd(ind core.Individual[G]) core.Individual[G] {
	return core.Individual[G]{Genome: m.prob.Clone(ind.Genome), Obj: ind.Obj, Fit: ind.Fit}
}

func (m *Model[G]) bestCell() core.Individual[G] {
	best := m.cells[0]
	for _, c := range m.cells[1:] {
		if c.Obj < best.Obj {
			best = c
		}
	}
	return best
}

// cellRNG derives the deterministic stream of cell idx at generation gen.
func (m *Model[G]) cellRNG(gen, idx int) *rng.RNG {
	return rng.New(m.seed ^ (uint64(gen)<<32 | uint64(uint32(idx))))
}

// neighbors returns the neighbourhood cell indices of cell idx with torus
// wrap-around.
func (m *Model[G]) neighbors(idx int) []int {
	w, h := m.cfg.Width, m.cfg.Height
	x, y := idx%w, idx/w
	offs := m.cfg.Neighborhood.offsets()
	out := make([]int, 0, len(offs))
	for _, o := range offs {
		nx := (x + o[0] + 2*w) % w
		ny := (y + o[1] + 2*h) % h
		out = append(out, ny*w+nx)
	}
	return out
}

// updateCell computes the next resident of cell idx from snapshot prev.
func (m *Model[G]) updateCell(prev []core.Individual[G], gen, idx int) core.Individual[G] {
	r := m.cellRNG(gen, idx)
	me := prev[idx]
	// Neighbourhood selection: the fittest neighbour is the partner.
	nb := m.neighbors(idx)
	partner := nb[0]
	for _, p := range nb[1:] {
		if prev[p].Fit > prev[partner].Fit {
			partner = p
		}
	}
	var child G
	if r.Bool(m.cfg.CrossoverRate) {
		child, _ = m.cfg.Cross(r, me.Genome, prev[partner].Genome)
	} else {
		child = m.prob.Clone(me.Genome)
	}
	if r.Bool(m.cfg.MutationRate) {
		m.cfg.Mutate(r, child)
	}
	obj := m.prob.Evaluate(child)
	ind := core.Individual[G]{Genome: child, Obj: obj, Fit: m.cfg.Fitness(obj)}
	if m.cfg.ReplaceIfBetter && me.Obj < ind.Obj {
		return me
	}
	return ind
}

// updatePartition fills band k of the next grid: rows
// [k·r, (k+1)·r) for r = ceil(Height/Partitions), clipped to the grid.
func (m *Model[G]) updatePartition(k int) {
	rows := (m.cfg.Height + m.cfg.Partitions - 1) / m.cfg.Partitions
	lo, hi := k*rows*m.cfg.Width, min((k+1)*rows*m.cfg.Width, len(m.cells))
	for i := lo; i < hi; i++ {
		m.next[i] = m.updateCell(m.cells, m.gen, i)
	}
}

// Step advances one generation.
func (m *Model[G]) Step() {
	gen := m.gen
	n := len(m.cells)
	switch m.cfg.Update {
	case LineSweep:
		for i := 0; i < n; i++ {
			m.cells[i] = m.updateCell(m.cells, gen, i)
		}
	default: // Synchronous, double-buffered, optionally partitioned
		m.next = make([]core.Individual[G], n)
		m.exec.Run(m.part)
		m.cells, m.next = m.next, nil
	}
	m.evals += int64(n)
	m.gen++

	// Virtual-time model: compute is divided across partitions, and each
	// cross-partition neighbour exchange costs CommCost (two boundary rows
	// per internal partition border, wrap border included when parts > 1).
	if m.cfg.CellCost > 0 || m.cfg.CommCost > 0 {
		compute := float64(n) * m.cfg.CellCost / float64(m.cfg.Partitions)
		var comm float64
		if m.cfg.Partitions > 1 {
			borders := float64(m.cfg.Partitions) // torus wrap: #borders == #partitions
			deg := float64(len(m.cfg.Neighborhood.offsets()))
			comm = borders * 2 * float64(m.cfg.Width) * deg / 4 * m.cfg.CommCost
		}
		m.virtualTime += compute + comm
		m.virtualSerial += float64(n) * m.cfg.CellCost
	}

	if b := m.bestCell(); b.Obj < m.best.Obj {
		m.best = m.cloneInd(b)
	}
	m.record()
}

func (m *Model[G]) record() {
	if m.cfg.OnGeneration == nil {
		return
	}
	var sum float64
	bestGen := m.cells[0].Obj
	for _, c := range m.cells {
		sum += c.Obj
		if c.Obj < bestGen {
			bestGen = c.Obj
		}
	}
	m.cfg.OnGeneration(GenStats{
		Generation: m.gen,
		BestObj:    bestGen,
		BestSoFar:  m.best.Obj,
		MeanObj:    sum / float64(len(m.cells)),
		Diversity:  m.Diversity(),
	})
}

// Diversity returns the positional entropy of the grid population, or -1
// when Config.GenomeInts is unset.
func (m *Model[G]) Diversity() float64 {
	if m.cfg.GenomeInts == nil {
		return -1
	}
	views := make([][]int, len(m.cells))
	for i, c := range m.cells {
		views[i] = m.cfg.GenomeInts(c.Genome)
	}
	return stats.PositionalEntropy(views)
}

// Cells exposes the live grid (tests and experiments).
func (m *Model[G]) Cells() []core.Individual[G] { return m.cells }

// Evaluations returns the number of objective evaluations spent so far.
func (m *Model[G]) Evaluations() int64 { return m.evals }

// Generation returns the current generation counter.
func (m *Model[G]) Generation() int { return m.gen }

// VirtualTime returns the accumulated virtual parallel time (0 unless
// CellCost/CommCost are configured).
func (m *Model[G]) VirtualTime() float64 { return m.virtualTime }

// VirtualSerial returns the accumulated virtual one-processor time.
func (m *Model[G]) VirtualSerial() float64 { return m.virtualSerial }

// Best returns a copy of the best individual found so far.
func (m *Model[G]) Best() core.Individual[G] { return m.cloneInd(m.best) }

// Snapshot captures the model's complete evolution state. Together with the
// configuration, a snapshot determines every future generation: the grid,
// the incumbent, the counters, and the seed that derives each cell's
// per-generation stream. The returned snapshot shares nothing with the
// model.
func (m *Model[G]) Snapshot() Snapshot[G] {
	cells := make([]core.Individual[G], len(m.cells))
	for i, c := range m.cells {
		cells[i] = m.cloneInd(c)
	}
	return Snapshot[G]{
		Cells:       cells,
		Best:        m.cloneInd(m.best),
		Generation:  m.gen,
		Evaluations: m.evals,
		Seed:        m.seed,
	}
}

// Snapshot is the state captured by Model.Snapshot. The Fit of each
// individual is not trusted across restores — Restore recomputes it from
// Obj under the configured fitness, so a snapshot cannot smuggle in an
// inconsistent selection pressure.
type Snapshot[G any] struct {
	Cells       []core.Individual[G]
	Best        core.Individual[G]
	Generation  int
	Evaluations int64
	Seed        uint64
}

// Restore overwrites the model's evolution state with the snapshot's. The
// snapshot must match the configured grid (Width*Height cells); counters
// must be non-negative. Genomes are deep-copied in, so the snapshot stays
// valid after the model advances.
func (m *Model[G]) Restore(s Snapshot[G]) error {
	if got, want := len(s.Cells), m.cfg.Width*m.cfg.Height; got != want {
		return fmt.Errorf("cellular: snapshot has %d cells, grid wants %d", got, want)
	}
	if s.Generation < 0 || s.Evaluations < 0 {
		return fmt.Errorf("cellular: snapshot counters negative (gen=%d evals=%d)", s.Generation, s.Evaluations)
	}
	cells := make([]core.Individual[G], len(s.Cells))
	for i, c := range s.Cells {
		cells[i] = core.Individual[G]{Genome: m.prob.Clone(c.Genome), Obj: c.Obj, Fit: m.cfg.Fitness(c.Obj)}
	}
	m.cells = cells
	m.best = core.Individual[G]{Genome: m.prob.Clone(s.Best.Genome), Obj: s.Best.Obj, Fit: m.cfg.Fitness(s.Best.Obj)}
	m.gen = s.Generation
	m.evals = s.Evaluations
	m.seed = s.Seed
	return nil
}

// Close stops the partition workers a partitioned Step spawned; Run calls
// it on return, a caller driving Step itself should too. The next Step
// respawns them.
func (m *Model[G]) Close() { m.exec.Close() }

// Run executes the configured number of generations (stopping early at the
// target) and reports the result.
func (m *Model[G]) Run() Result[G] {
	defer m.Close()
	for m.gen < m.cfg.Generations {
		if m.cfg.TargetSet && m.best.Obj <= m.cfg.Target {
			break
		}
		if m.cfg.Stop != nil && m.cfg.Stop() {
			break
		}
		m.Step()
	}
	return Result[G]{
		Best:          m.Best(),
		Generations:   m.gen,
		Evaluations:   m.evals,
		VirtualTime:   m.virtualTime,
		VirtualSerial: m.virtualSerial,
	}
}
