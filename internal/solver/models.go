package solver

import (
	"context"
	"fmt"

	"repro/internal/agents"
	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/hybrid"
	"repro/internal/island"
	"repro/internal/qga"
	"repro/internal/shop"
	"repro/internal/shopga"
)

// engineModel dispatches one generic runner over the three genome
// families. Go interfaces cannot carry generic methods, so each model
// registers explicit instantiations of its runner; the registry and Spec
// stay entirely non-generic.
type engineModel struct {
	name string
	seq  func(ctx context.Context, run *Run, enc encoding[[]int]) (*Result, error)
	keys func(ctx context.Context, run *Run, enc encoding[[]float64]) (*Result, error)
	flex func(ctx context.Context, run *Run, enc encoding[shopga.FlexGenome]) (*Result, error)
}

// Name implements Model.
func (m engineModel) Name() string { return m.name }

// Solve implements Model: build the encoding for the resolved genome
// family and hand off to the instantiated runner.
func (m engineModel) Solve(ctx context.Context, run *Run) (*Result, error) {
	switch run.Encoding {
	case EncKeys:
		enc, err := keysEncoding(run)
		if err != nil {
			return nil, err
		}
		return m.keys(ctx, run, enc)
	case EncFlex:
		enc, err := flexEncoding(run)
		if err != nil {
			return nil, err
		}
		return m.flex(ctx, run, enc)
	default: // EncSeq, EncPerm
		enc, err := seqEncoding(run)
		if err != nil {
			return nil, err
		}
		return m.seq(ctx, run, enc)
	}
}

func init() {
	Register(engineModel{"serial", runSerial[[]int], runSerial[[]float64], runSerial[shopga.FlexGenome]})
	Register(engineModel{"ms", runMasterSlave[[]int], runMasterSlave[[]float64], runMasterSlave[shopga.FlexGenome]})
	Register(engineModel{"island", runIsland[[]int], runIsland[[]float64], runIsland[shopga.FlexGenome]})
	Register(engineModel{"cellular", runCellular[[]int], runCellular[[]float64], runCellular[shopga.FlexGenome]})
	Register(engineModel{"hybrid", runHybrid[[]int], runHybrid[[]float64], runHybrid[shopga.FlexGenome]})
	Register(engineModel{"agents", runAgents[[]int], runAgents[[]float64], runAgents[shopga.FlexGenome]})
	Register(qgaModel{})
}

// engineConfig maps Spec params and budget onto a core.Config.
func engineConfig[G any](run *Run, enc encoding[G]) core.Config[G] {
	p := run.Spec.Params
	return core.Config[G]{
		Pop:           p.Pop,
		Elite:         p.Elite,
		CrossoverRate: p.CrossoverRate,
		MutationRate:  p.MutationRate,
		Ops:           enc.ops,
		Term:          run.termination(),
	}
}

// defaultIslands is the island model's deme count when Params.Islands is
// unset; ShardSpecs splits the same count over a fleet.
const defaultIslands = 4

// islandCount returns the configured island/grid/agent count.
func islandCount(run *Run, def int) int {
	if n := run.Spec.Params.Islands; n > 0 {
		return n
	}
	return def
}

// subPop splits the total population over n demes, at least 2 each.
func subPop(run *Run, n int) int {
	sp := run.Spec.Params.Pop / n
	if sp < 2 {
		sp = 2
	}
	return sp
}

// interval returns the migration interval.
func interval(run *Run, def int) int {
	if v := run.Spec.Params.Interval; v > 0 {
		return v
	}
	return def
}

// epochs converts the generation budget into migration epochs.
func epochs(run *Run, interval int) int {
	e := run.Spec.Budget.Generations / interval
	if e < 1 {
		e = 1
	}
	return e
}

func topologyByName(name string) (island.Topology, error) {
	switch name {
	case "", "ring":
		return island.Ring{}, nil
	case "bi-ring":
		return island.BiRing{}, nil
	case "torus":
		return island.Torus2D{}, nil
	case "full":
		return island.FullyConnected{}, nil
	case "star":
		return island.Star{}, nil
	case "hypercube":
		return island.Hypercube{}, nil
	default:
		return nil, fmt.Errorf("solver: unknown topology %q", name)
	}
}

func neighborhoodByName(name string) (cellular.Neighborhood, error) {
	switch name {
	case "", "l5":
		return cellular.L5, nil
	case "c9":
		return cellular.C9, nil
	case "l9":
		return cellular.L9, nil
	default:
		return cellular.L5, fmt.Errorf("solver: unknown neighborhood %q", name)
	}
}

// gridDims returns the cellular grid dimensions: explicit params (a
// missing dimension is derived so the grid still holds the population),
// the model's default side, or the smallest square holding the
// configured population.
func gridDims(run *Run, defSide int) (w, h int) {
	p := run.Spec.Params
	other := func(dim int) int {
		if defSide > 0 {
			return defSide
		}
		o := (p.Pop + dim - 1) / dim
		if o < 1 {
			o = 1
		}
		return o
	}
	switch {
	case p.Width > 0 && p.Height > 0:
		return p.Width, p.Height
	case p.Width > 0:
		return p.Width, other(p.Width)
	case p.Height > 0:
		return other(p.Height), p.Height
	case defSide > 0:
		return defSide, defSide
	}
	side := 1
	for side*side < p.Pop {
		side++
	}
	return side, side
}

// runEngine is the shared body of the engine-driven models (serial, ms):
// build the engine, optionally warm-start it from a checkpoint, run, and
// convert the result. The per-generation hook emits progress events,
// records the trace when asked, and with saving configured snapshots the
// engine on the seam's cadence; without any of them the engine runs
// unobserved. The engine is built fresh even when resuming — core.New's
// construction draws and initial evaluations are then overwritten
// wholesale by Restore, whose RNG states make the resumed trajectory
// bit-identical to the uninterrupted one.
func runEngine[G any](run *Run, enc encoding[G], workers int) (*Result, error) {
	cfg := engineConfig(run, enc)
	cfg.Workers = workers
	out := &Result{}
	genHook, ck, trace := run.genHook(), run.ck, run.Spec.Trace
	var eng *core.Engine[G]
	if genHook != nil || trace || ck.active() {
		// eng is captured before assignment: the engine only invokes the
		// hook from Step, after New returned.
		cfg.OnGeneration = func(gs core.GenStats) {
			if genHook != nil {
				genHook(gs)
			}
			if trace {
				out.Trace = append(out.Trace, TracePoint{
					Generation: gs.Generation, Evaluations: gs.Evaluations, BestObj: gs.BestSoFar,
				})
			}
			if ck.due(gs.Generation, 1) {
				ck.save(ck.stamp(packEngineCheckpoint(run, enc, eng.Snapshot())))
			}
		}
	}
	eng = core.New(enc.problem, run.RNG, cfg)
	defer eng.Close()
	if halt, err := restore(run, enc, unpackEngineCheckpoint[G], eng.Restore); halt {
		return nil, err
	}
	res := eng.Run()
	out.BestObjective, out.Evaluations, out.Generations = res.Best.Obj, res.Evaluations, res.Generations
	out.Schedule = enc.schedule(res.Best.Genome)
	return out, nil
}

// runSerial is the panmictic Table II GA: the engine's pipeline on one
// inline executor.
func runSerial[G any](_ context.Context, run *Run, enc encoding[G]) (*Result, error) {
	return runEngine(run, enc, 0)
}

// runMasterSlave is Table III evolved into the engine's sharded generation
// pipeline: persistent workers each own contiguous shards of the next
// generation and run selection → crossover → mutation → evaluation for
// them end-to-end, drawing from per-shard RNG substreams. The survey's
// defining Table III property — parallelisation does not change the
// algorithm — holds exactly: the trajectory is bit-identical for ANY
// workers value (TestMasterSlaveWorkerInvariance) and coincides with the
// serial model's (TestSerialEqualsMasterSlave).
func runMasterSlave[G any](_ context.Context, run *Run, enc encoding[G]) (*Result, error) {
	workers := run.Spec.Params.Workers
	if workers <= 0 {
		workers = 4
	}
	return runEngine(run, enc, workers)
}

// runIsland is Table V: the coarse-grained multi-deme model. When the
// spec carries federation shard coordinates and the run has an exchange,
// each migration epoch extends across the node boundary: local elites are
// packed onto the wire, inbound migrants are unpacked through the same
// per-encoding validators as checkpoints (damaged migrants are rejected,
// never decoded blind) and injected in peer-rank order.
func runIsland[G any](ctx context.Context, run *Run, enc encoding[G]) (*Result, error) {
	n := islandCount(run, defaultIslands)
	iv := interval(run, 5)
	topo, err := topologyByName(run.Spec.Params.Topology)
	if err != nil {
		return nil, err
	}
	b := run.Spec.Budget
	icfg := island.Config[G]{
		Islands:  n,
		SubPop:   subPop(run, n),
		Interval: iv,
		Migrants: run.Spec.Params.Migrants,
		Epochs:   epochs(run, iv),
		Topology: topo,
		Workers:  run.Spec.Params.Workers,
		Engine:   engineConfig(run, enc),
		Problem:  func(int) core.Problem[G] { return enc.problem },
		Target:   b.Target, TargetSet: b.TargetSet,
		Stop: run.stop,
	}
	fed := run.exchange != nil && run.Spec.Params.FedKey != ""
	// shardCP is what the next ExchangeMigrants piggybacks for the owner's
	// failover; shipCP says whether the exchange wants one at all.
	var shardCP *Checkpoint
	shipCP := false
	if fed {
		ex, key, rank := run.exchange, run.Spec.Params.FedKey, run.Spec.Params.FedRank
		shipCP = ex.ShardStarted(key, rank, run.Spec.Params.FedNodes, run.Spec.Params.FedEpochTimeoutMS)
		defer ex.ShardFinished(key, rank)
		icfg.Exchange = func(epoch int, elites []core.Individual[G]) []G {
			out := make([]Migrant, len(elites))
			for i, e := range elites {
				out[i] = Migrant{Genome: enc.pack(e.Genome), Obj: e.Obj}
			}
			rep := ex.ExchangeMigrants(ctx, key, rank, epoch, out, shardCP)
			for _, p := range rep.Degraded {
				run.observeDegraded(p, epoch)
			}
			gs := make([]G, 0, len(rep.In))
			for _, mg := range rep.In {
				g, uerr := enc.unpack(mg.Genome)
				if uerr != nil {
					ex.MigrantRejected(key)
					continue
				}
				gs = append(gs, g)
			}
			return gs
		}
	}

	// The epoch observer is also the checkpoint seam: island state only
	// sits at a resumable boundary between epochs, so snapshots are taken
	// from OnEpoch (which runs on the model's goroutine, after the epoch's
	// island goroutines joined). A shard whose exchange wants checkpoints
	// snapshots EVERY epoch into shardCP, while the durability seam saves
	// on its generation cadence converted to epochs.
	ck := run.ck
	var mdl *island.Model[G]
	if run.emit != nil || shipCP || ck.active() {
		icfg.OnEpoch = func(es island.EpochStats) {
			if run.emit != nil {
				run.observeEpoch(es.Epoch, es.Generation, es.Islands, es.BestObj, migrationEdges(es.Exchanges))
			}
			doSave := ck.due(es.Epoch+1, iv)
			if !shipCP && !doSave {
				return
			}
			cp := ck.stamp(packIslandCheckpoint(run, enc, mdl.Snapshot()))
			if shipCP {
				shardCP = cp
			}
			if doSave {
				// The save sink owns its checkpoint (the Service stamps
				// EventSeq on it); give it a copy so the shard's wire copy
				// stays immutable.
				cpCopy := *cp
				ck.save(&cpCopy)
			}
		}
	}
	mdl = island.New(run.RNG, icfg)
	if halt, err := restore(run, enc, unpackIslandSnapshot[G], mdl.Restore); halt {
		return nil, err
	}
	if shipCP && ck.resume != nil {
		// A resumed failover shard re-offers its resume point until the
		// first fresh epoch snapshot replaces it, so a second node loss
		// still finds a checkpoint at the owner.
		shardCP = ck.resume
	}
	res := mdl.Run()
	out := &Result{
		BestObjective: res.Best.Obj,
		Evaluations:   res.Evaluations,
		Generations:   res.Generations,
		Schedule:      enc.schedule(res.Best.Genome),
	}
	if fed {
		bg := enc.pack(res.Best.Genome)
		out.BestGenome = &bg
	}
	if run.Spec.Trace {
		for _, es := range res.History {
			out.Trace = append(out.Trace, TracePoint{Generation: es.Generation, BestObj: es.BestObj})
		}
	}
	return out, nil
}

// migrationEdges converts the island model's exchange tally to the event
// wire form.
func migrationEdges(xs []island.Exchange) []MigrationEdge {
	if len(xs) == 0 {
		return nil
	}
	out := make([]MigrationEdge, len(xs))
	for i, x := range xs {
		out[i] = MigrationEdge{From: x.From, To: x.To, Count: x.Count}
	}
	return out
}

// runCellular is Table IV: the fine-grained torus model.
func runCellular[G any](_ context.Context, run *Run, enc encoding[G]) (*Result, error) {
	nb, err := neighborhoodByName(run.Spec.Params.Neighborhood)
	if err != nil {
		return nil, err
	}
	w, h := gridDims(run, 0)
	b := run.Spec.Budget
	p := run.Spec.Params
	ccfg := cellular.Config[G]{
		Width: w, Height: h,
		Neighborhood:    nb,
		ReplaceIfBetter: true,
		CrossoverRate:   p.CrossoverRate,
		MutationRate:    p.MutationRate,
		Cross:           enc.ops.Cross,
		Mutate:          enc.ops.Mutate,
		Partitions:      p.Workers,
		Generations:     b.Generations,
		Target:          b.Target, TargetSet: b.TargetSet,
		Stop: run.stop,
	}
	out := &Result{}
	if run.emit != nil || run.Spec.Trace {
		cells := int64(w * h)
		ccfg.OnGeneration = func(gs cellular.GenStats) {
			evals := cells * int64(gs.Generation+1)
			if run.emit != nil {
				run.observe(gs.Generation, evals, gs.BestSoFar)
			}
			if run.Spec.Trace {
				out.Trace = append(out.Trace, TracePoint{Generation: gs.Generation, Evaluations: evals, BestObj: gs.BestSoFar})
			}
		}
	}
	res := cellular.New(enc.problem, run.RNG, ccfg).Run()
	out.BestObjective, out.Evaluations, out.Generations = res.Best.Obj, res.Evaluations, res.Generations
	out.Schedule = enc.schedule(res.Best.Genome)
	return out, nil
}

// runHybrid is Lin's ring-of-torus hybrid: islands whose subpopulations
// are cellular grids.
func runHybrid[G any](_ context.Context, run *Run, enc encoding[G]) (*Result, error) {
	nb, err := neighborhoodByName(run.Spec.Params.Neighborhood)
	if err != nil {
		return nil, err
	}
	iv := interval(run, 10)
	w, h := gridDims(run, 5)
	b := run.Spec.Budget
	p := run.Spec.Params
	grids := islandCount(run, 4)
	hcfg := hybrid.RingOfTorusConfig[G]{
		Grids:    grids,
		Interval: iv,
		Epochs:   epochs(run, iv),
		Workers:  run.Spec.Params.Workers,
		Grid: cellular.Config[G]{
			Width: w, Height: h,
			Neighborhood:    nb,
			ReplaceIfBetter: true,
			CrossoverRate:   p.CrossoverRate,
			MutationRate:    p.MutationRate,
			Cross:           enc.ops.Cross,
			Mutate:          enc.ops.Mutate,
		},
		Target: b.Target, TargetSet: b.TargetSet,
		Stop: run.stop,
	}
	// Hybrid state sits at a resumable boundary between ring-migration
	// epochs, so the checkpoint seam hangs off OnEpoch, mirroring runIsland
	// (minus federation: hybrid does not shard across nodes).
	ck := run.ck
	var mdl *hybrid.RingOfTorus[G]
	if run.emit != nil || ck.active() {
		hcfg.OnEpoch = func(epoch int, best float64) {
			if run.emit != nil {
				run.observeEpoch(epoch, (epoch+1)*iv, grids, best, nil)
			}
			if ck.due(epoch+1, iv) {
				ck.save(ck.stamp(packHybridCheckpoint(run, enc, mdl.Snapshot())))
			}
		}
	}
	mdl = hybrid.NewRingOfTorus(enc.problem, run.RNG, hcfg)
	if halt, err := restore(run, enc, unpackHybridSnapshot[G], mdl.Restore); halt {
		return nil, err
	}
	res := mdl.Run()
	return &Result{
		BestObjective: res.Best.Obj,
		Evaluations:   res.Evaluations,
		Generations:   res.Epochs * iv,
		Schedule:      enc.schedule(res.Best.Genome),
	}, nil
}

// runAgents is the agent-based island GA on the virtual cube.
func runAgents[G any](_ context.Context, run *Run, enc encoding[G]) (*Result, error) {
	n := islandCount(run, 8)
	iv := interval(run, 5)
	ep := epochs(run, iv)
	b := run.Spec.Budget
	acfg := agents.Config[G]{
		Processors: n,
		SubPop:     subPop(run, n),
		Interval:   iv,
		Epochs:     ep,
		Engine:     engineConfig(run, enc),
		Target:     b.Target, TargetSet: b.TargetSet,
		Stop: run.stop,
	}
	if run.emit != nil {
		acfg.OnEpoch = func(epoch int, best float64) {
			run.observeEpoch(epoch, (epoch+1)*iv, n, best, nil)
		}
	}
	res := agents.Run(enc.problem, run.RNG, acfg)
	return &Result{
		BestObjective: res.Best.Obj,
		Evaluations:   res.Evaluations,
		Generations:   res.Epochs * iv,
		Schedule:      enc.schedule(res.Best.Genome),
	}, nil
}

// qgaModel is the star-topology parallel quantum GA on the stochastic job
// shop. It has its own Q-bit encoding, so it bypasses the encoding
// dispatch; the instance must be a (non-flexible) job shop and the
// objective is the expected makespan over the sampled scenarios.
type qgaModel struct{}

// Name implements Model.
func (qgaModel) Name() string { return "qga" }

// Solve implements Model.
func (qgaModel) Solve(_ context.Context, run *Run) (*Result, error) {
	// Spec.Validate already rejected an encoding and a non-makespan
	// objective; a file-path instance's kind is known only once built.
	in := run.Instance
	if in.Kind != shop.JobShop {
		return nil, fmt.Errorf("qga requires a job shop instance, got %s", in.Kind)
	}
	p := run.Spec.Params
	scenarios := p.Scenarios
	if scenarios <= 0 {
		scenarios = 6
	}
	sigma := p.Sigma
	if sigma <= 0 {
		sigma = 0.1
	}
	st := qga.NewStochastic(in, scenarios, sigma, run.RNG.Uint64())
	n := islandCount(run, 4)
	iv := interval(run, 5)
	ep := epochs(run, iv)
	b := run.Spec.Budget
	qcfg := qga.Config{
		Pop:    subPop(run, n),
		Bits:   p.Bits,
		Target: b.Target, TargetSet: b.TargetSet,
		Stop: run.stop,
	}
	if run.emit != nil {
		qcfg.OnEpoch = func(epoch int, best float64) {
			run.observeEpoch(epoch, (epoch+1)*iv, n, best, nil)
		}
	}
	res := qga.StarPQGA(st, run.RNG, n, iv, ep, qcfg)
	if res.BestSeq == nil {
		return nil, fmt.Errorf("qga cancelled before the first generation")
	}
	return &Result{
		BestObjective: res.BestObj,
		Evaluations:   res.Evaluations,
		Generations:   res.Epochs * iv,
		Encoding:      "qbits",
		// The schedule realises the best sequence on the base (expected
		// time) instance; BestObjective is its expected makespan over the
		// scenarios, so the two deliberately differ.
		Schedule: decode.JobShop(in, res.BestSeq),
	}, nil
}
