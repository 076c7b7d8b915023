// Package agents implements the agent-based parallel island GA of
// Asadzadeh & Zamanifar [27]. The original system ran on the JADE
// multi-agent middleware; here the agents run on one core.Executor:
//
//   - the management agent (the caller) creates the population, splits it
//     into equal subpopulations and hands them to processor agents;
//   - each of the eight processor agents lives on its own "host" (one
//     executor of an Executor Processors wide, whatever the solver's
//     Workers knob says) and runs a GA on its subpopulation independently;
//   - the synchronisation agent routes migrants between processor agents,
//     which form a virtual cube: each agent has three neighbours. It runs
//     on the caller's goroutine between epochs.
//
// The executor's step barrier separates the phases of an epoch —
// processors evolve, the synchronisation agent fills each inbox in
// ascending sender order, processors absorb their inboxes — so the run is
// deterministic for a fixed seed despite the concurrency.
package agents

import (
	"math"

	"repro/internal/core"
	"repro/internal/island"
	"repro/internal/rng"
)

// Config parameterises the agent system.
type Config[G any] struct {
	Processors int // processor agents (default 8: the virtual cube)
	SubPop     int // individuals per processor agent (default 20)
	Interval   int // generations between synchronisations (default 5)
	Epochs     int // synchronisation rounds (default 10)
	Engine     core.Config[G]

	// Target, when TargetSet, stops the system at the first epoch barrier
	// where any processor agent's best reaches it (the synchronisation
	// agent decides, so all agents halt together).
	Target    float64
	TargetSet bool

	// Stop, when set, is polled between generations by every processor
	// agent; returning true makes agents skip further GA steps while still
	// reporting to the synchronisation agent, which polls it too and then
	// halts the system. Must be safe for concurrent use.
	Stop func() bool

	// OnEpoch, when set, is called by the synchronisation agent at every
	// epoch barrier with the completed epoch index and the best objective
	// reported across all processor agents — the model's
	// streaming-progress seam. It runs on Run's goroutine.
	OnEpoch func(epoch int, best float64)
}

// Result reports an agent-system run.
type Result[G any] struct {
	Best        core.Individual[G]
	PerAgent    []float64
	Evaluations int64
	Epochs      int // synchronisation rounds actually executed
}

// Run executes the agent-based island GA and returns once the management
// agent has collected all results.
func Run[G any](p core.Problem[G], r *rng.RNG, cfg Config[G]) Result[G] {
	if p == nil {
		panic("agents: nil problem")
	}
	if cfg.Processors <= 0 {
		cfg.Processors = 8
	}
	if cfg.SubPop <= 0 {
		cfg.SubPop = 20
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	n := cfg.Processors
	cube := island.Hypercube{}

	// Management agent: create engines (the execute agent's chromosome
	// creation is the engines' random initialisation).
	engines := make([]*core.Engine[G], n)
	for i := 0; i < n; i++ {
		ecfg := cfg.Engine
		ecfg.Pop = cfg.SubPop
		ecfg.Term = core.Termination{MaxGenerations: 1 << 30}
		engines[i] = core.New(p, r.Split(), ecfg)
	}
	x := core.NewExecutor(n)
	defer x.Close()
	stopped := func() bool { return cfg.Stop != nil && cfg.Stop() }

	// Processor agents: evolve for an interval, then report the best.
	bests := make([]core.Individual[G], n)
	evolve := func(id int) {
		e := engines[id]
		for s := 0; s < cfg.Interval && !stopped(); s++ {
			e.Step()
		}
		bests[id] = e.Best()
	}
	// inbox[i] holds the migrants routed to processor agent i, in ascending
	// sender order; absorb replaces the worst resident with each in turn.
	inbox := make([][]G, n)
	absorb := func(id int) {
		e := engines[id]
		for _, g := range inbox[id] {
			ind := e.MakeIndividual(e.Problem().Clone(g))
			pop := e.Population()
			worst := 0
			for k := range pop {
				if pop[k].Obj > pop[worst].Obj {
					worst = k
				}
			}
			pop[worst] = ind
		}
		inbox[id] = inbox[id][:0]
	}

	res := Result[G]{Best: core.Individual[G]{Obj: math.Inf(1)}}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		x.Run(evolve)
		// Synchronisation agent: gather all bests, decide whether to halt
		// (the single decision point, so every processor sees the same
		// verdict at the same barrier), then route each agent's best to its
		// cube neighbours.
		bestObj := math.Inf(1)
		for _, b := range bests {
			bestObj = math.Min(bestObj, b.Obj)
		}
		res.Epochs = epoch + 1
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(epoch, bestObj)
		}
		if stopped() || cfg.TargetSet && bestObj <= cfg.Target {
			break
		}
		for i := 0; i < n; i++ {
			for _, t := range cube.Targets(i, n) {
				inbox[t] = append(inbox[t], bests[i].Genome)
			}
		}
		x.Run(absorb)
	}

	// Management agent: collect results.
	res.PerAgent = make([]float64, 0, n)
	for _, e := range engines {
		b := e.Best()
		res.Evaluations += e.Evaluations()
		res.PerAgent = append(res.PerAgent, b.Obj)
		if b.Obj < res.Best.Obj {
			res.Best = b
		}
	}
	return res
}
