// Package agents implements the agent-based parallel island GA of
// Asadzadeh & Zamanifar [27]. The original system ran on the JADE
// multi-agent middleware; here each agent is a goroutine and every message
// travels through typed mailbox channels:
//
//   - the management agent (the caller) creates the population, splits it
//     into equal subpopulations and hands them to processor agents;
//   - each of the eight processor agents lives on its own "host"
//     (goroutine) and runs a GA on its subpopulation independently;
//   - the synchronisation agent routes migrants between processor agents,
//     which form a virtual cube: each agent has three neighbours.
//
// Message flow forms a natural epoch barrier — a processor sends its best
// and then blocks until its neighbours' bests arrive — so the run is
// deterministic for a fixed seed despite the concurrency.
package agents

import (
	"math"

	"repro/internal/core"
	"repro/internal/island"
	"repro/internal/rng"
)

// migrant is the payload exchanged between processor agents.
type migrant[G any] struct {
	genome G
}

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
	// completing the synchronisation protocol (so no agent deadlocks on the
	// epoch barrier). Must be safe for concurrent use.
	Stop func() bool

	// OnEpoch, when set, is called by the synchronisation agent at every
	// epoch barrier with the completed epoch index and the best objective
	// reported across all processor agents — the model's
	// streaming-progress seam. It runs on the synchronisation agent's
	// goroutine only, and always before Run returns.
	OnEpoch func(epoch int, best float64)
}

// Result reports an agent-system run.
type Result[G any] struct {
	Best        core.Individual[G]
	PerAgent    []float64
	Evaluations int64
	Epochs      int // synchronisation rounds actually executed
}

// Run executes the agent-based island GA and blocks until the management
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

	// Mailboxes: processor agents receive migrants; the synchronisation
	// agent receives (agent, best) reports.
	inbox := make([]chan migrant[G], n)
	for i := range inbox {
		inbox[i] = make(chan migrant[G], n) // ample buffering: no deadlock
	}
	type report struct {
		from   int
		genome G
		obj    float64
	}
	syncIn := make(chan report, n)
	done := make(chan core.Individual[G], n)
	// ctl carries the synchronisation agent's per-epoch continue/halt
	// decision; buffered so the sync agent never blocks on a processor.
	ctl := make([]chan bool, n)
	for i := range ctl {
		ctl[i] = make(chan bool, 1)
	}

	// Synchronisation agent: every epoch, gather all bests, decide whether
	// to halt (the single cancellation decision point: every processor
	// sees the same verdict at the same barrier, so early termination
	// cannot deadlock the exchange), then route each agent's best to its
	// cube neighbours.
	epochsDone := make(chan int, 1)
	go func() {
		completed := 0
		for e := 0; e < cfg.Epochs; e++ {
			bests := make([]G, n)
			bestObj := math.Inf(1)
			for k := 0; k < n; k++ {
				rep := <-syncIn
				bests[rep.from] = rep.genome
				if rep.obj < bestObj {
					bestObj = rep.obj
				}
			}
			completed = e + 1
			if cfg.OnEpoch != nil {
				cfg.OnEpoch(e, bestObj)
			}
			halt := cfg.Stop != nil && cfg.Stop()
			if cfg.TargetSet && bestObj <= cfg.Target {
				halt = true
			}
			for i := range ctl {
				ctl[i] <- !halt
			}
			if halt {
				break
			}
			for i := 0; i < n; i++ {
				for _, t := range cube.Targets(i, n) {
					inbox[t] <- migrant[G]{genome: bests[i]}
				}
			}
		}
		epochsDone <- completed
	}()

	// Processor agents.
	for i := 0; i < n; i++ {
		go func(id int) {
			e := engines[id]
			expect := len(cube.Targets(id, n))
			for epoch := 0; epoch < cfg.Epochs; epoch++ {
				for s := 0; s < cfg.Interval; s++ {
					if cfg.Stop != nil && cfg.Stop() {
						break
					}
					e.Step()
				}
				best := e.Best()
				syncIn <- report{from: id, genome: best.Genome, obj: best.Obj}
				if !<-ctl[id] {
					break
				}
				for k := 0; k < expect; k++ {
					m := <-inbox[id]
					ind := e.MakeIndividual(e.Problem().Clone(m.genome))
					pop := e.Population()
					worst := 0
					for x := range pop {
						if pop[x].Obj > pop[worst].Obj {
							worst = x
						}
					}
					pop[worst] = ind
				}
			}
			done <- e.Best()
		}(i)
	}

	// Management agent: collect results.
	res := Result[G]{Best: core.Individual[G]{Obj: math.Inf(1)}}
	finals := make([]core.Individual[G], 0, n)
	for k := 0; k < n; k++ {
		finals = append(finals, <-done)
	}
	res.Epochs = <-epochsDone
	for _, e := range engines {
		res.Evaluations += e.Evaluations()
	}
	res.PerAgent = make([]float64, 0, n)
	for _, b := range finals {
		res.PerAgent = append(res.PerAgent, b.Obj)
		if b.Obj < res.Best.Obj {
			res.Best = b
		}
	}
	return res
}
