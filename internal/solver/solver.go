// Package solver is the unified entry point over every parallel GA model
// of the survey reproduction. The survey's central observation is that
// master-slave, fine-grained, island and hybrid PGAs are interchangeable
// parallelisation strategies over the same GA skeleton; this package makes
// that interchangeability operational:
//
//   - a JSON-serialisable Spec names a problem (embedded benchmark,
//     instance file, or generator parameters), an encoding, an objective,
//     a model from the registry, model parameters, budgets and a seed;
//   - Solve builds the instance, the bridge problem and the model, runs it
//     under a context (cancellation and deadlines are threaded down to the
//     engines' generation loops), and returns a unified Result with the
//     best schedule, objective, evaluation count, wall time and an
//     optional convergence trace;
//   - Pool solves many Specs concurrently on a bounded worker pool with
//     deterministic per-run seed derivation — the batch-serving shape.
//
// Models self-register in this package's init (serial, ms, island,
// cellular, hybrid, agents, qga); external packages may Register more.
package solver

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/rng"
	"repro/internal/shop"
)

// ProblemSpec names or generates a shop scheduling instance.
type ProblemSpec struct {
	// Instance is an embedded benchmark name ("ft06") or a JSON file path.
	// When set it overrides the generator fields below.
	Instance string `json:"instance,omitempty"`
	// Kind selects the generated machine environment: "flow", "job",
	// "open", "fjs" (flexible job shop) or "ffs" (flexible flow shop).
	Kind     string `json:"kind,omitempty"`
	Jobs     int    `json:"jobs,omitempty"`     // generated jobs (default 10)
	Machines int    `json:"machines,omitempty"` // generated machines (default 5)
	// Seed is the instance generation seed. Any int64 is accepted;
	// ClampInstanceSeed folds it into the Taillard stream's valid range
	// (0 selects the default seed 1).
	Seed int64 `json:"seed,omitempty"`
}

// Params bundles the model parameters a Spec may set; zero values select
// model-specific defaults. One flat struct keeps Specs trivially
// JSON-round-trippable; each model reads the fields it understands.
type Params struct {
	Pop int `json:"pop,omitempty"` // total population across islands (default 80)
	// Workers is the width of the core.Executor a model runs on, for the
	// models that have one: ms sharded-pipeline executors (default 4),
	// island/hybrid deme stepping (default min(GOMAXPROCS, demes)),
	// cellular partitions (default 1). serial, agents (one executor per
	// processor agent) and qga run their fixed concurrency structure and
	// ignore it. Every model is deterministic in it: the same Spec.Seed
	// yields the same Result for workers 1, 2 or 8
	// (TestWorkerCountInvariance).
	Workers  int `json:"workers,omitempty"`
	Islands  int `json:"islands,omitempty"`  // islands, grids, processor agents (default 4; agents 8)
	Interval int `json:"interval,omitempty"` // generations between migrations (default 5; hybrid 10)
	Migrants int `json:"migrants,omitempty"` // emigrants per edge per epoch (default 1)

	// Topology names the island connection graph: "ring" (default),
	// "bi-ring", "torus", "full", "star" or "hypercube".
	Topology string `json:"topology,omitempty"`

	Width        int    `json:"width,omitempty"`        // cellular grid width
	Height       int    `json:"height,omitempty"`       // cellular grid height
	Neighborhood string `json:"neighborhood,omitempty"` // "l5" (default), "c9", "l9"

	Elite         int     `json:"elite,omitempty"`          // elites per generation (default 1)
	CrossoverRate float64 `json:"crossover_rate,omitempty"` // default 0.9
	MutationRate  float64 `json:"mutation_rate,omitempty"`  // default 0.2

	// Rule selects the open shop decoding rule: "earliest" (default),
	// "lpt-task" or "lpt-machine".
	Rule string `json:"rule,omitempty"`

	Scenarios int     `json:"scenarios,omitempty"` // qga sampled scenarios (default 6)
	Sigma     float64 `json:"sigma,omitempty"`     // qga processing-time deviation (default 0.1)
	Bits      int     `json:"bits,omitempty"`      // qga bits per priority (default 4)

	// Federate requests fan-out across the serving node's federation
	// fleet: the islands (and population) are split over the peers and
	// elites are exchanged over the wire each migration epoch. Island
	// model only. A node with no federation configured runs the job
	// locally — the degenerate fleet of one.
	Federate bool `json:"federate,omitempty"`

	// FedKey, FedNodes and FedRank are the shard coordinates ShardSpecs
	// stamps on the per-node shard jobs the federation layer distributes;
	// user submissions leave them zero. FedKey identifies the federated
	// job fleet-wide, FedNodes is the active fleet size and FedRank this
	// shard's rank in [0, FedNodes). A shard derives its RNG from the job
	// seed split FedNodes ways at rank FedRank, so the fleet's streams
	// are disjoint and the run is replayable for a fixed fleet shape.
	FedKey   string `json:"fed_key,omitempty"`
	FedNodes int    `json:"fed_nodes,omitempty"`
	FedRank  int    `json:"fed_rank,omitempty"`

	// FedEpochTimeoutMS overrides the federation node's epoch barrier
	// timeout for this job (milliseconds; 0 keeps the daemon default set
	// by -fed-epoch-timeout-ms). It rides the shard specs to every node,
	// so the whole fleet shares one barrier budget per job.
	FedEpochTimeoutMS int64 `json:"fed_epoch_timeout_ms,omitempty"`
}

// DefaultGenerations is the generation budget an all-zero Budget gets;
// callers layering their own budget policy (the HTTP server's wall cap)
// reference it instead of restating the number.
const DefaultGenerations = 150

// Budget bundles the termination criteria; any satisfied criterion stops
// the run. All-zero budgets default to DefaultGenerations.
//
// Generations, Target and WallMillis apply to every model. Evaluations is
// enforced exactly by the engine-driven models (serial, ms) and as a
// derived generation bound by the epoch-structured models, which may
// overshoot by up to one migration epoch. Stagnation applies to serial
// and ms only.
type Budget struct {
	Generations int     `json:"generations,omitempty"`
	Evaluations int64   `json:"evaluations,omitempty"`
	Stagnation  int     `json:"stagnation,omitempty"`
	Target      float64 `json:"target,omitempty"`
	TargetSet   bool    `json:"target_set,omitempty"`
	WallMillis  int64   `json:"wall_ms,omitempty"`
}

// Spec declares one solver run. The zero value is not valid: Problem and
// Model must be set. Specs marshal to and from JSON without loss.
type Spec struct {
	Problem ProblemSpec `json:"problem"`
	// Encoding selects the chromosome representation: "" (auto by kind),
	// "perm" (job permutation, flow shop), "seq" (operation sequence),
	// "keys" (random keys decoded by Giffler-Thompson) or "flex"
	// (assignment + sequence, flexible shops).
	Encoding string `json:"encoding,omitempty"`
	// Objective names the minimised objective: "" or "makespan" (default),
	// "twc", "twt", "twu", "max-tardiness", "energy".
	Objective string `json:"objective,omitempty"`
	// Model is a registry name; see Names().
	Model  string `json:"model"`
	Params Params `json:"params,omitempty"`
	Budget Budget `json:"budget,omitempty"`
	// Seed is the GA master seed (default 1). Pool derives per-run seeds
	// for Specs left at 0.
	Seed uint64 `json:"seed,omitempty"`
	// StallGenerations stops the run after this many consecutive
	// generations without a new incumbent — convergence-based termination
	// next to the hard budgets. It is sugar for Budget.Stagnation (which
	// wins when both are set) and shares its scope: honored exactly by
	// the engine-driven models (serial, ms), ignored by the
	// epoch-structured ones.
	StallGenerations int `json:"stall_generations,omitempty"`
	// Trace records the convergence trace in the Result (off by default:
	// it costs per-generation statistics).
	Trace bool `json:"trace,omitempty"`
}

// TracePoint is one sample of the convergence trace. Granularity depends
// on the model: per generation for the panmictic and cellular models, per
// migration epoch for the island model.
type TracePoint struct {
	Generation  int     `json:"gen"`
	Evaluations int64   `json:"evals,omitempty"`
	BestObj     float64 `json:"best"`
}

// Result is the unified outcome of a Solve.
type Result struct {
	Model         string        `json:"model"`
	Instance      string        `json:"instance"`
	Kind          string        `json:"kind"`
	Encoding      string        `json:"encoding"`
	Seed          uint64        `json:"seed"`
	BestObjective float64       `json:"best_objective"`
	Evaluations   int64         `json:"evaluations"`
	Generations   int           `json:"generations"`
	Elapsed       time.Duration `json:"elapsed_ns"`
	Canceled      bool          `json:"canceled,omitempty"`

	// Reference, RefKind and Gap embed the instance's reference objective
	// (see ReferenceKindFor) so consumers — the CLI, the bench suite, the
	// HTTP server — read the gap off the Result instead of re-resolving
	// references themselves. Gap is (BestObjective-Reference)/Reference;
	// negative gaps against a "heuristic" reference are expected of any
	// real GA.
	Reference float64 `json:"reference,omitempty"`
	RefKind   RefKind `json:"ref_kind,omitempty"`
	// Gap stays present at 0 (a gap of exactly zero means the reference
	// was matched, which consumers must be able to read).
	Gap   float64      `json:"gap"`
	Trace []TracePoint `json:"trace,omitempty"`

	// BestGenome is the packed wire form of the winning chromosome, set
	// only by federated shard runs (Params.FedKey): Schedule does not
	// cross HTTP, so the owner node rebuilds the fleet winner's schedule
	// from this in ReduceShards.
	BestGenome *Genome `json:"best_genome,omitempty"`

	// Nodes is the per-node provenance of a federated Result: one entry
	// per fleet node, set by the owner's best-of-fleet reduction.
	Nodes []NodeResult `json:"nodes,omitempty"`

	// Schedule is the decoded best schedule. It is reconstructed from the
	// winning genome and validated against Table I before Solve returns.
	Schedule *shop.Schedule `json:"-"`
}

// RoundedElapsed returns Elapsed rounded to ~2 significant figures for
// display.
func (r *Result) RoundedElapsed() time.Duration {
	return r.Elapsed.Round(r.Elapsed/100 + 1)
}

// Run is the resolved form of a Spec handed to a Model: the built
// instance, the objective, the resolved encoding name, the seeded RNG and
// the cancellation hook.
type Run struct {
	Spec      Spec // normalised: defaults applied
	Instance  *shop.Instance
	Objective shop.Objective
	Encoding  string
	RNG       *rng.RNG

	stop func() bool

	// emit, when non-nil, receives the run's typed progress events (see
	// events.go); lastBest/hasBest track the incumbent for classifying
	// observations as improvements.
	emit     func(Event)
	lastBest float64
	hasBest  bool

	// ck is the checkpoint seam of the checkpointing models (see
	// checkpoint.go): periodic resumable snapshots out, an optional warm
	// start in. Runs built by newRun always carry one.
	ck *ckptSeam

	// exchange, when non-nil, is the federation seam (see federate.go):
	// the island runner ships elites through it at every migration epoch
	// when the spec carries shard coordinates.
	exchange MigrantExchange
}

// BuildInstance materialises a ProblemSpec: registry benchmarks and files
// by name, generated instances by kind. Registry names (shop.BenchmarkNames)
// win over file paths.
func BuildInstance(p ProblemSpec) (*shop.Instance, error) {
	if p.Instance != "" {
		if in, ok := shop.BuildBenchmark(p.Instance); ok {
			return in, nil
		}
		return shop.LoadFile(p.Instance)
	}
	jobs, machines := p.Jobs, p.Machines
	if jobs <= 0 {
		jobs = 10
	}
	if machines <= 0 {
		machines = 5
	}
	// ClampInstanceSeed documents and enforces the Taillard seed range.
	seed := ClampInstanceSeed(p.Seed)
	switch p.Kind {
	case "flow":
		return shop.GenerateFlowShop("gen-flow", jobs, machines, seed), nil
	case "job", "":
		return shop.GenerateJobShop("gen-job", jobs, machines, seed, ClampInstanceSeed(int64(seed)+1)), nil
	case "open":
		return shop.GenerateOpenShop("gen-open", jobs, machines, seed), nil
	case "fjs":
		return shop.GenerateFlexibleJobShop("gen-fjs", jobs, machines, machines, 3, seed), nil
	case "ffs":
		per := machines / 2
		if per < 1 {
			per = 1
		}
		return shop.GenerateFlexibleFlowShop("gen-ffs", jobs, []int{per, machines - per}, true, seed), nil
	default:
		return nil, fmt.Errorf("solver: unknown problem kind %q", p.Kind)
	}
}

// objectiveByName resolves an objective name to the shop objective.
func objectiveByName(name string) (shop.Objective, error) {
	switch name {
	case "", "makespan":
		return shop.Makespan, nil
	case "twc":
		return shop.TotalWeightedCompletion, nil
	case "twt":
		return shop.TotalWeightedTardiness, nil
	case "twu":
		return shop.TotalWeightedUnitPenalty, nil
	case "max-tardiness":
		return shop.MaxTardiness, nil
	case "energy":
		return shop.Energy, nil
	default:
		return nil, fmt.Errorf("solver: unknown objective %q", name)
	}
}

// defaultPop is the total population when Params.Pop is unset;
// ShardSpecs splits the same population over a fleet.
const defaultPop = 80

// normalized applies the spec-level defaults shared by all models.
func (s Spec) normalized() Spec {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Params.Pop <= 0 {
		s.Params.Pop = defaultPop
	}
	b := &s.Budget
	// StallGenerations is sugar for Budget.Stagnation; an explicit
	// Stagnation wins.
	if s.StallGenerations > 0 && b.Stagnation <= 0 {
		b.Stagnation = s.StallGenerations
	}
	if b.Generations <= 0 && b.Evaluations <= 0 && b.Stagnation <= 0 &&
		!b.TargetSet && b.WallMillis <= 0 {
		b.Generations = DefaultGenerations
	}
	if b.Generations <= 0 {
		if b.Evaluations > 0 {
			// Epoch-structured models drive their run length from the
			// generation budget; derive one so an evaluations-only budget
			// bounds them too (~Pop evaluations per generation).
			b.Generations = int(b.Evaluations/int64(s.Params.Pop)) + 1
		} else {
			// A wall/target-only budget still needs a generation scale.
			b.Generations = 1 << 20
		}
	}
	return s
}

// termination maps the budget and the cancellation hook onto the engine's
// stopping criteria.
func (r *Run) termination() core.Termination {
	b := r.Spec.Budget
	return core.Termination{
		MaxGenerations: b.Generations,
		MaxEvaluations: b.Evaluations,
		MaxStagnation:  b.Stagnation,
		Target:         b.Target,
		TargetSet:      b.TargetSet,
		Stop:           r.stop,
	}
}

// Solve runs one Spec to completion (or cancellation) and returns the
// unified Result. The context's cancellation and deadline are polled by
// the model between generations, so Solve returns promptly with the best
// found so far and Result.Canceled set. Errors are reserved for invalid
// specs and infeasible decoded schedules.
//
// Solve is the blocking form; Service.Submit is the job-oriented one with
// streaming progress, and Pool the batch layer over it.
func Solve(ctx context.Context, spec Spec) (*Result, error) {
	return solve(ctx, spec, nil, nil, nil)
}

// newRun resolves a spec into the Run its model solves: validation,
// defaults, instance, objective, encoding, model and RNG, with ck (nil for
// none) as the run's checkpoint seam. A resumed run's wall budget is what
// its checkpoint left of the spec's. solve, ValidateCheckpoint and
// ReduceShards share it, so the gate resolves a resume exactly as the run
// does and a federated job resolves exactly as a local one.
func newRun(spec Spec, ck *ckptSeam) (*Run, Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	var seam ckptSeam
	if ck != nil {
		seam = *ck
	}
	if seam.resume != nil && !SupportsCheckpoint(spec.Model) {
		return nil, nil, fmt.Errorf("solver: model %q cannot resume from a checkpoint", spec.Model)
	}
	spec = spec.normalized()
	if cp := seam.resume; cp != nil && spec.Budget.WallMillis > 0 {
		// The wall budget is the job's, not the segment's: a resume gets
		// what was left at its checkpoint, whose ElapsedMS sums every
		// earlier segment, so a crash-restart loop never extends it.
		spec.Budget.WallMillis = max(spec.Budget.WallMillis-cp.ElapsedMS, 1)
	}
	in, err := BuildInstance(spec.Problem)
	if err != nil {
		return nil, nil, err
	}
	obj, err := objectiveByName(spec.Objective)
	if err != nil {
		return nil, nil, err
	}
	enc, err := resolveEncoding(spec.Encoding, in)
	if err != nil {
		return nil, nil, err
	}
	model, ok := Lookup(spec.Model)
	if !ok {
		return nil, nil, fmt.Errorf("solver: unknown model %q (registered: %v)", spec.Model, Names())
	}
	// A federated shard draws its RNG from the job seed split FedNodes
	// ways at its rank — the engine's substream discipline lifted to the
	// fleet: every node's streams are disjoint, and a federated run is
	// replayable for a fixed fleet shape and seed.
	r := rng.New(spec.Seed)
	if n := spec.Params.FedNodes; n > 1 {
		r = r.SplitN(n)[spec.Params.FedRank]
	}
	run := &Run{Spec: spec, Instance: in, Objective: obj, Encoding: enc, RNG: r, ck: &seam}
	return run, model, nil
}

// solve is Solve with the progress, durability and federation seams:
// emit, when non-nil, receives the run's typed events (the Service wires
// a Job's fan-out here); ck, when non-nil, threads checkpointing into the
// checkpointing models (the Service and SolveWithCheckpoints wire it);
// ex, when non-nil, is the migrant exchange shard runs ship elites
// through (the Service wires its Exchange here).
func solve(ctx context.Context, spec Spec, emit func(Event), ck *ckptSeam, ex MigrantExchange) (*Result, error) {
	run, model, err := newRun(spec, ck)
	if err != nil {
		return nil, err
	}
	spec = run.Spec
	if ctx == nil {
		ctx = context.Background()
	}
	// Enforce the wall budget as a context deadline so it reaches every
	// model through the Stop hook.
	userCtx := ctx
	if w := spec.Budget.WallMillis; w > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(w)*time.Millisecond)
		defer cancel()
	}
	run.emit, run.exchange = emit, ex
	run.stop = func() bool {
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
	start := time.Now()
	run.ck.start = start
	res, err := model.Solve(ctx, run)
	if err != nil {
		return nil, fmt.Errorf("solver: model %s: %w", spec.Model, err)
	}
	res.Elapsed = time.Since(start)
	// A run stopped by its own wall budget completed normally; Canceled
	// reports only caller-initiated cancellation.
	res.Canceled = userCtx.Err() != nil
	return run.finish(res)
}

// finish completes a Result from the resolved run: the header (model,
// instance, kind, encoding, seed), the Table I check of its schedule, and
// the embedded reference and gap. solve and ReduceShards share it, so a
// federated job reports exactly what the same spec solved locally does.
func (run *Run) finish(res *Result) (*Result, error) {
	spec, in := run.Spec, run.Instance
	res.Model = spec.Model
	res.Instance = in.Name
	res.Kind = in.Kind.String()
	if res.Encoding == "" {
		// Models with a private representation (qga's Q-bits) set their
		// own; everything else reports the resolved encoding it ran.
		res.Encoding = run.Encoding
	}
	res.Seed = spec.Seed
	if res.Schedule == nil {
		return nil, fmt.Errorf("solver: model %s returned no schedule", spec.Model)
	}
	if err := res.Schedule.Validate(); err != nil {
		return nil, fmt.Errorf("solver: model %s produced infeasible schedule: %w", spec.Model, err)
	}
	// Embed the reference so consumers read gaps off the Result instead of
	// re-resolving references themselves.
	if ref, kind, err := ReferenceKindFor(in, spec.Objective); err == nil && ref > 0 {
		res.Reference = ref
		res.RefKind = kind
		res.Gap = (res.BestObjective - ref) / ref
	}
	return res, nil
}

// RefKind says what a reference objective is measured against, which
// decides how a gap to it should be read.
type RefKind string

const (
	// RefOptimal: the registry's proven optimal makespan.
	RefOptimal RefKind = "optimal"
	// RefBestKnown: the registry's best-known (not proven) makespan.
	RefBestKnown RefKind = "best-known"
	// RefHeuristic: the survey's Fbar — the best of a few dispatching-rule
	// schedules. Negative gaps (beating it) are expected of any real GA.
	RefHeuristic RefKind = "heuristic"
)

// ReferenceKindFor resolves the reference objective and its kind. The
// instance registry is consulted by the built instance's name: a registered
// benchmark with a recorded best-known makespan anchors the makespan
// objective exactly; every other (instance, objective) pair falls back to
// the heuristic reference.
func ReferenceKindFor(in *shop.Instance, objective string) (float64, RefKind, error) {
	obj, err := objectiveByName(objective)
	if err != nil {
		return 0, RefHeuristic, err
	}
	if objective == "" || objective == "makespan" {
		// Guard against a file-loaded instance whose name merely collides
		// with a registry entry: the anchor only applies when the shape
		// AND total work match the registered benchmark, so a same-named,
		// same-sized variant with tweaked times is not anchored to an
		// optimum that belongs to different data.
		if b, ok := shop.LookupBenchmark(in.Name); ok && b.BestKnown > 0 &&
			in.Kind == b.Kind && in.NumJobs() == b.Jobs &&
			in.NumMachines == b.Machines && totalWork(in) == totalWork(b.New()) {
			kind := RefBestKnown
			if b.Optimal {
				kind = RefOptimal
			}
			return float64(b.BestKnown), kind, nil
		}
	}
	return decode.Reference(in, obj), RefHeuristic, nil
}

// totalWork sums every eligible processing time and operation count into a
// cheap checksum for the registry-anchor guard above.
func totalWork(in *shop.Instance) int64 {
	var sum int64
	for _, j := range in.Jobs {
		for _, op := range j.Ops {
			sum += int64(len(op.Times)) << 32
			for _, t := range op.Times {
				sum += int64(t)
			}
		}
	}
	return sum
}
