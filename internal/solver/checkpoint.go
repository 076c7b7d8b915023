package solver

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/island"
	"repro/internal/rng"
	"repro/internal/shop"
	"repro/internal/shopga"
)

// Checkpoint is a resumable snapshot of a run (see SupportsCheckpoint):
// one DemeState per population the model evolves, plus the run-level
// counters. The engine-driven models (serial, ms) write their one engine
// as Demes[0]; island writes one deme per island engine, the model-level
// RNG stream and the epoch counter; hybrid writes one deme per cellular
// grid and the epoch counter. Resuming is bit-identical to never having
// stopped: the streams are the only hidden input of the deterministic
// models, and they are all here.
type Checkpoint struct {
	// Model and Encoding pin the checkpoint to the run shape that produced
	// it; resuming under any other is rejected.
	Model    string `json:"model"`
	Encoding string `json:"encoding"`

	// Generation, Evaluations and BestObjective summarise the run for
	// recovery logs. Evaluations is the run total: for island runs the
	// per-deme sum plus the evaluations of merged-away islands, so the
	// demes must sum to at most Evaluations.
	Generation  int   `json:"generation"`
	Evaluations int64 `json:"evaluations"`
	// ElapsedMS accumulates wall time spent across every run segment up to
	// this snapshot, so a resume grants only the remaining wall budget
	// instead of the full budget again.
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
	// EventSeq is the job's event sequence number at snapshot time (stamped
	// by the Service); a resumed job continues numbering from it so SSE
	// clients resuming with Last-Event-ID stay roughly aligned across a
	// daemon restart.
	EventSeq int64 `json:"event_seq,omitempty"`

	// RNG is the island model's model-level stream (migrant selection,
	// replacement, topology draws). The other models keep their randomness
	// in the demes and leave it at its zero value, which is never fed back
	// to an RNG.
	RNG           rng.State `json:"rng"`
	BestObjective float64   `json:"best_objective"`

	// Epoch counts completed migration epochs (island, hybrid).
	Epoch int         `json:"epoch,omitempty"`
	Demes []DemeState `json:"demes,omitempty"`
}

// DemeState is one population's slice of a checkpoint: its individuals
// with objectives, its incumbent, its counters, and its randomness. An
// engine deme (serial/ms, every island) carries the engine RNG stream and
// its per-shard substreams; a hybrid grid carries its derivation seed (the
// cellular model's entire randomness is one seed).
type DemeState struct {
	Pop           []Genome  `json:"pop"`
	Objs          []float64 `json:"objs"`
	Best          *Genome   `json:"best"`
	BestObjective float64   `json:"best_objective"`

	RNG    *rng.State  `json:"rng,omitempty"`
	Shards []rng.State `json:"shards,omitempty"`
	Seed   uint64      `json:"seed,omitempty"`

	Generation  int   `json:"generation"`
	Evaluations int64 `json:"evaluations"`
	Stagnation  int   `json:"stagnation,omitempty"`
}

// SupportsCheckpoint reports whether the model can checkpoint and resume.
// The engine-driven models (serial, ms) snapshot their single engine; the
// epoch-structured island and hybrid models snapshot per deme between
// migration epochs. The remaining models (cellular, agents, qga) are
// restarted cold on recovery.
func SupportsCheckpoint(model string) bool {
	switch model {
	case "serial", "ms", "island", "hybrid":
		return true
	}
	return false
}

// CheckpointOptions configures SolveWithCheckpoints.
type CheckpointOptions struct {
	// Every is the snapshot cadence in generations (<= 0 disables saving).
	Every int
	// Save receives each snapshot, synchronously from the generation loop;
	// keep it cheap or hand off. The Checkpoint is owned by the callee.
	Save func(*Checkpoint)
	// Resume, when set, warm-starts the run from a prior snapshot instead
	// of a fresh population. The spec's model and encoding must match the
	// checkpoint's, and the model must support checkpointing. The spec's
	// wall budget is the whole job's: the resumed run gets what is left of
	// it after the checkpoint's ElapsedMS, at least 1 ms.
	Resume *Checkpoint
}

// SolveWithCheckpoints is Solve with the durability seam: periodic
// resumable snapshots out, an optional warm start in. Saving is silently
// skipped for models that do not support checkpointing; resuming from one
// is an error.
func SolveWithCheckpoints(ctx context.Context, spec Spec, opts CheckpointOptions) (*Result, error) {
	return solve(ctx, spec, nil, &ckptSeam{every: opts.Every, save: opts.Save, resume: opts.Resume}, nil)
}

// ValidateCheckpoint is the recovery layer's semantic gate: it runs the
// resume itself and stops before the first generation. It resolves the
// spec as Solve does, builds the model (which evaluates a fresh initial
// population once), unpacks the checkpoint with strict per-genome
// validation and Restores it, so whatever passes resumes. A checkpoint
// that passed the store's checksum can still be wrong (edited spec,
// different instance, truncated population); the caller downgrades any
// error here to a cold start.
func ValidateCheckpoint(spec Spec, cp *Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("solver: nil checkpoint")
	}
	if cp.ElapsedMS < 0 || cp.EventSeq < 0 {
		return fmt.Errorf("solver: checkpoint elapsed/event counters out of range")
	}
	run, model, err := newRun(spec, &ckptSeam{resume: cp, gate: true})
	if err != nil {
		return err
	}
	_, err = model.Solve(context.TODO(), run)
	return err
}

// ckptSeam is the internal form of CheckpointOptions threaded through
// solve into the checkpointing runners (serial, ms, island, hybrid). It
// holds what they share: the save cadence, the wall-time stamp and the
// resume (restore).
type ckptSeam struct {
	every  int
	save   func(*Checkpoint)
	resume *Checkpoint
	// gate makes restore halt the runner before its first generation:
	// ValidateCheckpoint's dry run of the resume.
	gate bool
	// start is when this run segment began.
	start time.Time
}

// active reports whether periodic saving is configured.
func (c *ckptSeam) active() bool {
	return c != nil && c.save != nil && c.every > 0
}

// due reports whether a save falls after the n-th completed step of iv
// generations (one generation for the engines, one epoch for the epoch
// models): the generation cadence converted to steps, at least one.
func (c *ckptSeam) due(n, iv int) bool {
	return c.active() && n%max(c.every/iv, 1) == 0
}

// stamp sets cp.ElapsedMS to the wall time of every run segment so far.
func (c *ckptSeam) stamp(cp *Checkpoint) *Checkpoint {
	cp.ElapsedMS = time.Since(c.start).Milliseconds()
	if c.resume != nil {
		cp.ElapsedMS += c.resume.ElapsedMS
	}
	return cp
}

// restore warm-starts a freshly built model from the seam's checkpoint, if
// there is one: unpack, then Restore. halt tells the runner to return
// before its first generation, with err: the resume failed, or it was the
// gate's dry run.
func restore[G, S any](run *Run, enc encoding[G], unpack func(*Run, encoding[G], *Checkpoint) (S, error), into func(S) error) (halt bool, err error) {
	ck := run.ck
	if ck == nil || ck.resume == nil {
		return false, nil
	}
	snap, err := unpack(run, enc, ck.resume)
	if err == nil {
		err = into(snap)
	}
	return ck.gate || err != nil, err
}

// checkPins validates the header every checkpoint shares. Shape (deme
// count, population, shard streams, grid cells) is left to the model's
// Restore, which knows it.
func checkPins(run *Run, cp *Checkpoint) error {
	if cp.Model != run.Spec.Model {
		return fmt.Errorf("solver: checkpoint is for model %q, run is %q", cp.Model, run.Spec.Model)
	}
	if cp.Encoding != run.Encoding {
		return fmt.Errorf("solver: checkpoint encoding %q, run resolved %q", cp.Encoding, run.Encoding)
	}
	if len(cp.Demes) == 0 {
		return fmt.Errorf("solver: checkpoint has no demes")
	}
	if cp.Generation < 0 || cp.Evaluations < 0 || cp.Epoch < 0 {
		return fmt.Errorf("solver: checkpoint counters out of range")
	}
	return nil
}

// packDeme converts one deme's population and incumbent into the wire
// form.
func packDeme[G any](enc encoding[G], pop []core.Individual[G], best core.Individual[G]) DemeState {
	ds := DemeState{
		Pop:  make([]Genome, len(pop)),
		Objs: make([]float64, len(pop)),
	}
	for i, ind := range pop {
		ds.Pop[i] = enc.pack(ind.Genome)
		ds.Objs[i] = ind.Obj
	}
	bg := enc.pack(best.Genome)
	ds.Best = &bg
	ds.BestObjective = best.Obj
	return ds
}

// unpackDeme validates and rebuilds one deme's population and incumbent
// with strict per-genome validation: a corrupt genome must surface as a
// resume error the caller can downgrade to a cold start, never as a crash
// deep in a decode kernel.
func unpackDeme[G any](enc encoding[G], ds *DemeState) (pop []core.Individual[G], best core.Individual[G], err error) {
	if len(ds.Pop) == 0 || len(ds.Pop) != len(ds.Objs) {
		return nil, best, fmt.Errorf("population %d with %d objectives", len(ds.Pop), len(ds.Objs))
	}
	if ds.Best == nil {
		return nil, best, fmt.Errorf("no incumbent")
	}
	if ds.Generation < 0 || ds.Evaluations < 0 {
		return nil, best, fmt.Errorf("counters out of range")
	}
	pop = make([]core.Individual[G], len(ds.Pop))
	for i := range ds.Pop {
		g, uerr := enc.unpack(ds.Pop[i])
		if uerr != nil {
			return nil, best, fmt.Errorf("genome %d: %w", i, uerr)
		}
		if math.IsNaN(ds.Objs[i]) {
			return nil, best, fmt.Errorf("objective %d is NaN", i)
		}
		pop[i] = core.Individual[G]{Genome: g, Obj: ds.Objs[i]}
	}
	bg, uerr := enc.unpack(*ds.Best)
	if uerr != nil {
		return nil, best, fmt.Errorf("incumbent: %w", uerr)
	}
	if math.IsNaN(ds.BestObjective) {
		return nil, best, fmt.Errorf("incumbent objective is NaN")
	}
	return pop, core.Individual[G]{Genome: bg, Obj: ds.BestObjective}, nil
}

// packEngine converts one engine snapshot (the serial/ms engine or one
// island deme) into its wire deme.
func packEngine[G any](enc encoding[G], snap core.Snapshot[G]) DemeState {
	ds := packDeme(enc, snap.Pop, snap.Best)
	r := snap.RNG
	ds.RNG = &r
	ds.Shards = snap.Shards
	ds.Generation = snap.Generation
	ds.Evaluations = snap.Evaluations
	ds.Stagnation = snap.Stagnation
	return ds
}

// unpackEngine validates one wire deme and rebuilds its engine snapshot.
func unpackEngine[G any](enc encoding[G], ds *DemeState) (core.Snapshot[G], error) {
	if ds.RNG == nil {
		return core.Snapshot[G]{}, fmt.Errorf("no RNG stream")
	}
	pop, best, err := unpackDeme(enc, ds)
	if err != nil {
		return core.Snapshot[G]{}, err
	}
	return core.Snapshot[G]{
		Pop:         pop,
		Best:        best,
		HasBest:     true,
		Generation:  ds.Generation,
		Evaluations: ds.Evaluations,
		Stagnation:  ds.Stagnation,
		RNG:         *ds.RNG,
		Shards:      ds.Shards,
	}, nil
}

// packIslandCheckpoint converts an island-model snapshot into the wire
// form: one engine deme per island plus the model-level RNG stream and
// the epoch counter. Evaluations is the run total (deme sum plus
// merged-away islands), matching Result accounting.
func packIslandCheckpoint[G any](run *Run, enc encoding[G], snap island.Snapshot[G]) *Checkpoint {
	cp := &Checkpoint{
		Model:       run.Spec.Model,
		Encoding:    run.Encoding,
		Generation:  snap.Generation,
		Evaluations: snap.Removed,
		Epoch:       snap.Epoch,
		RNG:         snap.RNG,
		Demes:       make([]DemeState, len(snap.Demes)),
	}
	for d, es := range snap.Demes {
		cp.Demes[d] = packEngine(enc, es)
		cp.Evaluations += es.Evaluations
		if d == 0 || es.Best.Obj < cp.BestObjective {
			cp.BestObjective = es.Best.Obj
		}
	}
	return cp
}

// unpackIslandSnapshot validates a wire checkpoint against the resolved
// run and rebuilds the island-model snapshot.
func unpackIslandSnapshot[G any](run *Run, enc encoding[G], cp *Checkpoint) (island.Snapshot[G], error) {
	var snap island.Snapshot[G]
	if err := checkPins(run, cp); err != nil {
		return snap, err
	}
	var demeSum int64
	for d := range cp.Demes {
		es, err := unpackEngine(enc, &cp.Demes[d])
		if err != nil {
			return island.Snapshot[G]{}, fmt.Errorf("solver: checkpoint deme %d: %w", d, err)
		}
		snap.Demes = append(snap.Demes, es)
		demeSum += es.Evaluations
	}
	// Removed (evaluations of merged-away islands) is the total minus the
	// deme sum; a checkpoint claiming less than its demes spent is damaged.
	if cp.Evaluations < demeSum {
		return island.Snapshot[G]{}, fmt.Errorf("solver: checkpoint evaluations %d below deme sum %d", cp.Evaluations, demeSum)
	}
	snap.RNG = cp.RNG
	snap.Generation = cp.Generation
	snap.Epoch = cp.Epoch
	snap.Removed = cp.Evaluations - demeSum
	return snap, nil
}

// packEngineCheckpoint is the serial/ms layout: the run's one engine as
// the only deme of an island-shaped checkpoint.
func packEngineCheckpoint[G any](run *Run, enc encoding[G], snap core.Snapshot[G]) *Checkpoint {
	return packIslandCheckpoint(run, enc, island.Snapshot[G]{Demes: []core.Snapshot[G]{snap}, Generation: snap.Generation})
}

// unpackEngineCheckpoint rebuilds the serial/ms engine snapshot from its
// one deme.
func unpackEngineCheckpoint[G any](run *Run, enc encoding[G], cp *Checkpoint) (core.Snapshot[G], error) {
	snap, err := unpackIslandSnapshot(run, enc, cp)
	if err == nil && len(snap.Demes) != 1 {
		err = fmt.Errorf("solver: engine checkpoint has %d demes, want 1", len(snap.Demes))
	}
	if err != nil {
		return core.Snapshot[G]{}, err
	}
	return snap.Demes[0], nil
}

// packHybridCheckpoint converts a ring-of-torus snapshot into the wire
// form: one DemeState per grid, each carrying the grid's derivation seed
// (the cellular model's entire randomness). Generation reports the
// deepest grid's generation counter for recovery logs.
func packHybridCheckpoint[G any](run *Run, enc encoding[G], snap hybrid.Snapshot[G]) *Checkpoint {
	cp := &Checkpoint{
		Model:    run.Spec.Model,
		Encoding: run.Encoding,
		Epoch:    snap.Epoch,
		Demes:    make([]DemeState, len(snap.Demes)),
	}
	for d, gs := range snap.Demes {
		ds := packDeme(enc, gs.Cells, gs.Best)
		ds.Seed = gs.Seed
		ds.Generation = gs.Generation
		ds.Evaluations = gs.Evaluations
		cp.Demes[d] = ds
		cp.Evaluations += gs.Evaluations
		if gs.Generation > cp.Generation {
			cp.Generation = gs.Generation
		}
		if d == 0 || gs.Best.Obj < cp.BestObjective {
			cp.BestObjective = gs.Best.Obj
		}
	}
	return cp
}

// unpackHybridSnapshot validates a wire checkpoint against the resolved
// run and rebuilds the ring-of-torus snapshot.
func unpackHybridSnapshot[G any](run *Run, enc encoding[G], cp *Checkpoint) (hybrid.Snapshot[G], error) {
	var snap hybrid.Snapshot[G]
	if err := checkPins(run, cp); err != nil {
		return snap, err
	}
	for d := range cp.Demes {
		ds := &cp.Demes[d]
		cells, best, err := unpackDeme(enc, ds)
		if err != nil {
			return hybrid.Snapshot[G]{}, fmt.Errorf("solver: checkpoint deme %d: %w", d, err)
		}
		snap.Demes = append(snap.Demes, cellular.Snapshot[G]{
			Cells:       cells,
			Best:        best,
			Generation:  ds.Generation,
			Evaluations: ds.Evaluations,
			Seed:        ds.Seed,
		})
	}
	snap.Epoch = cp.Epoch
	return snap, nil
}

// Per-encoding genome validation. Each check mirrors the invariant the
// encoding's operators maintain, so anything they could have produced
// round-trips and anything else is rejected.

// validatePerm: a permutation of [0, n).
func validatePerm(g []int, n int) error {
	if len(g) != n {
		return fmt.Errorf("perm genome has %d entries, want %d", len(g), n)
	}
	seen := make([]bool, n)
	for _, v := range g {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("perm genome is not a permutation of [0,%d)", n)
		}
		seen[v] = true
	}
	return nil
}

// validateOpSeq: an operation sequence with repetition — job j appears
// exactly len(Jobs[j].Ops) times.
func validateOpSeq(g []int, in *shop.Instance) error {
	if len(g) != in.TotalOps() {
		return fmt.Errorf("seq genome has %d entries, want %d", len(g), in.TotalOps())
	}
	counts := make([]int, in.NumJobs())
	for _, v := range g {
		if v < 0 || v >= len(counts) {
			return fmt.Errorf("seq genome references job %d of %d", v, len(counts))
		}
		counts[v]++
	}
	for j, c := range counts {
		if c != len(in.Jobs[j].Ops) {
			return fmt.Errorf("seq genome has %d ops for job %d, want %d", c, j, len(in.Jobs[j].Ops))
		}
	}
	return nil
}

// validateKeys: one finite key per operation.
func validateKeys(g []float64, n int) error {
	if len(g) != n {
		return fmt.Errorf("keys genome has %d keys, want %d", len(g), n)
	}
	for i, k := range g {
		if math.IsNaN(k) || math.IsInf(k, 0) {
			return fmt.Errorf("keys genome key %d is not finite", i)
		}
	}
	return nil
}

// validateAssign: one eligible-machine index per flattened operation.
func validateAssign(a []int, in *shop.Instance) error {
	if len(a) != in.TotalOps() {
		return fmt.Errorf("assign chromosome has %d entries, want %d", len(a), in.TotalOps())
	}
	i := 0
	for _, j := range in.Jobs {
		for _, op := range j.Ops {
			if a[i] < 0 || a[i] >= len(op.Times) {
				return fmt.Errorf("assign chromosome op %d selects machine slot %d of %d", i, a[i], len(op.Times))
			}
			i++
		}
	}
	return nil
}

func cloneIntsWire(g []int) []int {
	if g == nil {
		return nil
	}
	return append([]int(nil), g...)
}

// seqPackers builds the pack/unpack pair of the []int family; perm selects
// the permutation invariant, everything else the with-repetition one.
func seqPackers(run *Run) (func([]int) Genome, func(Genome) ([]int, error)) {
	in, perm := run.Instance, run.Encoding == EncPerm
	pack := func(g []int) Genome { return Genome{Seq: cloneIntsWire(g)} }
	unpack := func(w Genome) ([]int, error) {
		if w.Keys != nil || w.Assign != nil {
			return nil, fmt.Errorf("genome carries fields of another encoding")
		}
		if perm {
			if err := validatePerm(w.Seq, in.NumJobs()); err != nil {
				return nil, err
			}
		} else if err := validateOpSeq(w.Seq, in); err != nil {
			return nil, err
		}
		return cloneIntsWire(w.Seq), nil
	}
	return pack, unpack
}

// keysPackers builds the pack/unpack pair of the random-keys family.
func keysPackers(run *Run) (func([]float64) Genome, func(Genome) ([]float64, error)) {
	n := run.Instance.TotalOps()
	pack := func(g []float64) Genome { return Genome{Keys: append([]float64(nil), g...)} }
	unpack := func(w Genome) ([]float64, error) {
		if w.Seq != nil || w.Assign != nil {
			return nil, fmt.Errorf("genome carries fields of another encoding")
		}
		if err := validateKeys(w.Keys, n); err != nil {
			return nil, err
		}
		return append([]float64(nil), w.Keys...), nil
	}
	return pack, unpack
}

// flexPackers builds the pack/unpack pair of the two-chromosome family.
func flexPackers(run *Run) (func(shopga.FlexGenome) Genome, func(Genome) (shopga.FlexGenome, error)) {
	in := run.Instance
	pack := func(g shopga.FlexGenome) Genome {
		return Genome{Assign: cloneIntsWire(g.Assign), Seq: cloneIntsWire(g.Seq)}
	}
	unpack := func(w Genome) (shopga.FlexGenome, error) {
		if w.Keys != nil {
			return shopga.FlexGenome{}, fmt.Errorf("genome carries fields of another encoding")
		}
		if err := validateAssign(w.Assign, in); err != nil {
			return shopga.FlexGenome{}, err
		}
		if err := validateOpSeq(w.Seq, in); err != nil {
			return shopga.FlexGenome{}, err
		}
		return shopga.FlexGenome{Assign: cloneIntsWire(w.Assign), Seq: cloneIntsWire(w.Seq)}, nil
	}
	return pack, unpack
}
