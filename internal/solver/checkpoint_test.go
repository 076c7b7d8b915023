package solver

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
)

// collectCheckpoints runs a spec with the given cadence and returns the
// final result plus every checkpoint, in order.
func collectCheckpoints(t *testing.T, spec Spec, every int, resume *Checkpoint) (*Result, []*Checkpoint) {
	t.Helper()
	var cps []*Checkpoint
	res, err := SolveWithCheckpoints(context.Background(), spec, CheckpointOptions{
		Every:  every,
		Save:   func(cp *Checkpoint) { cps = append(cps, cp) },
		Resume: resume,
	})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return res, cps
}

// normalizeCp zeroes the fields legitimately differing between a cold run
// and its resumed replay (wall time; event numbering is service-level).
func normalizeCp(cp *Checkpoint) *Checkpoint {
	c := *cp
	c.ElapsedMS = 0
	c.EventSeq = 0
	return &c
}

// testCheckpointResumeBitIdentical: a run resumed from the gen-10 snapshot
// retraces the uninterrupted run exactly — same later checkpoints, same
// final result.
func testCheckpointResumeBitIdentical(t *testing.T, spec Spec) {
	t.Helper()
	cold, coldCps := collectCheckpoints(t, spec, 10, nil)
	if len(coldCps) < 2 {
		t.Fatalf("expected >= 2 checkpoints, got %d", len(coldCps))
	}
	if coldCps[0].Generation != 10 {
		t.Fatalf("first checkpoint at gen %d, want 10", coldCps[0].Generation)
	}
	// What the run saved passes the recovery gate.
	if err := ValidateCheckpoint(spec, coldCps[0]); err != nil {
		t.Fatalf("gate refused the run's own checkpoint: %v", err)
	}

	warm, warmCps := collectCheckpoints(t, spec, 10, coldCps[0])
	if warm.BestObjective != cold.BestObjective ||
		warm.Generations != cold.Generations ||
		warm.Evaluations != cold.Evaluations {
		t.Fatalf("resumed result diverged: got (%v, %d gens, %d evals), want (%v, %d, %d)",
			warm.BestObjective, warm.Generations, warm.Evaluations,
			cold.BestObjective, cold.Generations, cold.Evaluations)
	}
	if warm.Schedule == nil || warm.Schedule.Validate() != nil {
		t.Fatal("resumed run produced no valid schedule")
	}
	// The resumed run re-emits the checkpoints after gen 10; each must be
	// bit-identical to the cold run's (modulo wall time).
	if len(warmCps) != len(coldCps)-1 {
		t.Fatalf("resumed run saved %d checkpoints, want %d", len(warmCps), len(coldCps)-1)
	}
	for i, w := range warmCps {
		c := coldCps[i+1]
		if !reflect.DeepEqual(normalizeCp(w), normalizeCp(c)) {
			t.Fatalf("checkpoint at gen %d differs between cold and resumed run", c.Generation)
		}
	}
	// Checkpoints survive a JSON round trip losslessly (the store holds
	// exactly these bytes).
	data, err := json.Marshal(coldCps[0])
	if err != nil {
		t.Fatal(err)
	}
	var rt Checkpoint
	if err := json.Unmarshal(data, &rt); err != nil {
		t.Fatal(err)
	}
	res2, _ := collectCheckpoints(t, spec, 10, &rt)
	if res2.BestObjective != cold.BestObjective || res2.Evaluations != cold.Evaluations {
		t.Fatal("resume from JSON-round-tripped checkpoint diverged")
	}
}

func ckSpec(model, enc string, problem ProblemSpec) Spec {
	return Spec{
		Problem:  problem,
		Model:    model,
		Encoding: enc,
		Params:   Params{Pop: 20},
		Budget:   Budget{Generations: 30},
		Seed:     7,
	}
}

func TestCheckpointResumeSerialPerm(t *testing.T) {
	testCheckpointResumeBitIdentical(t, ckSpec("serial", EncPerm, ProblemSpec{Kind: "flow", Jobs: 6, Machines: 4}))
}

func TestCheckpointResumeSerialKeys(t *testing.T) {
	testCheckpointResumeBitIdentical(t, ckSpec("serial", EncKeys, ProblemSpec{Instance: "ft06"}))
}

func TestCheckpointResumeMasterSlaveSeq(t *testing.T) {
	testCheckpointResumeBitIdentical(t, ckSpec("ms", EncSeq, ProblemSpec{Instance: "ft06"}))
}

func TestCheckpointResumeMasterSlaveFlex(t *testing.T) {
	testCheckpointResumeBitIdentical(t, ckSpec("ms", EncFlex, ProblemSpec{Kind: "fjs", Jobs: 5, Machines: 4}))
}

// TestCheckpointResumeMasterSlaveOddPop: the engine rounds an odd
// population up to even, so a pop-21 ms job checkpoints 22 individuals.
// The gate accepts that checkpoint and refuses a 21-individual copy,
// which the engine could not restore.
func TestCheckpointResumeMasterSlaveOddPop(t *testing.T) {
	spec := ckSpec("ms", EncSeq, ProblemSpec{Instance: "ft06"})
	spec.Params.Pop = 21
	testCheckpointResumeBitIdentical(t, spec)

	_, cps := collectCheckpoints(t, spec, 10, nil)
	cp := *cps[0]
	d := &cp.Demes[0]
	if len(d.Pop) != 22 {
		t.Fatalf("pop-21 checkpoint carries %d individuals, want 22", len(d.Pop))
	}
	d.Pop, d.Objs = d.Pop[:21], d.Objs[:21]
	if err := ValidateCheckpoint(spec, &cp); err == nil {
		t.Fatal("gate accepted a 21-individual checkpoint the engine cannot restore")
	}
}

// A resumed ms run may use a different worker count: the shard substreams
// in the checkpoint depend only on the population.
func TestCheckpointResumeAcrossWorkerCounts(t *testing.T) {
	spec := ckSpec("ms", EncSeq, ProblemSpec{Instance: "ft06"})
	spec.Params.Workers = 1
	cold, cps := collectCheckpoints(t, spec, 10, nil)

	spec.Params.Workers = 4
	warm, _ := collectCheckpoints(t, spec, 10, cps[0])
	if warm.BestObjective != cold.BestObjective || warm.Evaluations != cold.Evaluations {
		t.Fatal("worker-count change broke checkpoint resume")
	}
}

// The epoch models checkpoint per-deme state at epoch boundaries; a
// resumed run retraces the uninterrupted one bit-for-bit, per encoding.
func TestCheckpointResumeIslandSeq(t *testing.T) {
	testCheckpointResumeBitIdentical(t, ckSpec("island", EncSeq, ProblemSpec{Instance: "ft06"}))
}

func TestCheckpointResumeIslandKeys(t *testing.T) {
	testCheckpointResumeBitIdentical(t, ckSpec("island", EncKeys, ProblemSpec{Instance: "ft06"}))
}

func TestCheckpointResumeIslandFlex(t *testing.T) {
	testCheckpointResumeBitIdentical(t, ckSpec("island", EncFlex, ProblemSpec{Kind: "fjs", Jobs: 5, Machines: 4}))
}

func TestCheckpointResumeIslandPerm(t *testing.T) {
	testCheckpointResumeBitIdentical(t, ckSpec("island", EncPerm, ProblemSpec{Kind: "flow", Jobs: 6, Machines: 4}))
}

func TestCheckpointResumeHybridSeq(t *testing.T) {
	testCheckpointResumeBitIdentical(t, ckSpec("hybrid", EncSeq, ProblemSpec{Instance: "ft06"}))
}

func TestCheckpointResumeHybridKeys(t *testing.T) {
	testCheckpointResumeBitIdentical(t, ckSpec("hybrid", EncKeys, ProblemSpec{Instance: "ft06"}))
}

// Island epochs are stepped concurrently when Workers is set; the deme
// states in a checkpoint are independent of the stepping parallelism, so
// resume is bit-identical across worker counts.
func TestCheckpointResumeIslandAcrossWorkerCounts(t *testing.T) {
	spec := ckSpec("island", EncSeq, ProblemSpec{Instance: "ft06"})
	spec.Params.Workers = 1
	cold, cps := collectCheckpoints(t, spec, 10, nil)
	if len(cps) == 0 {
		t.Fatal("no island checkpoints")
	}
	spec.Params.Workers = 4
	warm, _ := collectCheckpoints(t, spec, 10, cps[0])
	if warm.BestObjective != cold.BestObjective || warm.Evaluations != cold.Evaluations {
		t.Fatal("worker-count change broke island checkpoint resume")
	}

	hspec := ckSpec("hybrid", EncSeq, ProblemSpec{Instance: "ft06"})
	hspec.Params.Workers = 1
	hcold, hcps := collectCheckpoints(t, hspec, 10, nil)
	if len(hcps) == 0 {
		t.Fatal("no hybrid checkpoints")
	}
	hspec.Params.Workers = 3
	hwarm, _ := collectCheckpoints(t, hspec, 10, hcps[0])
	if hwarm.BestObjective != hcold.BestObjective || hwarm.Evaluations != hcold.Evaluations {
		t.Fatal("worker-count change broke hybrid checkpoint resume")
	}
}

// Damaged per-deme state is a resume error through the same per-encoding
// validators as serial/ms checkpoints — never a crash.
func TestCheckpointIslandValidation(t *testing.T) {
	spec := ckSpec("island", EncSeq, ProblemSpec{Instance: "ft06"})
	_, cps := collectCheckpoints(t, spec, 10, nil)
	base := cps[0]
	if len(base.Demes) == 0 {
		t.Fatalf("island checkpoint shape: %d demes", len(base.Demes))
	}

	corrupt := func(name string, mutate func(*Checkpoint)) {
		t.Helper()
		data, _ := json.Marshal(base)
		var cp Checkpoint
		if err := json.Unmarshal(data, &cp); err != nil {
			t.Fatal(err)
		}
		mutate(&cp)
		if _, err := SolveWithCheckpoints(context.Background(), spec, CheckpointOptions{Resume: &cp}); err == nil {
			t.Errorf("%s: corrupt island checkpoint accepted", name)
		}
	}
	corrupt("deme dropped", func(cp *Checkpoint) { cp.Demes = cp.Demes[:len(cp.Demes)-1] })
	corrupt("deme pop truncated", func(cp *Checkpoint) {
		cp.Demes[0].Pop = cp.Demes[0].Pop[:len(cp.Demes[0].Pop)-1]
		cp.Demes[0].Objs = cp.Demes[0].Objs[:len(cp.Demes[0].Objs)-1]
	})
	corrupt("deme objs mismatched", func(cp *Checkpoint) { cp.Demes[0].Objs = cp.Demes[0].Objs[:1] })
	corrupt("deme incumbent missing", func(cp *Checkpoint) { cp.Demes[0].Best = nil })
	corrupt("deme RNG missing", func(cp *Checkpoint) { cp.Demes[0].RNG = nil })
	corrupt("deme shard streams missing", func(cp *Checkpoint) { cp.Demes[1].Shards = nil })
	corrupt("deme shard streams truncated", func(cp *Checkpoint) { cp.Demes[0].Shards = cp.Demes[0].Shards[:1] })
	corrupt("deme gene out of range", func(cp *Checkpoint) { cp.Demes[0].Pop[0].Seq[0] = 99 })
	corrupt("deme NaN objective", func(cp *Checkpoint) { cp.Demes[0].Objs[0] = math.NaN() })
	corrupt("negative epoch", func(cp *Checkpoint) { cp.Epoch = -1 })
	corrupt("evals below deme sum", func(cp *Checkpoint) { cp.Evaluations = 1 })
	corrupt("wrong model pin", func(cp *Checkpoint) { cp.Model = "hybrid" })
}

// TestValidateCheckpointShardStreams: the shard-stream count is part of
// a checkpoint's shape. An ms checkpoint with its streams cut down, or a
// checkpoint without any (written before every engine ran the sharded
// pipeline), fails ValidateCheckpoint — the gate the daemon downgrades to
// a cold start — instead of failing the resumed run inside the engine.
func TestValidateCheckpointShardStreams(t *testing.T) {
	spec := ckSpec("ms", EncSeq, ProblemSpec{Instance: "ft06"})
	spec.Params.Pop = 32
	_, cps := collectCheckpoints(t, spec, 10, nil)
	base := cps[0]
	if len(base.Demes[0].Shards) != 8 {
		t.Fatalf("pop-32 checkpoint carries %d shard streams, want 8", len(base.Demes[0].Shards))
	}
	if err := ValidateCheckpoint(spec, base); err != nil {
		t.Fatalf("intact checkpoint rejected: %v", err)
	}
	for _, keep := range []int{0, 1, 7} {
		cp := *base
		cp.Demes = []DemeState{base.Demes[0]}
		cp.Demes[0].Shards = base.Demes[0].Shards[:keep]
		if err := ValidateCheckpoint(spec, &cp); err == nil {
			t.Errorf("checkpoint with %d of 8 shard streams passed validation", keep)
		}
	}
	cp := *base
	cp.Demes = []DemeState{base.Demes[0]}
	cp.Demes[0].Shards = append(append([]rng.State(nil), base.Demes[0].Shards...), base.Demes[0].Shards[0])
	if err := ValidateCheckpoint(spec, &cp); err == nil {
		t.Error("checkpoint with 9 of 8 shard streams passed validation")
	}
}

func TestCheckpointResumeRejectsUnsupportedModel(t *testing.T) {
	spec := ckSpec("serial", EncSeq, ProblemSpec{Instance: "ft06"})
	_, cps := collectCheckpoints(t, spec, 10, nil)
	cell := spec
	cell.Model = "cellular"
	if _, err := SolveWithCheckpoints(context.Background(), cell, CheckpointOptions{Resume: cps[0]}); err == nil {
		t.Fatal("cellular accepted a resume checkpoint")
	}
	// Saving on an unsupported model is silently skipped, not an error.
	var saved int
	if _, err := SolveWithCheckpoints(context.Background(), cell, CheckpointOptions{
		Every: 5, Save: func(*Checkpoint) { saved++ },
	}); err != nil {
		t.Fatalf("cellular with save-only options: %v", err)
	}
	if saved != 0 {
		t.Fatalf("cellular saved %d checkpoints", saved)
	}
	// A serial checkpoint must not resume an epoch model: the model pin
	// mismatches, and it holds one deme, not one per island.
	island := spec
	island.Model = "island"
	if _, err := SolveWithCheckpoints(context.Background(), island, CheckpointOptions{Resume: cps[0]}); err == nil {
		t.Fatal("island accepted a serial-shaped checkpoint")
	}
}

// Corrupt-but-checksum-valid checkpoints are rejected by semantic
// validation with an error (which the daemon downgrades to a cold start),
// never a panic.
func TestCheckpointResumeValidation(t *testing.T) {
	spec := ckSpec("serial", EncSeq, ProblemSpec{Instance: "ft06"})
	_, cps := collectCheckpoints(t, spec, 10, nil)
	base := cps[0]

	corrupt := func(name string, mutate func(*Checkpoint)) {
		data, _ := json.Marshal(base)
		var cp Checkpoint
		if err := json.Unmarshal(data, &cp); err != nil {
			t.Fatal(err)
		}
		mutate(&cp)
		if _, err := SolveWithCheckpoints(context.Background(), spec, CheckpointOptions{Resume: &cp}); err == nil {
			t.Errorf("%s: corrupt checkpoint accepted", name)
		}
	}
	corrupt("wrong model", func(cp *Checkpoint) { cp.Model = "ms" })
	corrupt("wrong encoding", func(cp *Checkpoint) { cp.Encoding = EncKeys })
	corrupt("no incumbent", func(cp *Checkpoint) { cp.Demes[0].Best = nil })
	corrupt("objs truncated", func(cp *Checkpoint) { cp.Demes[0].Objs = cp.Demes[0].Objs[:len(cp.Demes[0].Objs)-1] })
	corrupt("NaN objective", func(cp *Checkpoint) { cp.Demes[0].Objs[0] = math.NaN() })
	corrupt("negative counters", func(cp *Checkpoint) { cp.Evaluations = -1 })
	corrupt("out-of-range gene", func(cp *Checkpoint) { cp.Demes[0].Pop[0].Seq[0] = 99 })
	corrupt("foreign field", func(cp *Checkpoint) { cp.Demes[0].Pop[0].Keys = []float64{0.5} })
	corrupt("truncated genome", func(cp *Checkpoint) { cp.Demes[0].Pop[0].Seq = cp.Demes[0].Pop[0].Seq[:3] })

	// Population size mismatch vs spec.Params.Pop surfaces via the
	// engine's Restore shape check.
	small := spec
	small.Params.Pop = 10
	if _, err := SolveWithCheckpoints(context.Background(), small, CheckpointOptions{Resume: base}); err == nil {
		t.Error("population size mismatch accepted")
	}

	// Perm validation: duplicate entry.
	pspec := ckSpec("serial", EncPerm, ProblemSpec{Kind: "flow", Jobs: 6, Machines: 4})
	_, pcps := collectCheckpoints(t, pspec, 10, nil)
	data, _ := json.Marshal(pcps[0])
	var pcp Checkpoint
	if err := json.Unmarshal(data, &pcp); err != nil {
		t.Fatal(err)
	}
	pcp.Demes[0].Pop[0].Seq[0] = pcp.Demes[0].Pop[0].Seq[1]
	if _, err := SolveWithCheckpoints(context.Background(), pspec, CheckpointOptions{Resume: &pcp}); err == nil ||
		!strings.Contains(err.Error(), "permutation") {
		t.Errorf("duplicate perm entry: %v", err)
	}
}

// The service wires checkpointing per job: snapshots carry the job's event
// sequence, epoch models checkpoint on their epoch cadence, and a resumed
// job under a new service finishes with the original's exact result while
// continuing its event numbering.
func TestServiceCheckpointsAndResumes(t *testing.T) {
	var mu sync.Mutex
	byJob := map[string][]*Checkpoint{}
	svc := &Service{
		CheckpointEvery: 10,
		OnCheckpoint: func(id string, cp *Checkpoint) {
			mu.Lock()
			byJob[id] = append(byJob[id], cp)
			mu.Unlock()
		},
	}
	defer svc.Close()
	spec := ckSpec("ms", EncSeq, ProblemSpec{Instance: "ft06"})
	j, err := svc.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := j.Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	island := spec
	island.Model = "island"
	ij, err := svc.Submit(context.Background(), island)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ij.Await(context.Background()); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	cps := byJob[j.ID()]
	islandCps := byJob[ij.ID()]
	mu.Unlock()
	if len(cps) == 0 {
		t.Fatal("no checkpoints recorded for ms job")
	}
	if len(islandCps) == 0 {
		t.Fatal("no checkpoints recorded for island job")
	}
	for _, cp := range islandCps {
		if len(cp.Demes) == 0 || cp.EventSeq <= 0 {
			t.Fatalf("island checkpoint missing deme states or event seq: %d demes, seq %d", len(cp.Demes), cp.EventSeq)
		}
	}
	for _, cp := range cps {
		if cp.EventSeq <= 0 {
			t.Fatal("checkpoint missing event sequence stamp")
		}
	}

	// Restart story: a fresh service resumes the job under its old ID.
	svc2 := &Service{}
	defer svc2.Close()
	j2, err := svc2.SubmitOpts(context.Background(), spec, SubmitOptions{
		ID:        j.ID(),
		Resume:    cps[0],
		Submitted: time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := j2.Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if warm.BestObjective != cold.BestObjective || warm.Evaluations != cold.Evaluations {
		t.Fatal("service-level resume diverged from original run")
	}
	if j2.ID() != j.ID() {
		t.Fatalf("resumed job ID %q, want %q", j2.ID(), j.ID())
	}
	if got := j2.Status().Submitted; !got.Equal(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)) {
		t.Fatalf("submission time not backdated: %v", got)
	}
	// Event numbering continued past the checkpoint's sequence.
	for ev := range j2.Events() {
		if ev.Seq <= cps[0].EventSeq {
			t.Fatalf("resumed job emitted seq %d <= checkpoint seq %d", ev.Seq, cps[0].EventSeq)
		}
	}
	// A generated ID must skip the explicitly taken one.
	j3, err := svc2.Submit(context.Background(), ckSpec("serial", EncSeq, ProblemSpec{Instance: "ft06"}))
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID() == j.ID() {
		t.Fatal("generated ID collided with restored ID")
	}
}

func TestSubmitOptsRejectsResumeForUnsupportedModel(t *testing.T) {
	svc := &Service{}
	defer svc.Close()
	spec := ckSpec("cellular", EncSeq, ProblemSpec{Instance: "ft06"})
	if _, err := svc.SubmitOpts(context.Background(), spec, SubmitOptions{Resume: &Checkpoint{}}); err == nil {
		t.Fatal("cellular resume accepted")
	}
	// The island model passes the submit gate now — a damaged checkpoint
	// fails the job at resume validation, it does not crash the service.
	island := ckSpec("island", EncSeq, ProblemSpec{Instance: "ft06"})
	j, err := svc.SubmitOpts(context.Background(), island, SubmitOptions{Resume: &Checkpoint{}})
	if err != nil {
		t.Fatalf("island resume submit: %v", err)
	}
	if _, err := j.Await(context.Background()); err == nil {
		t.Fatal("empty island checkpoint resumed without error")
	}
}

func TestRestoreTerminal(t *testing.T) {
	svc := &Service{}
	defer svc.Close()
	spec := ckSpec("serial", EncSeq, ProblemSpec{Instance: "ft06"})
	res := &Result{Model: "serial", Instance: "ft06", BestObjective: 58, Generations: 30, Evaluations: 620}
	sub := time.Date(2026, 8, 6, 10, 0, 0, 0, time.UTC)
	j, err := svc.RestoreTerminal("j000007", spec, JobDone, res, "", sub, sub, sub.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RestoreTerminal("j000007", spec, JobDone, res, "", sub, sub, sub); err == nil {
		t.Fatal("duplicate restore accepted")
	}
	if _, err := svc.RestoreTerminal("j000008", spec, JobRunning, nil, "", sub, sub, sub); err == nil {
		t.Fatal("non-terminal restore accepted")
	}

	got, ok := svc.Get("j000007")
	if !ok || got != j {
		t.Fatal("restored job not retrievable")
	}
	st := j.Status()
	if st.State != JobDone || st.BestObjective != 58 || st.Generation != 30 {
		t.Fatalf("restored status: %+v", st)
	}
	// Await returns immediately; the replay ring serves the done event.
	r, err := j.Await(context.Background())
	if err != nil || r != res {
		t.Fatalf("await on restored job: %v, %v", r, err)
	}
	var evs []Event
	for ev := range j.Events() {
		evs = append(evs, ev)
	}
	if len(evs) != 1 || evs[0].Type != EventDone || evs[0].Result != res {
		t.Fatalf("restored replay ring: %+v", evs)
	}
	// A failed restore carries its error.
	fj, err := svc.RestoreTerminal("j000009", spec, JobFailed, nil, "model exploded", sub, sub, sub)
	if err != nil {
		t.Fatal(err)
	}
	if _, jerr := fj.Result(); jerr == nil || jerr.Error() != "model exploded" {
		t.Fatalf("restored failure error: %v", jerr)
	}
	// Terminal restores are removable like any finished job.
	if !svc.Remove("j000007") {
		t.Fatal("restored job not removable")
	}
}

// FuzzCheckpoint feeds damaged checkpoint bytes down the path a restart,
// a failover or /v1/federation/resubmit takes: JSON decode,
// ValidateCheckpoint, then the resume itself. Damaged input must come
// back as an error, never a panic, and whatever the gate accepts must
// resume. The fuzz input picks the spec: one island shard of a two-node
// run, an ms run with an odd population, or a hybrid run; the seeds are
// real checkpoints of each, under every spec.
func FuzzCheckpoint(f *testing.F) {
	specs := []Spec{
		{
			Problem: ProblemSpec{Instance: "ft06"},
			Model:   "island",
			Seed:    7,
			Params: Params{
				Islands: 2, Pop: 20, Interval: 2, Migrants: 1,
				FedKey: "f0-fuzz-1", FedRank: 1, FedNodes: 2,
			},
			Budget: Budget{Generations: 12},
		},
		{
			Problem: ProblemSpec{Instance: "ft06"},
			Model:   "ms",
			Seed:    7,
			Params:  Params{Pop: 21, Workers: 2},
			Budget:  Budget{Generations: 12},
		},
		{
			Problem: ProblemSpec{Instance: "ft06"},
			Model:   "hybrid",
			Seed:    7,
			Params:  Params{Islands: 2, Width: 3, Height: 3, Interval: 2},
			Budget:  Budget{Generations: 12},
		},
	}
	for _, spec := range specs {
		var cps []*Checkpoint
		if _, err := SolveWithCheckpoints(context.Background(), spec, CheckpointOptions{
			Every: 4,
			Save:  func(cp *Checkpoint) { cps = append(cps, cp) },
		}); err != nil {
			f.Fatal(err)
		}
		if len(cps) == 0 {
			f.Fatalf("%s saved no checkpoint", spec.Model)
		}
		for _, cp := range cps {
			data, err := json.Marshal(cp)
			if err != nil {
				f.Fatal(err)
			}
			for i := range specs {
				f.Add(uint8(i), data)
				f.Add(uint8(i), data[:len(data)/2])
			}
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		spec := specs[int(which)%len(specs)]
		var cp Checkpoint
		if json.Unmarshal(data, &cp) != nil {
			return
		}
		if ValidateCheckpoint(spec, &cp) != nil {
			return
		}
		if _, err := SolveWithCheckpoints(context.Background(), spec, CheckpointOptions{Resume: &cp}); err != nil {
			t.Fatalf("checkpoint passed ValidateCheckpoint but did not resume: %v", err)
		}
	})
}

// TestResumeGrantsRemainingWallBudget: a resumed run's wall budget is
// what the checkpoint's cumulative ElapsedMS left of the spec's, at least
// 1 ms; a spec without a wall budget gets none, and the spec itself is
// left as submitted.
func TestResumeGrantsRemainingWallBudget(t *testing.T) {
	spec := smallSpec("ms")
	spec.Budget = Budget{Generations: 10, WallMillis: 60_000}
	for _, c := range []struct{ elapsed, want int64 }{{0, 60_000}, {10_000, 50_000}, {60_000, 1}, {90_000, 1}} {
		run, _, err := newRun(spec, &ckptSeam{resume: &Checkpoint{ElapsedMS: c.elapsed}})
		if err != nil {
			t.Fatal(err)
		}
		if got := run.Spec.Budget.WallMillis; got != c.want {
			t.Errorf("elapsed %d ms: granted %d ms, want %d", c.elapsed, got, c.want)
		}
	}
	if spec.Budget.WallMillis != 60_000 {
		t.Errorf("resume rewrote the caller's spec: wall_ms %d", spec.Budget.WallMillis)
	}
	spec.Budget.WallMillis = 0
	run, _, err := newRun(spec, &ckptSeam{resume: &Checkpoint{ElapsedMS: 10_000}})
	if err != nil {
		t.Fatal(err)
	}
	if got := run.Spec.Budget.WallMillis; got != 0 {
		t.Errorf("no wall budget: resume granted %d ms", got)
	}
}
