package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobstore"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/solver"
)

// logBuf collects Logf output for assertions on the recovery diagnostics.
type logBuf struct {
	mu    sync.Mutex
	lines []string
}

func (l *logBuf) Logf(format string, a ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, a...))
}

func (l *logBuf) contains(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ln := range l.lines {
		if strings.Contains(ln, sub) {
			return true
		}
	}
	return false
}

func (l *logBuf) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

// durableSpec is a small deterministic checkpointable job.
func durableSpec(gens int) solver.Spec {
	return solver.Spec{
		Problem: solver.ProblemSpec{Instance: "ft06"},
		Model:   "ms",
		Params:  solver.Params{Pop: 30, Workers: 2},
		Budget:  solver.Budget{Generations: gens},
		Seed:    11,
	}
}

// openStore opens a FileStore in a temp dir shared across "restarts".
func openStore(t *testing.T, dir string) *jobstore.FileStore {
	t.Helper()
	st, err := jobstore.Open(dir)
	if err != nil {
		t.Fatalf("jobstore.Open: %v", err)
	}
	return st
}

// TestServerDurableTerminalRestart: a finished job survives a daemon
// restart — served from disk with its result, its idempotency key still
// deduplicating, and the replay-ring capacity reported on job info.
func TestServerDurableTerminalRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := testCtx(t)

	srv1, c1 := newTestServer(t, serve.Config{Store: openStore(t, dir), EventHistory: 64})
	job, err := c1.SubmitIdempotent(ctx, durableSpec(8), "key-terminal")
	if err != nil {
		t.Fatal(err)
	}
	if job.ReplayRing != 64 {
		t.Errorf("replay ring %d, want the configured 64", job.ReplayRing)
	}
	final, err := c1.Await(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != solver.JobDone || final.Result == nil {
		t.Fatalf("final %+v", final)
	}
	// A replayed idempotent submit returns the same job, not a second run.
	again, err := c1.SubmitIdempotent(ctx, durableSpec(8), "key-terminal")
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != job.ID {
		t.Fatalf("idempotent resubmit created %s, want %s", again.ID, job.ID)
	}
	if err := srv1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// "Restart": a fresh server over the same store directory.
	_, c2 := newTestServer(t, serve.Config{Store: openStore(t, dir), EventHistory: 64})
	restored, err := c2.Job(ctx, job.ID)
	if err != nil {
		t.Fatalf("restored job: %v", err)
	}
	if restored.State != solver.JobDone || restored.Result == nil {
		t.Fatalf("restored %+v", restored)
	}
	if restored.Result.BestObjective != final.Result.BestObjective {
		t.Errorf("restored best %v, want %v", restored.Result.BestObjective, final.Result.BestObjective)
	}
	// The terminal event is replayable from the restored ring, so a client
	// that reconnects after the restart still observes closure.
	events, err := c2.Events(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	sawDone := false
	for ev := range events {
		if ev.Type == solver.EventDone {
			sawDone = true
		}
	}
	if !sawDone {
		t.Error("no done event replayed for the restored job")
	}
	// The key still maps across the restart.
	again2, err := c2.SubmitIdempotent(ctx, durableSpec(8), "key-terminal")
	if err != nil {
		t.Fatal(err)
	}
	if again2.ID != job.ID {
		t.Errorf("post-restart idempotent resubmit created %s, want %s", again2.ID, job.ID)
	}
}

// midCheckpoint runs the spec once with checkpointing and returns a middle
// snapshot plus the full run's result (the resume-equivalence reference).
func midCheckpoint(t *testing.T, spec solver.Spec, every int) (*solver.Checkpoint, *solver.Result) {
	t.Helper()
	var cps []*solver.Checkpoint
	res, err := solver.SolveWithCheckpoints(context.Background(), spec, solver.CheckpointOptions{
		Every: every,
		Save:  func(cp *solver.Checkpoint) { cps = append(cps, cp) },
	})
	if err != nil {
		t.Fatalf("SolveWithCheckpoints: %v", err)
	}
	if len(cps) < 2 {
		t.Fatalf("only %d checkpoints saved", len(cps))
	}
	return cps[len(cps)/2], res
}

// seedRunningJob writes the store state a crash leaves behind: a record in
// the running state plus (optionally) a checkpoint frame.
func seedRunningJob(t *testing.T, st *jobstore.FileStore, id string, spec solver.Spec, cp *solver.Checkpoint) {
	t.Helper()
	err := st.PutRecord(&jobstore.Record{
		ID: id, Spec: spec, State: solver.JobRunning, Submitted: time.Now().Add(-time.Minute),
	})
	if err != nil {
		t.Fatalf("PutRecord: %v", err)
	}
	if cp != nil {
		data, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AppendCheckpoint(id, data); err != nil {
			t.Fatalf("AppendCheckpoint: %v", err)
		}
	}
}

// TestServerRestartResumesWarm: a job interrupted mid-run resumes from its
// newest checkpoint and finishes with the exact result an uninterrupted
// run produces — the checkpoint carries every RNG stream, so the resumed
// trajectory is bit-identical.
func TestServerRestartResumesWarm(t *testing.T) {
	spec := durableSpec(40)
	cp, want := midCheckpoint(t, spec, 5)

	dir := t.TempDir()
	seedRunningJob(t, openStore(t, dir), "j000042", spec, cp)

	logs := &logBuf{}
	_, c := newTestServer(t, serve.Config{Store: openStore(t, dir), Logf: logs.Logf})
	ctx := testCtx(t)
	final, err := c.Await(ctx, "j000042")
	if err != nil {
		t.Fatal(err)
	}
	if final.State != solver.JobDone || final.Result == nil {
		t.Fatalf("final %+v", final)
	}
	if !logs.contains(fmt.Sprintf("resumed job j000042 from generation %d", cp.Generation)) {
		t.Errorf("no warm-resume log line in %q", logs.all())
	}
	got := final.Result
	if got.BestObjective != want.BestObjective || got.Generations != want.Generations || got.Evaluations != want.Evaluations {
		t.Errorf("resumed run (best %v, gens %d, evals %d) != uninterrupted run (best %v, gens %d, evals %d)",
			got.BestObjective, got.Generations, got.Evaluations,
			want.BestObjective, want.Generations, want.Evaluations)
	}
}

// TestServerRestartResumesIslandWarm: the epoch-model checkpoint seam
// through the daemon — an island job interrupted mid-run resumes warm
// from its per-deme checkpoint and finishes with the exact result of an
// uninterrupted run. The checkpoint carries every deme's population and
// RNG stream, so the resumed trajectory is bit-identical.
func TestServerRestartResumesIslandWarm(t *testing.T) {
	spec := solver.Spec{
		Problem: solver.ProblemSpec{Instance: "ft06"},
		Model:   "island",
		Params:  solver.Params{Pop: 32, Islands: 4, Interval: 2, Migrants: 1, Workers: 2},
		Budget:  solver.Budget{Generations: 40},
		Seed:    17,
	}
	cp, want := midCheckpoint(t, spec, 4)
	if len(cp.Demes) == 0 {
		t.Fatalf("island checkpoint carries no demes: %+v", cp)
	}

	dir := t.TempDir()
	seedRunningJob(t, openStore(t, dir), "j000043", spec, cp)

	logs := &logBuf{}
	_, c := newTestServer(t, serve.Config{Store: openStore(t, dir), Logf: logs.Logf})
	ctx := testCtx(t)
	final, err := c.Await(ctx, "j000043")
	if err != nil {
		t.Fatal(err)
	}
	if final.State != solver.JobDone || final.Result == nil {
		t.Fatalf("final %+v", final)
	}
	if !logs.contains(fmt.Sprintf("resumed job j000043 from generation %d", cp.Generation)) {
		t.Errorf("no warm-resume log line in %q", logs.all())
	}
	got := final.Result
	if got.BestObjective != want.BestObjective || got.Generations != want.Generations || got.Evaluations != want.Evaluations {
		t.Errorf("resumed island run (best %v, gens %d, evals %d) != uninterrupted run (best %v, gens %d, evals %d)",
			got.BestObjective, got.Generations, got.Evaluations,
			want.BestObjective, want.Generations, want.Evaluations)
	}
}

// TestServerRestartColdOnBadCheckpoint: a checkpoint that passes the
// store's checksum but fails semantic validation downgrades to a cold
// start — the job is not lost and the daemon does not crash.
func TestServerRestartColdOnBadCheckpoint(t *testing.T) {
	spec := durableSpec(12)
	cp, _ := midCheckpoint(t, spec, 4)
	d := &cp.Demes[0]
	d.Pop = d.Pop[:len(d.Pop)-1] // truncated population: checksum-clean damage
	d.Objs = d.Objs[:len(d.Objs)-1]

	dir := t.TempDir()
	seedRunningJob(t, openStore(t, dir), "j000007", spec, cp)

	logs := &logBuf{}
	_, c := newTestServer(t, serve.Config{Store: openStore(t, dir), Logf: logs.Logf})
	ctx := testCtx(t)
	final, err := c.Await(ctx, "j000007")
	if err != nil {
		t.Fatal(err)
	}
	if final.State != solver.JobDone || final.Result == nil {
		t.Fatalf("final %+v", final)
	}
	if !logs.contains("checkpoint invalid") || !logs.contains("restarted job j000007 cold") {
		t.Errorf("cold-start downgrade not logged: %q", logs.all())
	}
	// The cold restart is the plain deterministic run.
	want, err := solver.Solve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if final.Result.BestObjective != want.BestObjective {
		t.Errorf("cold restart best %v, want %v", final.Result.BestObjective, want.BestObjective)
	}
}

// TestServerRestartColdOnShardlessIslandCheckpoint: island checkpoints
// written before every deme engine ran the sharded pipeline carry no
// shard streams. Recovery must downgrade such a checkpoint to a logged
// cold start — the documented contract — rather than resubmit it warm and
// fail the job inside the engine's restore.
func TestServerRestartColdOnShardlessIslandCheckpoint(t *testing.T) {
	spec := solver.Spec{
		Problem: solver.ProblemSpec{Instance: "ft06"},
		Model:   "island",
		Params:  solver.Params{Pop: 32, Islands: 4, Interval: 2, Migrants: 1},
		Budget:  solver.Budget{Generations: 20},
		Seed:    19,
	}
	cp, _ := midCheckpoint(t, spec, 4)
	for d := range cp.Demes {
		cp.Demes[d].Shards = nil
	}

	dir := t.TempDir()
	seedRunningJob(t, openStore(t, dir), "j000044", spec, cp)

	logs := &logBuf{}
	_, c := newTestServer(t, serve.Config{Store: openStore(t, dir), Logf: logs.Logf})
	final, err := c.Await(testCtx(t), "j000044")
	if err != nil {
		t.Fatal(err)
	}
	if final.State != solver.JobDone || final.Result == nil {
		t.Fatalf("final %+v", final)
	}
	if !logs.contains("checkpoint invalid") || !logs.contains("restarted job j000044 cold") {
		t.Errorf("cold-start downgrade not logged: %q", logs.all())
	}
	want, err := solver.Solve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if final.Result.BestObjective != want.BestObjective || final.Result.Evaluations != want.Evaluations {
		t.Errorf("cold restart (best %v, evals %d), want the plain run's (best %v, evals %d)",
			final.Result.BestObjective, final.Result.Evaluations, want.BestObjective, want.Evaluations)
	}
}

// oldWireCheckpoint marshals an island checkpoint with its genomes in the
// retired int-array object form ({"seq":[...]}), as daemons wrote them
// before genomes became packed strings.
func oldWireCheckpoint(t *testing.T, cp *solver.Checkpoint) []byte {
	t.Helper()
	type oldGenome struct {
		Seq    []int     `json:"seq,omitempty"`
		Keys   []float64 `json:"keys,omitempty"`
		Assign []int     `json:"assign,omitempty"`
	}
	mustRaw := func(v any) json.RawMessage {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(mustRaw(cp), &top); err != nil {
		t.Fatal(err)
	}
	demes := make([]map[string]json.RawMessage, len(cp.Demes))
	for i, d := range cp.Demes {
		if err := json.Unmarshal(mustRaw(d), &demes[i]); err != nil {
			t.Fatal(err)
		}
		pop := make([]oldGenome, len(d.Pop))
		for j, g := range d.Pop {
			pop[j] = oldGenome(g)
		}
		demes[i]["pop"] = mustRaw(pop)
		demes[i]["best"] = mustRaw(oldGenome(*d.Best))
	}
	top["demes"] = mustRaw(demes)
	return mustRaw(top)
}

// flatCheckpoint marshals a one-deme serial/ms checkpoint in the retired
// flat layout, as daemons wrote them before every checkpoint carried its
// populations as demes: the engine's population, objectives, incumbent,
// streams and stagnation counter at the top level, and no demes.
func flatCheckpoint(t *testing.T, cp *solver.Checkpoint) []byte {
	t.Helper()
	mustRaw := func(v any) json.RawMessage {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	var top, deme map[string]json.RawMessage
	if err := json.Unmarshal(mustRaw(cp), &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mustRaw(cp.Demes[0]), &deme); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"pop", "objs", "best", "rng", "shards", "stagnation"} {
		if v, ok := deme[k]; ok {
			top[k] = v
		}
	}
	delete(top, "demes")
	return mustRaw(top)
}

// TestServerRestartColdOnOldWireCheckpoint: durable checkpoints in a
// retired wire form — an island checkpoint with the int-array genome form,
// an ms checkpoint in the flat layout — no longer resume. Recovery
// downgrades each to a logged cold start and the job completes as the
// plain run — an upgrade never fails a job.
func TestServerRestartColdOnOldWireCheckpoint(t *testing.T) {
	cases := []struct {
		name, id string
		spec     solver.Spec
		encode   func(*testing.T, *solver.Checkpoint) []byte
		marker   string // proves the bytes are in the retired form
		logged   string // the recovery step that refuses them
	}{
		{
			name: "island old genomes", id: "j000045",
			spec: solver.Spec{
				Problem: solver.ProblemSpec{Instance: "ft06"},
				Model:   "island",
				Params:  solver.Params{Pop: 32, Islands: 4, Interval: 2, Migrants: 1},
				Budget:  solver.Budget{Generations: 20},
				Seed:    23,
			},
			encode: oldWireCheckpoint, marker: `"pop":[{"seq":[`, logged: "checkpoint decode",
		},
		{
			name: "ms flat layout", id: "j000046",
			spec:   durableSpec(12),
			encode: flatCheckpoint, marker: `"pop":["`, logged: "checkpoint invalid",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp, _ := midCheckpoint(t, tc.spec, 4)
			data := tc.encode(t, cp)
			if !strings.Contains(string(data), tc.marker) {
				t.Fatalf("checkpoint not in the retired form: %.200s", data)
			}

			dir := t.TempDir()
			st := openStore(t, dir)
			seedRunningJob(t, st, tc.id, tc.spec, nil)
			if err := st.AppendCheckpoint(tc.id, data); err != nil {
				t.Fatalf("AppendCheckpoint: %v", err)
			}

			logs := &logBuf{}
			_, c := newTestServer(t, serve.Config{Store: openStore(t, dir), Logf: logs.Logf})
			final, err := c.Await(testCtx(t), tc.id)
			if err != nil {
				t.Fatal(err)
			}
			if final.State != solver.JobDone || final.Result == nil {
				t.Fatalf("final %+v", final)
			}
			if !logs.contains(tc.logged) || !logs.contains("restarted job "+tc.id+" cold") {
				t.Errorf("cold-start downgrade not logged: %q", logs.all())
			}
			want, err := solver.Solve(context.Background(), tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if final.Result.BestObjective != want.BestObjective || final.Result.Evaluations != want.Evaluations {
				t.Errorf("cold restart (best %v, evals %d), want the plain run's (best %v, evals %d)",
					final.Result.BestObjective, final.Result.Evaluations, want.BestObjective, want.Evaluations)
			}
		})
	}
}

// TestServerQuarantinesOldWireResultRecord pins the upgrade behaviour for
// finished federated shard jobs whose record carries result.best_genome in
// the retired int-array form: the record no longer parses, so recovery
// quarantines it (record.json.corrupt) and drops it with its idempotency
// key, while the daemon starts cleanly, serves its other jobs and runs new
// ones.
func TestServerQuarantinesOldWireResultRecord(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	sub := time.Now().Add(-time.Minute)
	shardSpec := solver.Spec{
		Problem: solver.ProblemSpec{Instance: "ft06"},
		Model:   "island",
		Params:  solver.Params{Pop: 32, Islands: 2, FedKey: "f0-upgrade-1", FedNodes: 2, FedRank: 1},
		Budget:  solver.Budget{Generations: 20},
		Seed:    9,
	}
	err := st.PutRecord(&jobstore.Record{
		ID: "j000051", Spec: shardSpec, State: solver.JobDone, IdempotencyKey: "key-shard",
		Submitted: sub, Started: sub, Finished: sub.Add(time.Second),
		Result: &solver.Result{BestObjective: 58, Evaluations: 640, Generations: 20},
	})
	if err != nil {
		t.Fatalf("PutRecord: %v", err)
	}
	// Rewrite the shard record's result with its best genome in the old
	// object form, as a daemon of the previous release persisted it.
	path := filepath.Join(dir, "j000051", "record.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	var result map[string]any
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(top["result"], &result); err != nil {
		t.Fatal(err)
	}
	result["best_genome"] = map[string]any{"seq": []int{0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5}}
	if top["result"], err = json.Marshal(result); err != nil {
		t.Fatal(err)
	}
	if raw, err = json.Marshal(top); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"best_genome":{"seq":[`) {
		t.Fatalf("record not in the old wire form: %s", raw)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// A plain finished job next to it, with no genome in its result.
	err = st.PutRecord(&jobstore.Record{
		ID: "j000052", Spec: durableSpec(8), State: solver.JobDone, IdempotencyKey: "key-plain",
		Submitted: sub, Started: sub, Finished: sub.Add(time.Second),
		Result: &solver.Result{BestObjective: 55, Evaluations: 270, Generations: 8},
	})
	if err != nil {
		t.Fatalf("PutRecord: %v", err)
	}

	_, c := newTestServer(t, serve.Config{Store: openStore(t, dir)})
	ctx := testCtx(t)
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "j000052" || jobs[0].State != solver.JobDone {
		t.Fatalf("restored jobs %+v, want only the plain j000052", jobs)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("old-form shard record not quarantined: %v", err)
	}
	if _, err := c.Job(ctx, "j000051"); err == nil {
		t.Error("quarantined shard job still served")
	}
	// The plain job's key still dedupes; the shard job's key is gone, so a
	// resubmission under it becomes a new job.
	again, err := c.SubmitIdempotent(ctx, durableSpec(8), "key-plain")
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != "j000052" {
		t.Errorf("key-plain resubmit got %s, want the restored j000052", again.ID)
	}
	fresh, err := c.SubmitIdempotent(ctx, durableSpec(8), "key-shard")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == "j000051" || fresh.ID == "j000052" {
		t.Fatalf("key-shard resubmit got %s, want a new job", fresh.ID)
	}
	final, err := c.Await(ctx, fresh.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != solver.JobDone || final.Result == nil {
		t.Fatalf("new job after recovery: %+v", final)
	}
}

// TestServerRestartColdWithoutCheckpoint: a running record with no
// checkpoint at all (crash before the first snapshot) restarts cold.
func TestServerRestartColdWithoutCheckpoint(t *testing.T) {
	spec := durableSpec(6)
	dir := t.TempDir()
	seedRunningJob(t, openStore(t, dir), "j000003", spec, nil)

	logs := &logBuf{}
	_, c := newTestServer(t, serve.Config{Store: openStore(t, dir), Logf: logs.Logf})
	final, err := c.Await(testCtx(t), "j000003")
	if err != nil {
		t.Fatal(err)
	}
	if final.State != solver.JobDone || final.Result == nil {
		t.Fatalf("final %+v", final)
	}
	if !logs.contains("restarted job j000003 cold") {
		t.Errorf("no cold-restart log line in %q", logs.all())
	}
}

// TestServerResumeDeadlineClamped: a resumed job gets only the wall budget
// it had left at the checkpoint — a crash-restart loop cannot extend the
// deadline. Here the checkpoint says the budget is already spent, so the
// resumed job must stop almost immediately instead of running its huge
// generation budget.
func TestServerResumeDeadlineClamped(t *testing.T) {
	base := durableSpec(30)
	cp, _ := midCheckpoint(t, base, 5)

	spec := base
	spec.Budget = solver.Budget{Generations: 1 << 20, WallMillis: 60_000}
	cp.ElapsedMS = 3_600_000 // checkpoint claims an hour already burned

	dir := t.TempDir()
	seedRunningJob(t, openStore(t, dir), "j000009", spec, cp)

	logs := &logBuf{}
	_, c := newTestServer(t, serve.Config{Store: openStore(t, dir), Logf: logs.Logf})
	ctx := testCtx(t)
	start := time.Now()
	final, err := c.Await(ctx, "j000009")
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("exhausted-budget resume still ran %s", elapsed)
	}
	if !final.State.Terminal() || final.Result == nil {
		t.Fatalf("final %+v", final)
	}
	if final.Result.Generations > cp.Generation+1000 {
		t.Errorf("resumed job ran %d generations on a spent wall budget", final.Result.Generations)
	}
	if !logs.contains("resumed job j000009") {
		t.Errorf("expected a warm resume: %q", logs.all())
	}
}

// TestServerResumeBudgetAcrossTwoRestarts: the wall budget is the job's,
// across every restart. A checkpoint's ElapsedMS already sums the earlier
// run segments, so the persisted spec must keep the submitted budget: a
// restart that persisted the remainder would have the next restart
// subtract the first segment a second time. Here the first crash came at
// 30 s of a 60 s budget; after a second crash about 30 s remain, while a
// double count would leave 1 ms and finish the job at once.
func TestServerResumeBudgetAcrossTwoRestarts(t *testing.T) {
	const id = "j000012"
	base := durableSpec(30)
	cp, _ := midCheckpoint(t, base, 5)
	spec := base
	spec.Budget = solver.Budget{Generations: 1 << 30, WallMillis: 60_000}
	cp.ElapsedMS = 30_000
	dir := t.TempDir()
	seedRunningJob(t, openStore(t, dir), id, spec, cp)
	ctx := testCtx(t)

	budgetOf := func(st jobstore.Store, c *client.Client) (rec, live int64) {
		t.Helper()
		r, err := st.GetRecord(id)
		if err != nil {
			t.Fatalf("GetRecord: %v", err)
		}
		info, err := c.Job(ctx, id)
		if err != nil {
			t.Fatalf("Job: %v", err)
		}
		return r.Spec.Budget.WallMillis, info.Spec.Budget.WallMillis
	}

	// Restart 1 resumes warm and checkpoints on; appends run one at a
	// time from the job's generation loop, so a second append means the
	// first is on disk.
	fs := jobstore.NewFaultStore(openStore(t, dir))
	logs := &logBuf{}
	srv1, c1 := newTestServer(t, serve.Config{Store: fs, CheckpointEvery: 5, Logf: logs.Logf})
	for deadline := time.Now().Add(30 * time.Second); fs.Calls(jobstore.OpAppend) < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("restart 1 wrote no checkpoint: %q", logs.all())
		}
	}
	if rec, live := budgetOf(fs, c1); rec != 60_000 || live != 60_000 {
		t.Errorf("after restart 1 the record reads wall_ms %d and the job %d, want the submitted 60000", rec, live)
	}
	// Crash: no further store write lands, so the store keeps the
	// running record and restart 1's newest checkpoint.
	fs.FailNext(jobstore.OpPut, 1<<20)
	fs.FailNext(jobstore.OpAppend, 1<<20)
	if _, err := c1.Cancel(ctx, id); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	data, err := fs.LoadCheckpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	var cp1 solver.Checkpoint
	if err := json.Unmarshal(data, &cp1); err != nil {
		t.Fatal(err)
	}
	if cp1.Generation <= cp.Generation || cp1.ElapsedMS < cp.ElapsedMS {
		t.Fatalf("restart 1 checkpoint at generation %d, elapsed %d ms; want past generation %d and the cumulative >= %d ms",
			cp1.Generation, cp1.ElapsedMS, cp.Generation, cp.ElapsedMS)
	}

	// Restart 2 resumes with about 30 s left, not 1 ms.
	st2 := openStore(t, dir)
	logs2 := &logBuf{}
	_, c2 := newTestServer(t, serve.Config{Store: st2, Logf: logs2.Logf})
	time.Sleep(300 * time.Millisecond)
	info, err := c2.Job(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !logs2.contains("resumed job " + id) {
		t.Fatalf("restart 2 did not resume warm: %q", logs2.all())
	}
	if info.State != solver.JobRunning {
		t.Errorf("restart 2: job %s after 300 ms with ~30 s of budget left (result %+v)", info.State, info.Result)
	}
	if rec, live := budgetOf(st2, c2); rec != 60_000 || live != 60_000 {
		t.Errorf("after restart 2 the record reads wall_ms %d and the job %d, want the submitted 60000", rec, live)
	}
	if _, err := c2.Cancel(ctx, id); err != nil {
		t.Fatal(err)
	}
}

// TestServerStoreFaultsDegradeDurabilityNotAvailability: injected store
// failures (record writes, checkpoint appends) are logged and absorbed —
// the job still runs to completion and is queryable.
func TestServerStoreFaultsDegradeDurabilityNotAvailability(t *testing.T) {
	fs := jobstore.NewFaultStore(openStore(t, t.TempDir()))
	logs := &logBuf{}
	srv, err := serve.New(serve.Config{Store: fs, CheckpointEvery: 2, Logf: logs.Logf})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	c := &client.Client{BaseURL: ts.URL}

	fs.FailNext(jobstore.OpPut, 1)
	fs.FailNext(jobstore.OpAppend, 2)
	ctx := testCtx(t)
	job, err := c.Submit(ctx, durableSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Await(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != solver.JobDone || final.Result == nil {
		t.Fatalf("final %+v", final)
	}
	if !logs.contains("record write") {
		t.Errorf("injected record failure not logged: %q", logs.all())
	}
	if !logs.contains("checkpoint append") {
		t.Errorf("injected append failure not logged: %q", logs.all())
	}
}

// TestServerPruneDeletesStore: retention pruning removes the persisted
// record and frees the idempotency key, so a restart cannot resurrect a
// job the server already forgot.
func TestServerPruneDeletesStore(t *testing.T) {
	st := openStore(t, t.TempDir())
	_, c := newTestServer(t, serve.Config{Store: st, MaxRetained: 1})
	ctx := testCtx(t)

	a, err := c.SubmitIdempotent(ctx, durableSpec(4), "key-pruned")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Await(ctx, a.ID); err != nil {
		t.Fatal(err)
	}
	// Submitting b prunes the now-terminal a past MaxRetained=1.
	b, err := c.Submit(ctx, durableSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Await(ctx, b.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Job(ctx, a.ID); err == nil {
		t.Errorf("pruned job %s still queryable", a.ID)
	}
	if _, err := st.GetRecord(a.ID); err == nil {
		t.Errorf("pruned job %s still in the store", a.ID)
	}
	// The key is free again: reusing it starts a new run.
	fresh, err := c.SubmitIdempotent(ctx, durableSpec(4), "key-pruned")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == a.ID {
		t.Errorf("pruned key resolved to the old job %s", a.ID)
	}
	if _, err := c.Await(ctx, fresh.ID); err != nil {
		t.Fatal(err)
	}
}

// TestServerEventsLastEventID: replaying the stream after a known sequence
// skips everything already seen but always delivers the terminal event.
func TestServerEventsLastEventID(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	ctx := testCtx(t)
	job, err := c.Submit(ctx, durableSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	events, err := c.Events(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	var all []solver.Event
	for ev := range events {
		all = append(all, ev)
	}
	if len(all) < 3 {
		t.Fatalf("only %d events", len(all))
	}
	done := all[len(all)-1]
	if done.Type != solver.EventDone {
		t.Fatalf("stream did not end with done: %v", done.Type)
	}
	// Resume after a middle event: everything at or below it is skipped.
	mid := all[len(all)/2].Seq
	replay, err := c.EventsFrom(ctx, job.ID, mid)
	if err != nil {
		t.Fatal(err)
	}
	for ev := range replay {
		if ev.Seq <= mid && ev.Type != solver.EventDone {
			t.Errorf("replayed event seq %d <= Last-Event-ID %d", ev.Seq, mid)
		}
	}
	// Resume after the terminal event itself: only done is re-delivered,
	// so a reconnecting client still observes closure.
	replay, err = c.EventsFrom(ctx, job.ID, done.Seq)
	if err != nil {
		t.Fatal(err)
	}
	var tail []solver.Event
	for ev := range replay {
		tail = append(tail, ev)
	}
	if len(tail) != 1 || tail[0].Type != solver.EventDone {
		t.Errorf("resume-at-end replay %v, want exactly the done event", tail)
	}
}
