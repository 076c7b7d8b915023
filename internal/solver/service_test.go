package solver

import (
	"context"
	"testing"
	"time"
)

// awaitTimeout bounds every blocking wait in these tests.
const awaitTimeout = 60 * time.Second

// submitOne submits and fails the test on error.
func submitOne(t *testing.T, svc *Service, spec Spec) *Job {
	t.Helper()
	job, err := svc.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return job
}

// waitRunning polls until the job left the pending state.
func waitRunning(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.Now().Add(awaitTimeout)
	for j.Status().State == JobPending && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := j.Status().State; st != JobRunning {
		t.Fatalf("job state %s, want running", st)
	}
}

// TestServiceSubmitAwait: the basic job lifecycle — submit, await, status
// transitions, result parity with the blocking Solve.
func TestServiceSubmitAwait(t *testing.T) {
	svc := NewService(2)
	spec := smallSpec("serial")
	job := submitOne(t, svc, spec)
	if job.ID() == "" {
		t.Error("job has no ID")
	}
	if got := job.Spec().Model; got != "serial" {
		t.Errorf("job spec model %q", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), awaitTimeout)
	defer cancel()
	res, err := job.Await(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st := job.Status()
	if st.State != JobDone {
		t.Errorf("state %s, want done", st.State)
	}
	if st.BestObjective != res.BestObjective || st.Generation != res.Generations {
		t.Errorf("status (%v, %d) does not mirror result (%v, %d)",
			st.BestObjective, st.Generation, res.BestObjective, res.Generations)
	}
	if st.Submitted.IsZero() || st.Started.IsZero() || st.Finished.IsZero() {
		t.Error("lifecycle timestamps missing")
	}
	// Same spec through the blocking API: identical outcome (the service
	// adds observation, not nondeterminism).
	direct, err := Solve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if direct.BestObjective != res.BestObjective || direct.Evaluations != res.Evaluations {
		t.Errorf("service run (%v, %d) != direct run (%v, %d)",
			res.BestObjective, res.Evaluations, direct.BestObjective, direct.Evaluations)
	}
	// Await after completion returns immediately with the same outcome.
	again, err := job.Await(context.Background())
	if err != nil || again != res {
		t.Errorf("second await: %v %v", again, err)
	}
}

// TestServiceEvents: the stream is started, then monotone progress with
// at least one improvement, then exactly one terminal done carrying the
// result; a late subscriber still gets the replayed terminal state.
func TestServiceEvents(t *testing.T) {
	svc := NewService(1)
	spec := smallSpec("serial")
	spec.Budget = Budget{Generations: 30}
	job := submitOne(t, svc, spec)
	var events []Event
	for ev := range job.Events() {
		events = append(events, ev)
	}
	if len(events) < 3 {
		t.Fatalf("only %d events", len(events))
	}
	if events[0].Type != EventStarted {
		t.Errorf("first event %s, want started", events[0].Type)
	}
	improved, dones := 0, 0
	lastSeq := int64(0)
	lastGen := 0
	for _, ev := range events {
		if ev.Seq <= lastSeq {
			t.Errorf("sequence not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Job != job.ID() {
			t.Errorf("event for job %q", ev.Job)
		}
		switch ev.Type {
		case EventImproved:
			improved++
		case EventDone:
			dones++
		case EventGeneration, EventStarted, EventMigration:
		default:
			t.Errorf("unknown event type %q", ev.Type)
		}
		if ev.Generation < lastGen && ev.Type != EventDone {
			t.Errorf("generation went backwards: %d after %d", ev.Generation, lastGen)
		}
		if ev.Generation > lastGen {
			lastGen = ev.Generation
		}
	}
	if improved == 0 {
		t.Error("no improved events")
	}
	if dones != 1 {
		t.Errorf("%d done events", dones)
	}
	last := events[len(events)-1]
	if last.Type != EventDone || last.Result == nil {
		t.Fatalf("terminal event %s (result %v)", last.Type, last.Result)
	}
	res, _ := job.Result()
	if last.Result != res {
		t.Error("done event result differs from job result")
	}
	// Late subscription to a finished job replays the retained history:
	// the same stream the live subscriber saw (the run is shorter than
	// the replay ring).
	var late []Event
	for ev := range job.Events() {
		late = append(late, ev)
	}
	if len(late) != len(events) {
		t.Fatalf("late subscriber got %d events, live got %d", len(late), len(events))
	}
	for i := range late {
		if late[i].Type != events[i].Type || late[i].Seq != events[i].Seq {
			t.Errorf("replayed event %d is %s/%d, live was %s/%d",
				i, late[i].Type, late[i].Seq, events[i].Type, events[i].Seq)
		}
	}
}

// TestServiceEventsReplayRing: once a job has recorded more events than
// EventHistory, a subscription replays exactly the newest EventHistory of
// them in sequence order, and every overwritten one counts as a ring drop.
func TestServiceEventsReplayRing(t *testing.T) {
	const ring, progress = 8, 21
	svc := &Service{EventHistory: ring}
	job, err := svc.SubmitRunner(context.Background(), smallSpec("serial"),
		func(ctx context.Context, emit func(Event)) (*Result, error) {
			for g := 1; g <= progress; g++ {
				emit(Event{Type: EventGeneration, Generation: g})
			}
			return &Result{Generations: progress}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), awaitTimeout)
	defer cancel()
	if _, err := job.Await(ctx); err != nil {
		t.Fatal(err)
	}
	total := int64(progress + 2) // started, progress, done
	for sub := 0; sub < 2; sub++ {
		var seqs []int64
		for ev := range job.Events() {
			seqs = append(seqs, ev.Seq)
		}
		if len(seqs) != ring {
			t.Fatalf("replayed %d events %v, want the last %d", len(seqs), seqs, ring)
		}
		for i, seq := range seqs {
			if want := total - ring + 1 + int64(i); seq != want {
				t.Fatalf("replayed seqs %v, want %d..%d", seqs, total-ring+1, total)
			}
		}
	}
	if got, want := svc.Stats().RingDrops, total-ring; got != want {
		t.Errorf("RingDrops %d, want %d", got, want)
	}
}

// TestServiceEventsEveryModel: every registered model streams at least
// started, one improvement and done — the progress seam reaches all of
// them. Epoch models additionally mark their migrations.
func TestServiceEventsEveryModel(t *testing.T) {
	svc := NewService(4)
	for _, model := range Names() {
		t.Run(model, func(t *testing.T) {
			spec := smallSpec(model)
			job := submitOne(t, svc, spec)
			var improved, migrations int
			var done *Event
			for ev := range job.Events() {
				switch ev.Type {
				case EventImproved:
					improved++
				case EventMigration:
					migrations++
				case EventDone:
					e := ev
					done = &e
				}
			}
			if improved == 0 {
				t.Error("no improved events")
			}
			if done == nil || done.Result == nil {
				t.Fatal("no terminal result event")
			}
			switch model {
			case "island", "hybrid", "agents", "qga":
				if migrations == 0 {
					t.Error("epoch model emitted no migration events")
				}
			}
		})
	}
}

// TestServiceConcurrencyBound: with MaxConcurrent 1, two jobs never run
// simultaneously; with MaxActive, over-submission is rejected with
// ErrBusy.
func TestServiceConcurrencyBound(t *testing.T) {
	svc := &Service{MaxConcurrent: 1, MaxActive: 2}
	long := smallSpec("serial")
	long.Budget = Budget{Generations: 1 << 20}
	a := submitOne(t, svc, long)
	// Wait until a holds the only slot before queueing b: slot acquisition
	// races, it is not submission-ordered.
	waitRunning(t, a)
	b := submitOne(t, svc, long)
	if _, err := svc.Submit(context.Background(), long); err != ErrBusy {
		t.Errorf("third submit: %v, want ErrBusy", err)
	}
	if st := b.Status().State; st != JobPending {
		t.Errorf("second job state %s while slot is held", st)
	}
	a.Cancel()
	if res, err := a.Await(context.Background()); err != nil || !res.Canceled {
		t.Fatalf("cancelled job: res %v err %v", res, err)
	}
	// Wait for b to take the freed slot before cancelling: a cancel that
	// lands while b is still pending fails the job with context.Canceled
	// instead of stopping a running solve with a partial result.
	waitRunning(t, b)
	b.Cancel()
	if _, err := b.Await(context.Background()); err != nil {
		t.Fatalf("second job: %v", err)
	}
	// A terminal job frees MaxActive capacity again.
	small := smallSpec("serial")
	c := submitOne(t, svc, small)
	if _, err := c.Await(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServiceGetRemove: lookup by ID, listing in submission order, and
// pruning of terminal jobs only.
func TestServiceGetRemove(t *testing.T) {
	svc := NewService(2)
	a := submitOne(t, svc, smallSpec("serial"))
	long := smallSpec("serial")
	long.Budget = Budget{Generations: 1 << 20}
	b := submitOne(t, svc, long)
	if got, ok := svc.Get(a.ID()); !ok || got != a {
		t.Errorf("Get(%s) = %v %v", a.ID(), got, ok)
	}
	if jobs := svc.Jobs(); len(jobs) != 2 || jobs[0] != a || jobs[1] != b {
		t.Errorf("Jobs() = %v", jobs)
	}
	if svc.Remove(b.ID()) {
		t.Error("removed a live job")
	}
	if _, err := a.Await(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !svc.Remove(a.ID()) {
		t.Error("could not remove a finished job")
	}
	if _, ok := svc.Get(a.ID()); ok {
		t.Error("removed job still resolvable")
	}
	// Wait until b is actually running before cancelling: a Cancel that
	// wins the race against runJob's slot acquisition legitimately fails
	// the job with context.Canceled (pending-cancel semantics), which is
	// not the partial-result path this test asserts.
	waitRunning(t, b)
	b.Cancel()
	if _, err := b.Await(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServiceDrain: drain refuses new submissions, waits for in-flight
// jobs, and force-cancels them when its context expires first.
func TestServiceDrain(t *testing.T) {
	svc := NewService(2)
	long := smallSpec("serial")
	long.Budget = Budget{Generations: 1 << 20}
	job := submitOne(t, svc, long)
	drainCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := svc.Drain(drainCtx)
	if err == nil {
		t.Error("drain of an unbounded job reported clean completion")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("drain hung for %s", elapsed)
	}
	if _, err := svc.Submit(context.Background(), smallSpec("serial")); err != ErrDraining {
		t.Errorf("submit after drain: %v, want ErrDraining", err)
	}
	res, err := job.Await(context.Background())
	if err != nil || !res.Canceled {
		t.Errorf("drained job: res %v err %v", res, err)
	}
	// A clean drain returns nil.
	svc2 := NewService(2)
	j2 := submitOne(t, svc2, smallSpec("serial"))
	if err := svc2.Drain(context.Background()); err != nil {
		t.Errorf("clean drain: %v", err)
	}
	if st := j2.Status().State; st != JobDone {
		t.Errorf("job after clean drain: %s", st)
	}
}

// TestServiceSubmitValidates: invalid specs are rejected at submission
// with the aggregated validation error, before any job exists.
func TestServiceSubmitValidates(t *testing.T) {
	svc := NewService(1)
	_, err := svc.Submit(context.Background(), Spec{Model: "nope", Params: Params{CrossoverRate: 2}})
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
	verr, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if len(verr.Fields) < 2 {
		t.Errorf("fields %v, want model and params.crossover_rate", verr.Fields)
	}
	if len(svc.Jobs()) != 0 {
		t.Error("rejected spec left a job behind")
	}
}

// TestCancellationSemantics is the cancellation contract, per model:
// cancelling mid-run returns promptly with Canceled=true and a valid
// partial schedule, while a run stopped by its own WallMillis budget
// reports Canceled=false. The cancel fires only after the first progress
// event, so every model is provably mid-run (past its first generation or
// epoch) when the context dies.
func TestCancellationSemantics(t *testing.T) {
	for _, model := range Names() {
		t.Run(model+"/canceled", func(t *testing.T) {
			svc := NewService(1)
			spec := smallSpec(model)
			spec.Budget = Budget{Generations: 1 << 20}
			job := submitOne(t, svc, spec)
			events := job.Events()
			deadline := time.After(awaitTimeout)
			for {
				var ev Event
				select {
				case ev = <-events:
				case <-deadline:
					t.Fatal("no progress event before deadline")
				}
				if ev.Type == EventGeneration || ev.Type == EventImproved || ev.Type == EventMigration {
					break
				}
				if ev.Type == EventDone {
					t.Fatalf("unbounded run terminated on its own: %+v", ev)
				}
			}
			job.Cancel()
			start := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), awaitTimeout)
			defer cancel()
			res, err := job.Await(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Errorf("cancellation took %s", elapsed)
			}
			if !res.Canceled {
				t.Error("mid-run cancel not flagged: Canceled=false")
			}
			if st := job.Status().State; st != JobCanceled {
				t.Errorf("job state %s, want canceled", st)
			}
			if res.Schedule == nil {
				t.Fatal("no partial schedule")
			}
			if err := res.Schedule.Validate(); err != nil {
				t.Errorf("partial schedule infeasible: %v", err)
			}
		})
		t.Run(model+"/wall-budget", func(t *testing.T) {
			spec := smallSpec(model)
			spec.Budget = Budget{WallMillis: 50}
			res, err := Solve(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Canceled {
				t.Error("own wall budget flagged as cancellation: Canceled=true")
			}
			if res.Schedule == nil {
				t.Fatal("no schedule")
			}
			if err := res.Schedule.Validate(); err != nil {
				t.Errorf("schedule infeasible: %v", err)
			}
		})
	}
}

// TestJobCancelBeforeStart: a job cancelled while still queued fails with
// the bare context error and no result.
func TestJobCancelBeforeStart(t *testing.T) {
	svc := NewService(1)
	long := smallSpec("serial")
	long.Budget = Budget{Generations: 1 << 20}
	running := submitOne(t, svc, long)
	// Only queue the victim once the slot is provably held, so it cannot
	// race into the running state itself.
	waitRunning(t, running)
	queued := submitOne(t, svc, smallSpec("serial"))
	queued.Cancel()
	res, err := queued.Await(context.Background())
	if err != context.Canceled {
		t.Errorf("queued cancel error %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("queued cancel returned a result: %v", res)
	}
	if st := queued.Status().State; st != JobCanceled {
		t.Errorf("state %s", st)
	}
	running.Cancel()
	if _, err := running.Await(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestResultReference: Solve embeds the reference objective, its kind and
// the gap in every Result — registry optimum for classics, heuristic Fbar
// for generated instances.
func TestResultReference(t *testing.T) {
	res, err := Solve(context.Background(), Spec{
		Problem: ProblemSpec{Instance: "ft06"},
		Model:   "serial",
		Params:  Params{Pop: 30},
		Budget:  Budget{Generations: 20},
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reference != 55 || res.RefKind != RefOptimal {
		t.Errorf("ft06 reference %v/%v, want 55/optimal", res.Reference, res.RefKind)
	}
	want := (res.BestObjective - 55) / 55
	if res.Gap != want {
		t.Errorf("gap %v, want %v", res.Gap, want)
	}
	gen, err := Solve(context.Background(), smallSpec("serial"))
	if err != nil {
		t.Fatal(err)
	}
	if gen.Reference <= 0 || gen.RefKind != RefHeuristic {
		t.Errorf("generated instance reference %v/%v, want heuristic", gen.Reference, gen.RefKind)
	}
}
