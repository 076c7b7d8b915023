package solver

import (
	"context"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"repro/internal/shop"
)

// smallSpec is a fast job shop spec usable with every registered model.
func smallSpec(model string) Spec {
	return Spec{
		Problem: ProblemSpec{Kind: "job", Jobs: 6, Machines: 4, Seed: 42},
		Model:   model,
		Params:  Params{Pop: 24},
		Budget:  Budget{Generations: 20},
		Seed:    7,
	}
}

// TestRegistryRoundTrip solves a small instance with every registered
// model, going through a JSON marshal/unmarshal of the Spec first: the
// full declarative path a service request would take.
func TestRegistryRoundTrip(t *testing.T) {
	names := Names()
	if len(names) < 7 {
		t.Fatalf("registry has %d models, want >= 7: %v", len(names), names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			raw, err := json.Marshal(smallSpec(name))
			if err != nil {
				t.Fatal(err)
			}
			var spec Spec
			if err := json.Unmarshal(raw, &spec); err != nil {
				t.Fatal(err)
			}
			res, err := Solve(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Model != name {
				t.Errorf("result model %q", res.Model)
			}
			if res.BestObjective <= 0 {
				t.Errorf("best objective %v", res.BestObjective)
			}
			if res.Evaluations <= 0 {
				t.Errorf("evaluations %d", res.Evaluations)
			}
			if res.Schedule == nil {
				t.Fatal("nil schedule")
			}
			if err := res.Schedule.Validate(); err != nil {
				t.Errorf("infeasible schedule: %v", err)
			}
			if name != "qga" {
				if got := float64(res.Schedule.Makespan()); got != res.BestObjective {
					t.Errorf("objective %v != schedule makespan %v", res.BestObjective, got)
				}
			}
		})
	}
}

// TestDeterminism: same Spec, same seed => identical outcome, for every
// model (including the concurrent ones: their parallelism is designed to
// be scheduling-independent).
func TestDeterminism(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			a, err := Solve(context.Background(), smallSpec(name))
			if err != nil {
				t.Fatal(err)
			}
			b, err := Solve(context.Background(), smallSpec(name))
			if err != nil {
				t.Fatal(err)
			}
			if a.BestObjective != b.BestObjective {
				t.Errorf("best objective %v vs %v", a.BestObjective, b.BestObjective)
			}
			if a.Evaluations != b.Evaluations {
				t.Errorf("evaluations %d vs %d", a.Evaluations, b.Evaluations)
			}
		})
	}
}

// TestMasterSlaveWorkerInvariance: the registry preserves the survey's
// defining Table III property in its sharded-pipeline form — the parallel
// structure does not change the algorithm, so the ms trajectory is
// bit-identical for any worker count (the fixed shard decomposition and
// its per-shard RNG substreams depend only on Pop; workers merely execute
// shards). TestWorkerCountInvariance extends this to all 7 models.
func TestMasterSlaveWorkerInvariance(t *testing.T) {
	one := smallSpec("ms")
	one.Params.Workers = 1
	eight := smallSpec("ms")
	eight.Params.Workers = 8
	a, err := Solve(context.Background(), one)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), eight)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestObjective != b.BestObjective || a.Evaluations != b.Evaluations {
		t.Errorf("ms workers=8 (%v, %d) != workers=1 (%v, %d)",
			b.BestObjective, b.Evaluations, a.BestObjective, a.Evaluations)
	}
}

// TestEncodingResolution checks the auto-selection and the validation of
// explicit encodings against instance kinds.
func TestEncodingResolution(t *testing.T) {
	cases := []struct {
		kind, enc string
		want      string
		wantErr   bool
	}{
		{"flow", "", EncPerm, false},
		{"job", "", EncSeq, false},
		{"open", "", EncSeq, false},
		{"fjs", "", EncFlex, false},
		{"ffs", "", EncFlex, false},
		{"job", EncKeys, EncKeys, false},
		{"flow", EncKeys, EncKeys, false},
		{"fjs", EncSeq, EncSeq, false},
		{"job", EncPerm, "", true},
		{"flow", EncSeq, "", true},
		{"job", EncFlex, "", true},
		{"open", EncKeys, "", true},
		{"job", "nope", "", true},
	}
	for _, tc := range cases {
		in, err := BuildInstance(ProblemSpec{Kind: tc.kind, Jobs: 4, Machines: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := resolveEncoding(tc.enc, in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s/%s: want error, got %q", tc.kind, tc.enc, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s/%s: %v", tc.kind, tc.enc, err)
		} else if got != tc.want {
			t.Errorf("%s/%s: resolved %q, want %q", tc.kind, tc.enc, got, tc.want)
		}
	}
}

// TestEncodingsSolvable runs one model per non-default encoding route.
func TestEncodingsSolvable(t *testing.T) {
	cases := []struct{ kind, enc, model string }{
		{"flow", "", "serial"},
		{"flow", EncKeys, "island"},
		{"open", "", "ms"},
		{"fjs", "", "island"},
		{"ffs", "", "cellular"},
		{"fjs", EncSeq, "hybrid"},
		{"job", EncKeys, "agents"},
	}
	for _, tc := range cases {
		spec := Spec{
			Problem:  ProblemSpec{Kind: tc.kind, Jobs: 5, Machines: 3, Seed: 9},
			Encoding: tc.enc,
			Model:    tc.model,
			Params:   Params{Pop: 16},
			Budget:   Budget{Generations: 10},
			Seed:     3,
		}
		res, err := Solve(context.Background(), spec)
		if err != nil {
			t.Errorf("%s/%s/%s: %v", tc.kind, tc.enc, tc.model, err)
			continue
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Errorf("%s/%s/%s: infeasible: %v", tc.kind, tc.enc, tc.model, err)
		}
	}
}

// TestBuildInstanceKinds mirrors the old cmd/shopsched coverage at its new
// home: every generator kind, the embedded benchmark, and error paths.
func TestBuildInstanceKinds(t *testing.T) {
	kinds := map[string]shop.Kind{
		"flow": shop.FlowShop,
		"job":  shop.JobShop,
		"open": shop.OpenShop,
		"fjs":  shop.FlexibleJobShop,
		"ffs":  shop.FlexibleFlowShop,
	}
	for kind, want := range kinds {
		in, err := BuildInstance(ProblemSpec{Kind: kind, Jobs: 4, Machines: 3, Seed: 99})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if in.Kind != want {
			t.Errorf("%s: kind %v", kind, in.Kind)
		}
		if err := in.Validate(); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
	if _, err := BuildInstance(ProblemSpec{Kind: "nope"}); err == nil {
		t.Error("unknown kind accepted")
	}
	in, err := BuildInstance(ProblemSpec{Instance: "ft06"})
	if err != nil || in.Name != "ft06" {
		t.Errorf("ft06 lookup failed: %v %v", in, err)
	}
	if _, err := BuildInstance(ProblemSpec{Instance: "/does/not/exist.json"}); err == nil {
		t.Error("missing file accepted")
	}
}

// TestInvalidSpecs: registry misses and bad names fail with errors, not
// panics.
func TestInvalidSpecs(t *testing.T) {
	bad := []Spec{
		{Problem: ProblemSpec{Kind: "job"}, Model: "nope"},
		{Problem: ProblemSpec{Kind: "job"}, Model: "serial", Objective: "nope"},
		{Problem: ProblemSpec{Kind: "job"}, Model: "serial", Encoding: "nope"},
		{Problem: ProblemSpec{Kind: "job"}, Model: "island", Params: Params{Topology: "nope"}},
		{Problem: ProblemSpec{Kind: "job"}, Model: "cellular", Params: Params{Neighborhood: "nope"}},
		{Problem: ProblemSpec{Kind: "open"}, Model: "serial", Params: Params{Rule: "nope"}},
		{Problem: ProblemSpec{Kind: "fjs"}, Model: "qga"},
		{Problem: ProblemSpec{Kind: "job"}, Model: "qga", Objective: "twt"},
	}
	for i, spec := range bad {
		spec.Budget = Budget{Generations: 2}
		spec.Params.Pop = 8
		if _, err := Solve(context.Background(), spec); err == nil {
			t.Errorf("spec %d accepted", i)
		}
	}
}

// TestTrace: tracing is off by default; when requested, every model that
// records a trace gives one point per generation, monotone and ending at
// the result's best, and neither checkpoint saving nor a Service job with
// a subscriber changes a single point of it.
func TestTrace(t *testing.T) {
	ctx := context.Background()
	viaCheckpoints := func(spec Spec) (*Result, error) {
		saves := 0
		res, err := SolveWithCheckpoints(ctx, spec, CheckpointOptions{Every: 5, Save: func(*Checkpoint) { saves++ }})
		if err == nil && saves == 0 {
			t.Error("checkpointed run saved no checkpoint")
		}
		return res, err
	}
	viaService := func(spec Spec) (*Result, error) {
		svc := NewService(1)
		defer svc.Close()
		job, err := svc.Submit(ctx, spec)
		if err != nil {
			return nil, err
		}
		events := 0
		for range job.Events() {
			events++
		}
		if events == 0 {
			t.Error("subscriber saw no event")
		}
		return job.Await(ctx)
	}
	cases := []struct {
		name, model string
		solve       func(Spec) (*Result, error) // nil: only the plain Solve
	}{
		{"serial", "serial", nil},
		{"serial-checkpoints", "serial", viaCheckpoints},
		{"serial-service", "serial", viaService},
		{"ms", "ms", nil},
		{"cellular", "cellular", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := smallSpec(c.model)
			res, err := Solve(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Trace) != 0 {
				t.Errorf("trace recorded without Trace: %d points", len(res.Trace))
			}
			spec.Trace = true
			want, err := Solve(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Trace) != want.Generations {
				t.Fatalf("trace has %d points for %d generations", len(want.Trace), want.Generations)
			}
			for i := 1; i < len(want.Trace); i++ {
				if want.Trace[i].BestObj > want.Trace[i-1].BestObj {
					t.Errorf("best-so-far worsened at %d: %v -> %v",
						i, want.Trace[i-1].BestObj, want.Trace[i].BestObj)
				}
			}
			if last := want.Trace[len(want.Trace)-1].BestObj; last != want.BestObjective {
				t.Errorf("trace ends at %v, result is %v", last, want.BestObjective)
			}
			if c.solve == nil {
				return
			}
			got, err := c.solve(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Trace, want.Trace) {
				t.Errorf("trace differs from the plain Solve's:\n got %v\nwant %v", got.Trace, want.Trace)
			}
		})
	}
}

// TestSolveCancellation: a cancelled context stops an effectively
// unbounded run at a generation boundary and flags the partial result.
func TestSolveCancellation(t *testing.T) {
	for _, model := range []string{"serial", "island", "cellular"} {
		t.Run(model, func(t *testing.T) {
			spec := smallSpec(model)
			spec.Budget = Budget{Generations: 1 << 20}
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(30*time.Millisecond, cancel)
			start := time.Now()
			res, err := Solve(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Canceled {
				t.Error("result not flagged as canceled")
			}
			if res.BestObjective <= 0 || res.Schedule == nil {
				t.Error("no partial best returned")
			}
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Errorf("cancellation took %s", elapsed)
			}
		})
	}
}

// TestWallClockBudget: the wall budget alone terminates a run with no
// generation bound, for every model: the solver turns it into a context
// deadline that reaches each model through its Stop hook.
func TestWallClockBudget(t *testing.T) {
	for _, model := range []string{"serial", "cellular", "island", "hybrid", "agents", "qga"} {
		t.Run(model, func(t *testing.T) {
			spec := smallSpec(model)
			spec.Budget = Budget{WallMillis: 50}
			start := time.Now()
			res, err := Solve(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Canceled {
				t.Error("wall-clock stop flagged as cancellation")
			}
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Errorf("wall budget overran: %s", elapsed)
			}
		})
	}
}

// TestEvaluationBudgetBoundsAllModels: an evaluations-only budget must
// bound every model — exactly for the engine-driven ones, via the derived
// generation bound (within an epoch's overshoot) for the epoch-structured
// ones. Regression: these used to fall back to a ~1M-generation run.
func TestEvaluationBudgetBoundsAllModels(t *testing.T) {
	const budget = 500
	for _, model := range Names() {
		t.Run(model, func(t *testing.T) {
			spec := smallSpec(model)
			spec.Budget = Budget{Evaluations: budget}
			start := time.Now()
			res, err := Solve(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Fatalf("evaluation budget did not bound the run: %s", elapsed)
			}
			if res.Evaluations > 5*budget {
				t.Errorf("spent %d evaluations against a budget of %d", res.Evaluations, budget)
			}
		})
	}
}

// TestTargetStopsAllModels: a trivially satisfiable Target stops every
// model almost immediately instead of exhausting the generation budget.
// Regression: agents and qga used to ignore Budget.Target.
func TestTargetStopsAllModels(t *testing.T) {
	for _, model := range Names() {
		t.Run(model, func(t *testing.T) {
			spec := smallSpec(model)
			spec.Budget = Budget{Generations: 5000, Target: 1e12, TargetSet: true}
			start := time.Now()
			res, err := Solve(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Generations > 20 {
				t.Errorf("ran %d generations past a satisfied target", res.Generations)
			}
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Errorf("target stop took %s", elapsed)
			}
		})
	}
}

// TestReference: the heuristic reference is computable from a Spec and
// beats nothing (positive).
func TestReference(t *testing.T) {
	spec := smallSpec("serial")
	in, err := BuildInstance(spec.Problem)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := ReferenceKindFor(in, spec.Objective)
	if err != nil {
		t.Fatal(err)
	}
	if ref <= 0 {
		t.Errorf("reference %v", ref)
	}
}

// TestBuildInstanceRegistry: every registry name resolves through
// BuildInstance, and the classic references surface with the right kind.
func TestBuildInstanceRegistry(t *testing.T) {
	for _, name := range shop.BenchmarkNames() {
		in, err := BuildInstance(ProblemSpec{Instance: name})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if in.Name != name {
			t.Errorf("%s: built %q", name, in.Name)
		}
	}
	if _, err := BuildInstance(ProblemSpec{Instance: "no-such-benchmark.json"}); err == nil {
		t.Error("unknown instance name resolved")
	}
}

// TestReferenceKinds: registry classics anchor the makespan reference at
// their proven optimum; non-makespan objectives and unregistered instances
// fall back to the heuristic Fbar.
func TestReferenceKinds(t *testing.T) {
	ft10, err := BuildInstance(ProblemSpec{Instance: "ft10"})
	if err != nil {
		t.Fatal(err)
	}
	ref, kind, err := ReferenceKindFor(ft10, "makespan")
	if err != nil || ref != shop.FT10Optimum || kind != RefOptimal {
		t.Errorf("ft10 makespan reference = %v %v %v, want 930 optimal", ref, kind, err)
	}
	ref, kind, err = ReferenceKindFor(ft10, "twc")
	if err != nil || kind != RefHeuristic || ref <= 0 {
		t.Errorf("ft10 twc reference = %v %v %v, want heuristic", ref, kind, err)
	}
	gen, err := BuildInstance(ProblemSpec{Kind: "job", Jobs: 5, Machines: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, kind, _ := ReferenceKindFor(gen, ""); kind != RefHeuristic {
		t.Errorf("generated instance reference kind = %v", kind)
	}
	// la06 is a reconstruction: no best-known, heuristic kind.
	la06, err := BuildInstance(ProblemSpec{Instance: "la06"})
	if err != nil {
		t.Fatal(err)
	}
	if _, kind, _ := ReferenceKindFor(la06, ""); kind != RefHeuristic {
		t.Errorf("la06 reference kind = %v, want heuristic (reconstruction)", kind)
	}
	// A foreign instance whose name merely collides with a registry entry
	// must not inherit its optimum: the shape check demotes it to heuristic.
	impostor := shop.GenerateJobShop("ft10", 5, 3, 11, 12)
	if ref, kind, _ := ReferenceKindFor(impostor, ""); kind != RefHeuristic || ref == shop.FT10Optimum {
		t.Errorf("name-colliding instance anchored at %v/%v, want heuristic", ref, kind)
	}
	// Same name, same shape, tweaked times: the total-work checksum must
	// still demote it.
	tweaked := shop.FT10()
	tweaked.Jobs[3].Ops[4].Times[0]++
	if ref, kind, _ := ReferenceKindFor(tweaked, ""); kind != RefHeuristic {
		t.Errorf("tweaked ft10 anchored at %v/%v, want heuristic", ref, kind)
	}
}
