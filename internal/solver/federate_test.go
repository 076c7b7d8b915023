package solver

import (
	"context"
	"testing"

	"repro/internal/shop"
)

// TestStallGenerations: the spec-level stall terminator stops an
// engine-driven run well before its generation cap once the incumbent
// stops improving, and an explicit Budget.Stagnation wins over it.
func TestStallGenerations(t *testing.T) {
	spec := smallSpec("serial")
	spec.Budget = Budget{Generations: 5000}
	spec.StallGenerations = 10

	res, err := Solve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations >= 5000 {
		t.Errorf("ran %d generations, stall after 10 stagnant should stop far earlier", res.Generations)
	}
	if res.Schedule == nil || res.BestObjective <= 0 {
		t.Fatalf("stalled run result invalid: %+v", res)
	}

	// Explicit stagnation wins over the sugar.
	n := Spec{StallGenerations: 10, Budget: Budget{Stagnation: 3}}.normalized()
	if n.Budget.Stagnation != 3 {
		t.Errorf("explicit stagnation overridden: %d", n.Budget.Stagnation)
	}
	n = Spec{StallGenerations: 25}.normalized()
	if n.Budget.Stagnation != 25 {
		t.Errorf("stall sugar not applied: %+v", n.Budget)
	}
	// The sugar alone is a termination criterion: no generation-cap
	// default must be forced on top of it beyond the structural one.
	if n.Budget.Generations == DefaultGenerations {
		t.Errorf("stall-only budget still got the default generation cap")
	}
}

// TestStallGenerationsConvergence: on a real instance the engine-driven
// models converge and then stall out long before the cap.
func TestStallGenerationsConvergence(t *testing.T) {
	for _, model := range []string{"serial", "ms"} {
		spec := Spec{
			Problem:          ProblemSpec{Instance: "ft06"},
			Model:            model,
			Params:           Params{Pop: 60},
			Budget:           Budget{Generations: 4000},
			StallGenerations: 12,
			Seed:             5,
		}
		res, err := Solve(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Generations >= 4000 {
			t.Errorf("%s run exhausted the %d-generation cap despite stall_generations", model, res.Generations)
		}
	}
}

// TestMigrationEventPayload: migration events carry the per-edge
// provenance (source island, target island, migrant count), the summed
// migrant count, and the incumbent objective.
func TestMigrationEventPayload(t *testing.T) {
	spec := smallSpec("island")
	spec.Params.Islands = 4
	spec.Params.Interval = 2
	spec.Params.Migrants = 2

	var migrations []Event
	_, err := solve(context.Background(), spec, func(ev Event) {
		if ev.Type == EventMigration {
			migrations = append(migrations, ev)
		}
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(migrations) == 0 {
		t.Fatal("no migration events")
	}
	for _, ev := range migrations {
		if ev.BestObjective <= 0 {
			t.Errorf("migration event lacks incumbent objective: %+v", ev)
		}
		if len(ev.Exchanges) == 0 {
			t.Fatalf("migration event lacks exchange edges: %+v", ev)
		}
		sum := 0
		for _, x := range ev.Exchanges {
			if x.From < 0 || x.From >= 4 || x.To < 0 || x.To >= 4 || x.From == x.To {
				t.Errorf("bad local edge %+v", x)
			}
			if x.Count != spec.Params.Migrants {
				t.Errorf("edge count %d, want %d", x.Count, spec.Params.Migrants)
			}
			sum += x.Count
		}
		if ev.Migrants != sum {
			t.Errorf("event migrants %d, want sum of edges %d", ev.Migrants, sum)
		}
	}
}

// TestValidateFederationFields: the federation coordinates validate as a
// unit — island-only, in-range, key-coupled.
func TestValidateFederationFields(t *testing.T) {
	base := func() Spec { return smallSpec("island") }

	cases := []struct {
		name   string
		mutate func(*Spec)
		path   string
	}{
		{"federate non-island", func(s *Spec) { s.Model = "serial"; s.Params.Federate = true }, "params.federate"},
		{"fed_nodes range", func(s *Spec) { s.Params.FedNodes = MaxDemes + 1; s.Params.FedKey = "k" }, "params.fed_nodes"},
		{"fed_rank negative", func(s *Spec) { s.Params.FedNodes = 2; s.Params.FedKey = "k"; s.Params.FedRank = -1 }, "params.fed_rank"},
		{"fed_rank beyond nodes", func(s *Spec) { s.Params.FedNodes = 2; s.Params.FedKey = "k"; s.Params.FedRank = 2 }, "params.fed_rank"},
		{"fed_key without nodes", func(s *Spec) { s.Params.FedKey = "k" }, "params.fed_key"},
		{"fed_nodes without key", func(s *Spec) { s.Params.FedNodes = 2 }, "params.fed_nodes"},
		{"federate with shard key", func(s *Spec) { s.Params.Federate = true; s.Params.FedNodes = 2; s.Params.FedKey = "k" }, "params.federate"},
		{"epoch timeout negative", func(s *Spec) { s.Params.Federate = true; s.Params.FedEpochTimeoutMS = -1 }, "params.fed_epoch_timeout_ms"},
		{"epoch timeout beyond cap", func(s *Spec) { s.Params.Federate = true; s.Params.FedEpochTimeoutMS = 3_600_001 }, "params.fed_epoch_timeout_ms"},
		{"stall negative", func(s *Spec) { s.StallGenerations = -1 }, "stall_generations"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("spec validated, want error on %s", tc.path)
			}
			verr, ok := err.(*ValidationError)
			if !ok {
				t.Fatalf("error type %T: %v", err, err)
			}
			found := false
			for _, f := range verr.Fields {
				if f.Path == tc.path {
					found = true
				}
			}
			if !found {
				t.Errorf("no error at %s: %v", tc.path, err)
			}
		})
	}

	// The valid shard and owner shapes pass.
	ok := base()
	ok.Params.Federate = true
	if err := ok.Validate(); err != nil {
		t.Errorf("owner spec rejected: %v", err)
	}
	ok = base()
	ok.Params.FedKey, ok.Params.FedNodes, ok.Params.FedRank = "f0-1", 3, 2
	if err := ok.Validate(); err != nil {
		t.Errorf("shard spec rejected: %v", err)
	}
	ok = base()
	ok.StallGenerations = 50
	if err := ok.Validate(); err != nil {
		t.Errorf("stall spec rejected: %v", err)
	}
	ok = base()
	ok.Params.Federate = true
	ok.Params.FedEpochTimeoutMS = 2500
	if err := ok.Validate(); err != nil {
		t.Errorf("per-spec epoch timeout rejected: %v", err)
	}
}

// TestReduceShards: the owner's reduction rebuilds a remote winner's
// packed genome into a validated schedule with the objective it claimed,
// never decodes a damaged or stale genome blind (the win passes to the
// next shard in objective order), and finishes the Result with the header
// a local solve of the same spec reports.
func TestReduceShards(t *testing.T) {
	spec := smallSpec("island")
	res, err := Solve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// Re-solve shard-style to obtain the packed genome: a federated shard
	// with the same seed and no fleet is the same run.
	shard := spec
	shard.Params.FedKey, shard.Params.FedNodes, shard.Params.FedRank = "k", 1, 0
	got, err := solve(context.Background(), shard, nil, nil, nopExchange{})
	if err != nil {
		t.Fatal(err)
	}
	if got.BestGenome == nil {
		t.Fatal("shard run did not pack its best genome")
	}
	if res.BestObjective != got.BestObjective {
		t.Errorf("fleetless shard diverged from plain solve: %v vs %v", got.BestObjective, res.BestObjective)
	}
	// What crosses the wire: no schedule, only the packed genome.
	remote := *got
	remote.Schedule = nil

	red, err := ReduceShards(spec, []*Result{nil, &remote})
	if err != nil {
		t.Fatalf("ReduceShards: %v", err)
	}
	if err := red.Schedule.Validate(); err != nil {
		t.Errorf("rebuilt schedule invalid: %v", err)
	}
	if obj := shop.Makespan(red.Schedule); obj != got.BestObjective || red.BestObjective != got.BestObjective {
		t.Errorf("rebuilt objective %v (reported %v), want %v", obj, red.BestObjective, got.BestObjective)
	}
	if red.Instance != res.Instance || red.Kind != res.Kind || red.Encoding != res.Encoding || red.Seed != res.Seed ||
		red.Reference != res.Reference || red.RefKind != res.RefKind || red.Gap != res.Gap {
		t.Errorf("reduced header %+v, local solve %+v", red, res)
	}
	if red.Evaluations != got.Evaluations || red.Generations != got.Generations {
		t.Errorf("reduced counters %d evals %d gens, want %d/%d", red.Evaluations, red.Generations, got.Evaluations, got.Generations)
	}

	// A damaged genome claiming a better objective must be rejected, not
	// decoded blind: the win passes to the intact shard behind it, and
	// alone it leaves nothing to reduce. So must a valid genome that does
	// not score the objective it claims.
	damaged := remote
	bad := *got.BestGenome
	bad.Seq = append([]int(nil), bad.Seq...)
	bad.Seq[0] = -99
	damaged.BestGenome, damaged.BestObjective = &bad, got.BestObjective-1
	stale := remote
	stale.BestObjective = got.BestObjective - 2
	red, err = ReduceShards(spec, []*Result{&stale, &damaged, &remote})
	if err != nil {
		t.Fatalf("ReduceShards past a damaged genome: %v", err)
	}
	if red.BestObjective != got.BestObjective {
		t.Errorf("winner objective %v, want the intact shard's %v", red.BestObjective, got.BestObjective)
	}
	if red.Evaluations != 3*got.Evaluations {
		t.Errorf("evaluations %d, want the sum over all three shards %d", red.Evaluations, 3*got.Evaluations)
	}
	if _, err := ReduceShards(spec, []*Result{&damaged}); err == nil {
		t.Error("damaged genome reduced without error")
	}
}

// TestShardSpecs: the split covers every island and the exact population
// once, remainders to the low ranks, and a fleet of one federates nothing.
func TestShardSpecs(t *testing.T) {
	spec := smallSpec("island")
	spec.Params.Federate, spec.Params.Islands, spec.Params.Pop = true, 5, 0
	shards, err := ShardSpecs(spec, "k", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{2, 32}, {2, 32}, {1, 16}} // islands, pop of the default 80
	if len(shards) != len(want) {
		t.Fatalf("%d shards, want %d", len(shards), len(want))
	}
	for r, sp := range shards {
		p := sp.Params
		if p.Islands != want[r][0] || p.Pop != want[r][1] || p.FedKey != "k" || p.FedNodes != 3 || p.FedRank != r || p.Federate {
			t.Errorf("shard %d params %+v, want islands/pop %v", r, p, want[r])
		}
	}
	if shards, err := ShardSpecs(spec, "k", 1); shards != nil || err != nil {
		t.Errorf("fleet of one: %d shards, err %v; want none", len(shards), err)
	}
}

// nopExchange satisfies MigrantExchange with no fleet behind it.
type nopExchange struct{}

func (nopExchange) ShardStarted(string, int, int, int64) bool { return false }
func (nopExchange) ExchangeMigrants(_ context.Context, _ string, _, _ int, _ []Migrant, _ *Checkpoint) ExchangeReport {
	return ExchangeReport{}
}
func (nopExchange) MigrantRejected(string)    {}
func (nopExchange) ShardFinished(string, int) {}

// cpRecorder is a fleetless exchange that answers ShardStarted with want
// and records, per ExchangeMigrants call, whether a checkpoint came along.
type cpRecorder struct {
	nopExchange
	want bool
	cps  []*Checkpoint // indexed by epoch
}

func (r *cpRecorder) ShardStarted(string, int, int, int64) bool { return r.want }
func (r *cpRecorder) ExchangeMigrants(_ context.Context, _ string, _, epoch int, _ []Migrant, cp *Checkpoint) ExchangeReport {
	if epoch != len(r.cps) {
		panic("cpRecorder: epochs out of order")
	}
	r.cps = append(r.cps, cp)
	return ExchangeReport{}
}

// TestShardCheckpointGating: a shard only snapshots for its exchange when
// ShardStarted asked for checkpoints. Declined, every barrier gets
// cp == nil; wanted, every barrier from epoch 1 on gets the checkpoint
// taken after the previous epoch. Either way the run itself is the same, and the
// durability save keeps its own cadence.
func TestShardCheckpointGating(t *testing.T) {
	spec := smallSpec("island")
	spec.Params.Interval = 2
	spec.Params.FedKey, spec.Params.FedNodes, spec.Params.FedRank = "f0-x-1", 2, 1
	spec.Budget.Generations = 30

	results := map[bool]*Result{}
	for _, want := range []bool{false, true} {
		ex := &cpRecorder{want: want}
		saves := 0
		ck := &ckptSeam{every: 4, save: func(*Checkpoint) { saves++ }}
		res, err := solve(context.Background(), spec, nil, ck, ex)
		if err != nil {
			t.Fatalf("want=%v: %v", want, err)
		}
		results[want] = res
		if len(ex.cps) < 3 {
			t.Fatalf("want=%v: only %d barriers", want, len(ex.cps))
		}
		for epoch, cp := range ex.cps {
			switch {
			case !want && cp != nil:
				t.Errorf("declined checkpoints, epoch %d still got one", epoch)
			case want && epoch == 0 && cp != nil:
				t.Errorf("epoch 0 got a checkpoint before any epoch completed")
			case want && epoch > 0 && cp == nil:
				t.Errorf("wanted checkpoints, epoch %d got none", epoch)
			case want && epoch > 0 && cp.Epoch != epoch:
				// Checkpoint.Epoch counts completed epochs: the snapshot
				// taken after epoch e-1 resumes at epoch e.
				t.Errorf("epoch %d got a checkpoint resuming at epoch %d", epoch, cp.Epoch)
			}
		}
		if saves == 0 {
			t.Errorf("want=%v: durability seam never saved", want)
		}
	}
	off, on := results[false], results[true]
	if off.BestObjective != on.BestObjective || off.Evaluations != on.Evaluations || off.Generations != on.Generations {
		t.Errorf("checkpoint shipping changed the run: %+v vs %+v", off, on)
	}
}
