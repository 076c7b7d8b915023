package serve_test

import (
	"context"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/solver"
)

// fakeFederation is a registered federation layer with fixed counters:
// every counter holds a different value and the ns counters are not
// whole seconds, so a renderer that swapped two accessors or dropped the
// ns→s conversion would change the exposition.
type fakeFederation struct{}

// fakeInfo is the snapshot fakeFederation reports.
var fakeInfo = serve.FederationInfo{
	Self:  "http://b",
	Peers: []string{"http://a", "http://b", "http://c"},
	Rank:  1,
	Counters: serve.FederationCounters{
		MigrantsSent:     101,
		MigrantsAccepted: 102,
		MigrantsRejected: 103,
		PeerTimeouts:     104,
		Shards:           105,
		Failovers:        106,
		InboxDropped:     107,
		StreamFailures:   108,
		FramesRejected:   109,
		BarrierWaitNS:    3_579_246_912,
		Barriers:         110,
		BarrierLateNS:    1_234_567_891,
		BarrierWakeNS:    2_344_679_021,
	},
}

func (fakeFederation) SubmitFederated(context.Context, solver.Spec) (*solver.Job, error) {
	return nil, context.Canceled
}

func (fakeFederation) Info() serve.FederationInfo { return fakeInfo }

func (fakeFederation) Close() {}

// wantExposition is the whole GET /v1/stats body after one finished
// island job (islandSpec(3)) on a server with fakeFederation registered.
// The evals/sec sample is the one value that depends on wall time; the
// test checks it parses and then masks it as <rate>.
const wantExposition = `# HELP schedserver_jobs Jobs by lifecycle state.
# TYPE schedserver_jobs gauge
schedserver_jobs{state="pending"} 0
schedserver_jobs{state="running"} 0
schedserver_jobs{state="done"} 1
schedserver_jobs{state="canceled"} 0
schedserver_jobs{state="failed"} 0
# HELP schedserver_queue_depth Pending jobs awaiting a worker slot.
# TYPE schedserver_queue_depth gauge
schedserver_queue_depth 0
# HELP schedserver_evaluations_total Fitness evaluations observed across all jobs.
# TYPE schedserver_evaluations_total counter
schedserver_evaluations_total 544
# HELP schedserver_evals_per_second Lifetime average evaluation rate.
# TYPE schedserver_evals_per_second gauge
schedserver_evals_per_second <rate>
# HELP schedserver_replay_ring_drops_total Events aged out of per-job SSE replay rings.
# TYPE schedserver_replay_ring_drops_total counter
schedserver_replay_ring_drops_total 0
# HELP schedserver_job_gap Relative gap to the reference objective of retained finished jobs, by model.
# TYPE schedserver_job_gap histogram
schedserver_job_gap_bucket{model="island",le="0.02"} 1
schedserver_job_gap_bucket{model="island",le="0.05"} 1
schedserver_job_gap_bucket{model="island",le="0.1"} 1
schedserver_job_gap_bucket{model="island",le="0.2"} 1
schedserver_job_gap_bucket{model="island",le="0.5"} 1
schedserver_job_gap_bucket{model="island",le="1"} 1
schedserver_job_gap_bucket{model="island",le="+Inf"} 1
schedserver_job_gap_sum{model="island"} -0.13303769401330376
schedserver_job_gap_count{model="island"} 1
# HELP schedserver_federation_peers Fleet size, self included.
# TYPE schedserver_federation_peers gauge
schedserver_federation_peers 3
# HELP schedserver_federation_shards_total Federated shard runs executed on this node.
# TYPE schedserver_federation_shards_total counter
schedserver_federation_shards_total 105
# HELP schedserver_federation_migrants_sent_total Migrants shipped to peers.
# TYPE schedserver_federation_migrants_sent_total counter
schedserver_federation_migrants_sent_total 101
# HELP schedserver_federation_migrants_accepted_total Inbound migrants accepted.
# TYPE schedserver_federation_migrants_accepted_total counter
schedserver_federation_migrants_accepted_total 102
# HELP schedserver_federation_migrants_rejected_total Inbound migrants dropped by validation.
# TYPE schedserver_federation_migrants_rejected_total counter
schedserver_federation_migrants_rejected_total 103
# HELP schedserver_federation_peer_timeouts_total Epoch barriers a peer missed.
# TYPE schedserver_federation_peer_timeouts_total counter
schedserver_federation_peer_timeouts_total 104
# HELP schedserver_federation_failovers_total Lost shards resumed on a surviving node.
# TYPE schedserver_federation_failovers_total counter
schedserver_federation_failovers_total 106
# HELP schedserver_federation_inbox_dropped_total Migrant batches dropped on pending-inbox overflow.
# TYPE schedserver_federation_inbox_dropped_total counter
schedserver_federation_inbox_dropped_total 107
# HELP schedserver_federation_stream_failures_total Failed dials and writes on outbound migrant streams.
# TYPE schedserver_federation_stream_failures_total counter
schedserver_federation_stream_failures_total 108
# HELP schedserver_federation_frames_rejected_total Inbound migrant frames dropped by shape validation.
# TYPE schedserver_federation_frames_rejected_total counter
schedserver_federation_frames_rejected_total 109
# HELP schedserver_federation_barrier_wait_seconds_total Time shards waited at epoch barriers.
# TYPE schedserver_federation_barrier_wait_seconds_total counter
schedserver_federation_barrier_wait_seconds_total 3.579246912
# HELP schedserver_federation_barriers_total Epoch barriers shards waited at.
# TYPE schedserver_federation_barriers_total counter
schedserver_federation_barriers_total 110
# HELP schedserver_federation_barrier_late_seconds_total Barrier wait before the last awaited batch arrived.
# TYPE schedserver_federation_barrier_late_seconds_total counter
schedserver_federation_barrier_late_seconds_total 1.234567891
# HELP schedserver_federation_barrier_wake_seconds_total Barrier wait from the last awaited batch's arrival to the barrier's return.
# TYPE schedserver_federation_barrier_wake_seconds_total counter
schedserver_federation_barrier_wake_seconds_total 2.344679021
`

// TestStatsExposition pins the whole /v1/stats body, federation block
// included, and checks its structure: each family has exactly one HELP
// and one TYPE line, and every sample belongs to the family declared
// just above it.
func TestStatsExposition(t *testing.T) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetFederation(fakeFederation{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	c := &client.Client{BaseURL: ts.URL}
	ctx := testCtx(t)

	job, err := c.Submit(ctx, islandSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Await(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}

	lines := strings.SplitAfter(stats, "\n")
	for i, line := range lines {
		if rest, ok := strings.CutPrefix(line, "schedserver_evals_per_second "); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err != nil || v <= 0 {
				t.Errorf("evals/sec sample %q is not a positive number", line)
			}
			lines[i] = "schedserver_evals_per_second <rate>\n"
		}
	}
	if got := strings.Join(lines, ""); got != wantExposition {
		t.Errorf("GET /v1/stats body differs.\n got:\n%s\nwant:\n%s", got, wantExposition)
	}
	checkExpositionStructure(t, stats)
}

// checkExpositionStructure walks a Prometheus text body: a family is a
// HELP line followed at once by its TYPE line, names no earlier family,
// and owns the samples up to the next HELP. A histogram's samples are
// its _bucket, _sum and _count series.
func checkExpositionStructure(t *testing.T, body string) {
	t.Helper()
	seen := map[string]bool{}
	var family, typ string
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			family, _, _ = strings.Cut(rest, " ")
			if seen[family] {
				t.Errorf("family %s declared twice", family)
			}
			seen[family] = true
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+family+" ") {
				t.Errorf("HELP for %s is not followed by its TYPE line", family)
				continue
			}
			i++
			typ = strings.TrimPrefix(lines[i], "# TYPE "+family+" ")
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("line %d: stray comment %q", i+1, line)
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		ok := name == family
		if typ == "histogram" {
			ok = name == family+"_bucket" || name == family+"_sum" || name == family+"_count"
		}
		if family == "" || !ok {
			t.Errorf("line %d: sample %q does not belong to family %q (%s)", i+1, line, family, typ)
		}
	}
}
