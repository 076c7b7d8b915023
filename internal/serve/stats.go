package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/solver"
)

// handleStats: GET /v1/stats — the service's operational counters in
// Prometheus text exposition format (version 0.0.4), plus the federation
// layer's counters when one is registered. Gauges for instantaneous
// state (jobs by state, queue depth), counters for monotonic totals
// (evaluations, replay-ring drops).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.svc.Stats()
	var b strings.Builder
	b.WriteString("# HELP schedserver_jobs Jobs by lifecycle state.\n")
	b.WriteString("# TYPE schedserver_jobs gauge\n")
	for _, state := range []solver.JobState{
		solver.JobPending, solver.JobRunning, solver.JobDone, solver.JobCanceled, solver.JobFailed,
	} {
		fmt.Fprintf(&b, "schedserver_jobs{state=%q} %d\n", string(state), st.Jobs[state])
	}
	b.WriteString("# HELP schedserver_queue_depth Pending jobs awaiting a worker slot.\n")
	b.WriteString("# TYPE schedserver_queue_depth gauge\n")
	fmt.Fprintf(&b, "schedserver_queue_depth %d\n", st.QueueDepth)
	b.WriteString("# HELP schedserver_evaluations_total Fitness evaluations observed across all jobs.\n")
	b.WriteString("# TYPE schedserver_evaluations_total counter\n")
	fmt.Fprintf(&b, "schedserver_evaluations_total %d\n", st.Evaluations)
	b.WriteString("# HELP schedserver_evals_per_second Lifetime average evaluation rate.\n")
	b.WriteString("# TYPE schedserver_evals_per_second gauge\n")
	fmt.Fprintf(&b, "schedserver_evals_per_second %g\n", st.EvalsPerSec)
	b.WriteString("# HELP schedserver_replay_ring_drops_total Events aged out of per-job SSE replay rings.\n")
	b.WriteString("# TYPE schedserver_replay_ring_drops_total counter\n")
	fmt.Fprintf(&b, "schedserver_replay_ring_drops_total %d\n", st.RingDrops)
	s.writeGapHistogram(&b)
	if s.fed != nil {
		b.WriteString(s.fed.StatsText())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// gapBuckets are the upper bounds of the solution-quality histogram:
// relative gap to the instance's reference objective, from near-optimal
// (2%) to worse-than-double. +Inf is implicit as the final bucket.
var gapBuckets = []float64{0.02, 0.05, 0.1, 0.2, 0.5, 1}

// writeGapHistogram renders per-model histograms of Result.Gap over the
// retained jobs that finished with a reference objective to compare
// against. Aggregated on demand from the job list rather than tracked by
// a watcher, so every submission path (API, federation shards, restart
// recovery) is covered; pruning a job removes its sample.
func (s *Server) writeGapHistogram(b *strings.Builder) {
	type hist struct {
		counts []int64 // one per bucket, +Inf last
		sum    float64
		total  int64
	}
	byModel := map[string]*hist{}
	var models []string
	for _, job := range s.svc.Jobs() {
		if !job.Status().State.Terminal() {
			continue
		}
		res, err := job.Result()
		if err != nil || res == nil || res.Reference <= 0 {
			continue
		}
		model := res.Model
		if model == "" {
			model = job.Spec().Model
		}
		h := byModel[model]
		if h == nil {
			h = &hist{counts: make([]int64, len(gapBuckets)+1)}
			byModel[model] = h
			models = append(models, model)
		}
		i := 0
		for i < len(gapBuckets) && res.Gap > gapBuckets[i] {
			i++
		}
		h.counts[i]++
		h.sum += res.Gap
		h.total++
	}
	if len(models) == 0 {
		return
	}
	sort.Strings(models)
	b.WriteString("# HELP schedserver_job_gap Relative gap to the reference objective of retained finished jobs, by model.\n")
	b.WriteString("# TYPE schedserver_job_gap histogram\n")
	for _, m := range models {
		h := byModel[m]
		var cum int64
		for i, le := range gapBuckets {
			cum += h.counts[i]
			fmt.Fprintf(b, "schedserver_job_gap_bucket{model=%q,le=%q} %d\n", m, strconv.FormatFloat(le, 'g', -1, 64), cum)
		}
		cum += h.counts[len(gapBuckets)]
		fmt.Fprintf(b, "schedserver_job_gap_bucket{model=%q,le=\"+Inf\"} %d\n", m, cum)
		fmt.Fprintf(b, "schedserver_job_gap_sum{model=%q} %g\n", m, h.sum)
		fmt.Fprintf(b, "schedserver_job_gap_count{model=%q} %d\n", m, h.total)
	}
}

// FederationStatsText renders federation counters as Prometheus text —
// shared by the federation layer's StatsText implementation so the
// metric names live next to the serve-side metrics they extend.
func FederationStatsText(peers int, c FederationCounters) string {
	var b strings.Builder
	b.WriteString("# HELP schedserver_federation_peers Fleet size, self included.\n")
	b.WriteString("# TYPE schedserver_federation_peers gauge\n")
	fmt.Fprintf(&b, "schedserver_federation_peers %d\n", peers)
	b.WriteString("# HELP schedserver_federation_shards_total Federated shard runs executed on this node.\n")
	b.WriteString("# TYPE schedserver_federation_shards_total counter\n")
	fmt.Fprintf(&b, "schedserver_federation_shards_total %d\n", c.Shards)
	b.WriteString("# HELP schedserver_federation_migrants_sent_total Migrants shipped to peers.\n")
	b.WriteString("# TYPE schedserver_federation_migrants_sent_total counter\n")
	fmt.Fprintf(&b, "schedserver_federation_migrants_sent_total %d\n", c.MigrantsSent)
	b.WriteString("# HELP schedserver_federation_migrants_accepted_total Inbound migrants accepted.\n")
	b.WriteString("# TYPE schedserver_federation_migrants_accepted_total counter\n")
	fmt.Fprintf(&b, "schedserver_federation_migrants_accepted_total %d\n", c.MigrantsAccepted)
	b.WriteString("# HELP schedserver_federation_migrants_rejected_total Inbound migrants dropped by validation.\n")
	b.WriteString("# TYPE schedserver_federation_migrants_rejected_total counter\n")
	fmt.Fprintf(&b, "schedserver_federation_migrants_rejected_total %d\n", c.MigrantsRejected)
	b.WriteString("# HELP schedserver_federation_peer_timeouts_total Epoch barriers a peer missed.\n")
	b.WriteString("# TYPE schedserver_federation_peer_timeouts_total counter\n")
	fmt.Fprintf(&b, "schedserver_federation_peer_timeouts_total %d\n", c.PeerTimeouts)
	b.WriteString("# HELP schedserver_federation_failovers_total Lost shards resumed on a surviving node.\n")
	b.WriteString("# TYPE schedserver_federation_failovers_total counter\n")
	fmt.Fprintf(&b, "schedserver_federation_failovers_total %d\n", c.Failovers)
	b.WriteString("# HELP schedserver_federation_inbox_dropped_total Migrant batches dropped on pending-inbox overflow.\n")
	b.WriteString("# TYPE schedserver_federation_inbox_dropped_total counter\n")
	fmt.Fprintf(&b, "schedserver_federation_inbox_dropped_total %d\n", c.InboxDropped)
	b.WriteString("# HELP schedserver_federation_stream_failures_total Failed dials and writes on outbound migrant streams.\n")
	b.WriteString("# TYPE schedserver_federation_stream_failures_total counter\n")
	fmt.Fprintf(&b, "schedserver_federation_stream_failures_total %d\n", c.StreamFailures)
	b.WriteString("# HELP schedserver_federation_frames_rejected_total Inbound migrant frames dropped by shape validation.\n")
	b.WriteString("# TYPE schedserver_federation_frames_rejected_total counter\n")
	fmt.Fprintf(&b, "schedserver_federation_frames_rejected_total %d\n", c.FramesRejected)
	b.WriteString("# HELP schedserver_federation_barrier_wait_seconds_total Time shards waited at epoch barriers.\n")
	b.WriteString("# TYPE schedserver_federation_barrier_wait_seconds_total counter\n")
	fmt.Fprintf(&b, "schedserver_federation_barrier_wait_seconds_total %g\n", float64(c.BarrierWaitNS)/1e9)
	b.WriteString("# HELP schedserver_federation_barriers_total Epoch barriers shards waited at.\n")
	b.WriteString("# TYPE schedserver_federation_barriers_total counter\n")
	fmt.Fprintf(&b, "schedserver_federation_barriers_total %d\n", c.Barriers)
	b.WriteString("# HELP schedserver_federation_barrier_late_seconds_total Barrier wait before the last awaited batch arrived.\n")
	b.WriteString("# TYPE schedserver_federation_barrier_late_seconds_total counter\n")
	fmt.Fprintf(&b, "schedserver_federation_barrier_late_seconds_total %g\n", float64(c.BarrierLateNS)/1e9)
	b.WriteString("# HELP schedserver_federation_barrier_wake_seconds_total Barrier wait from the last awaited batch's arrival to the barrier's return.\n")
	b.WriteString("# TYPE schedserver_federation_barrier_wake_seconds_total counter\n")
	fmt.Fprintf(&b, "schedserver_federation_barrier_wake_seconds_total %g\n", float64(c.BarrierWakeNS)/1e9)
	return b.String()
}
