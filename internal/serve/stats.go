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
// layer's Info snapshot when one is registered. Gauges for instantaneous
// state (jobs by state, queue depth), counters for monotonic totals
// (evaluations, replay-ring drops).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.svc.Stats()
	var p promWriter
	p.family("schedserver_jobs", "gauge", "Jobs by lifecycle state.")
	for _, state := range []solver.JobState{
		solver.JobPending, solver.JobRunning, solver.JobDone, solver.JobCanceled, solver.JobFailed,
	} {
		p.sample("schedserver_jobs", fmt.Sprintf("{state=%q}", state), st.Jobs[state])
	}
	p.metric("schedserver_queue_depth", "gauge", "Pending jobs awaiting a worker slot.", st.QueueDepth)
	p.metric("schedserver_evaluations_total", "counter", "Fitness evaluations observed across all jobs.", st.Evaluations)
	p.metric("schedserver_evals_per_second", "gauge", "Lifetime average evaluation rate.", st.EvalsPerSec)
	p.metric("schedserver_replay_ring_drops_total", "counter", "Events aged out of per-job SSE replay rings.", st.RingDrops)
	s.writeGapHistogram(&p)
	if s.fed != nil {
		writeFederation(&p, s.fed.Info())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(p.String()))
}

// promWriter builds a Prometheus text exposition: each family is one
// # HELP / # TYPE header followed by its samples. Values print with %v,
// which is %d for counts and %g for seconds and rates.
type promWriter struct{ strings.Builder }

// family writes a family's header; its samples must follow.
func (p *promWriter) family(name, typ, help string) {
	fmt.Fprintf(p, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample writes one sample line; labels is empty or a rendered
// {name="value",...} set.
func (p *promWriter) sample(name, labels string, v any) {
	fmt.Fprintf(p, "%s%s %v\n", name, labels, v)
}

// metric writes a family of one unlabelled sample.
func (p *promWriter) metric(name, typ, help string, v any) {
	p.family(name, typ, help)
	p.sample(name, "", v)
}

// writeFederation renders a federation snapshot: the fleet size, then
// one counter family per federationMetrics row.
func writeFederation(p *promWriter, info FederationInfo) {
	p.metric("schedserver_federation_peers", "gauge", "Fleet size, self included.", len(info.Peers))
	for _, m := range federationMetrics {
		n := m.value(info.Counters)
		var v any = n
		if m.seconds {
			v = float64(n) / 1e9
		}
		p.metric("schedserver_federation_"+m.name, "counter", m.help, v)
	}
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
func (s *Server) writeGapHistogram(p *promWriter) {
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
	p.family("schedserver_job_gap", "histogram", "Relative gap to the reference objective of retained finished jobs, by model.")
	for _, m := range models {
		h := byModel[m]
		var cum int64
		for i, n := range h.counts {
			le := "+Inf"
			if i < len(gapBuckets) {
				le = strconv.FormatFloat(gapBuckets[i], 'g', -1, 64)
			}
			cum += n
			p.sample("schedserver_job_gap_bucket", fmt.Sprintf("{model=%q,le=%q}", m, le), cum)
		}
		p.sample("schedserver_job_gap_sum", fmt.Sprintf("{model=%q}", m), h.sum)
		p.sample("schedserver_job_gap_count", fmt.Sprintf("{model=%q}", m), h.total)
	}
}
