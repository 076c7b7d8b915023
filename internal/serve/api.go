// Package serve is the HTTP serving layer over the solver's job Service:
// a REST+SSE API (cmd/schedserver is the daemon, serve/client the typed
// client) that submits Specs as jobs, streams their typed progress events,
// and exposes the model and instance registries.
//
//	POST   /v1/jobs             submit a solver.Spec, returns the job
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status (+ result when terminal)
//	GET    /v1/jobs/{id}/events Server-Sent Events progress stream
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/models           registered GA models
//	GET    /v1/instances        benchmark registry
//	GET    /v1/stats            operational counters, Prometheus text;
//	                            a federated daemon adds its Federation.Info
//	GET    /healthz             liveness + job counts
//
// A federated daemon (cmd/schedserver -peers) additionally serves the
// internal/federation endpoints, composed in front of this handler:
//
//	POST   /v1/federation/stream    a peer's ordered migrant stream (Upgrade)
//	GET    /v1/federation/info      fleet shape + federation counters
//	POST   /v1/federation/rebind    a failover moved a shard to a new node
//	POST   /v1/federation/resubmit  resume a lost shard from its checkpoint
package serve

import (
	"context"

	"repro/internal/solver"
)

// JobInfo is the wire form of one job: its status snapshot, the spec as
// submitted, and — once terminal — the result (schedules stay in-process;
// Result marshals without its Schedule field).
type JobInfo struct {
	solver.JobStatus
	Spec   solver.Spec    `json:"spec"`
	Result *solver.Result `json:"result,omitempty"`
	// ReplayRing is the server's per-job SSE replay capacity (the last
	// ReplayRing events are re-deliverable to late or reconnecting
	// subscribers; see Config.EventHistory). Clients resuming a stream
	// with Last-Event-ID can expect a gapless replay only within it.
	ReplayRing int `json:"replay_ring,omitempty"`
}

// JobList is the GET /v1/jobs payload.
type JobList struct {
	Jobs []JobInfo `json:"jobs"`
}

// ModelInfo describes one registered GA model.
type ModelInfo struct {
	Name string `json:"name"`
}

// InstanceInfo describes one registry benchmark.
type InstanceInfo struct {
	Name      string `json:"name"`
	Kind      string `json:"kind"`
	Jobs      int    `json:"jobs"`
	Machines  int    `json:"machines"`
	BestKnown int    `json:"best_known,omitempty"`
	Optimal   bool   `json:"optimal,omitempty"`
	Note      string `json:"note,omitempty"`
}

// Health is the /healthz payload.
type Health struct {
	Status  string `json:"status"`
	Jobs    int    `json:"jobs"`
	Active  int    `json:"active"`
	Version string `json:"version,omitempty"`
}

// ErrorBody is every non-2xx response: a message plus, for validation
// failures, the complete field-path error list from Spec.Validate.
type ErrorBody struct {
	Error  string              `json:"error"`
	Fields []solver.FieldError `json:"fields,omitempty"`
}

// Federation is the hook a federation layer (internal/federation)
// registers on the server with SetFederation. The interface points this
// way round — serve defining it, federation implementing it — because the
// typed client imports serve, and the federation layer is built on the
// client; serve importing federation would be a cycle.
type Federation interface {
	// SubmitFederated fans a Params.Federate spec out across the fleet
	// and returns the owner job that tracks the whole federated run (its
	// terminal Result is the best-of-fleet reduction).
	SubmitFederated(ctx context.Context, spec solver.Spec) (*solver.Job, error)
	// Info snapshots the fleet as this node sees it: GET
	// /v1/federation/info encodes it as JSON, and GET /v1/stats renders
	// its fleet size and counters as Prometheus text.
	Info() FederationInfo
	// Close severs the federation's peer connections; Drain calls it once
	// the jobs have finished.
	Close()
}

// MigrantStreamProtocol is the Upgrade token of POST
// /v1/federation/stream. The request upgrades its connection (101
// Switching Protocols) into a one-way stream of length-prefixed
// MigrantBatch frames from the dialling node to the served one; the
// frame layout lives with the federation layer that writes and reads it.
const MigrantStreamProtocol = "schedserver-migrants/1"

// MigrantBatch is one frame of a migrant stream (POST
// /v1/federation/stream): one node's elites for one migration epoch of
// one federated job. Epochs are barriers: the receiver holds the batch
// until its own shard reaches the barrier after Epoch (migration lags
// one epoch), then injects the migrants in sender-rank order. Done marks
// the sender's final word on Key — its shard finished, peers must not
// wait for it at later barriers.
type MigrantBatch struct {
	Key      string           `json:"key"`
	Epoch    int              `json:"epoch"`
	From     int              `json:"from"` // sender's shard rank
	Done     bool             `json:"done,omitempty"`
	Migrants []solver.Migrant `json:"migrants,omitempty"`
	// Checkpoint piggybacks the sender shard's newest epoch checkpoint on
	// the batch pushed to the job's owner node, which tracks it so a shard
	// lost to a node death can be resumed on a surviving node instead of
	// degraded. Only failover-enabled nodes send it, and only for shards
	// hosted away from the owner; batches to non-owner peers omit it.
	Checkpoint *solver.Checkpoint `json:"checkpoint,omitempty"`
}

// RebindRequest is the POST /v1/federation/rebind payload: the owner's
// announcement that a failover moved shard Rank of run Key onto fleet
// node Node. Receivers clear the rank's degradation in their live runs of
// Key and route its future batches to the new host.
type RebindRequest struct {
	Key  string `json:"key"`
	Rank int    `json:"rank"` // the moved shard's rank
	Node int    `json:"node"` // fleet rank of the new host
	// Epoch is the owner's barrier epoch at failover time; the resumed
	// shard replays its checkpointed epochs up to it without waiting at
	// barriers the fleet has already passed.
	Epoch int `json:"epoch"`
}

// ResubmitRequest is the POST /v1/federation/resubmit payload: the owner
// asks a surviving node to run a lost shard, warm from its last epoch
// checkpoint. The receiver validates the checkpoint against the spec
// (same semantic gate as restart recovery) before accepting.
type ResubmitRequest struct {
	Spec       solver.Spec        `json:"spec"`
	Checkpoint *solver.Checkpoint `json:"checkpoint"`
	FleetEpoch int                `json:"fleet_epoch"`
}

// ResubmitResponse acknowledges an accepted shard resubmission.
type ResubmitResponse struct {
	ID string `json:"id"` // the resumed shard's job ID on the new host
}

// FederationCounters are the federation's monotonic counters, exposed on
// /v1/federation/info and, through federationMetrics, as Prometheus text
// on /v1/stats.
type FederationCounters struct {
	MigrantsSent     int64 `json:"migrants_sent"`
	MigrantsAccepted int64 `json:"migrants_accepted"`
	MigrantsRejected int64 `json:"migrants_rejected"`
	PeerTimeouts     int64 `json:"peer_timeouts"`
	Shards           int64 `json:"shards_total"`
	// Failovers counts lost shards successfully resubmitted to a
	// surviving node; InboxDropped counts migrant batches dropped on
	// pending-inbox overflow.
	Failovers    int64 `json:"failovers"`
	InboxDropped int64 `json:"inbox_dropped"`
	// StreamFailures counts failed dials and writes on outbound migrant
	// streams; FramesRejected counts inbound frames dropped because their
	// batch failed shape validation.
	StreamFailures int64 `json:"stream_failures"`
	FramesRejected int64 `json:"frames_rejected"`
	// BarrierWaitNS is the time shards spent waiting at epoch barriers,
	// summed over Barriers waits: their ratio is the mean wait per barrier.
	BarrierWaitNS int64 `json:"barrier_wait_ns"`
	Barriers      int64 `json:"barriers"`
	// BarrierLateNS and BarrierWakeNS split BarrierWaitNS at the moment
	// the last batch (or Done notice) a barrier waited for reached the
	// inbox: late is the time before it arrived, the peer's lag; wake is
	// the time from its arrival to the barrier's return.
	BarrierLateNS int64 `json:"barrier_late_ns"`
	BarrierWakeNS int64 `json:"barrier_wake_ns"`
}

// federationMetrics renders FederationCounters on /v1/stats as counter
// families, one row per counter in exposition order: the metric name
// after "schedserver_federation_", its help text, the field it reads, and
// whether that field holds ns to be shown as seconds.
var federationMetrics = []struct {
	name, help string
	value      func(FederationCounters) int64
	seconds    bool
}{
	{"shards_total", "Federated shard runs executed on this node.", func(c FederationCounters) int64 { return c.Shards }, false},
	{"migrants_sent_total", "Migrants shipped to peers.", func(c FederationCounters) int64 { return c.MigrantsSent }, false},
	{"migrants_accepted_total", "Inbound migrants accepted.", func(c FederationCounters) int64 { return c.MigrantsAccepted }, false},
	{"migrants_rejected_total", "Inbound migrants dropped by validation.", func(c FederationCounters) int64 { return c.MigrantsRejected }, false},
	{"peer_timeouts_total", "Epoch barriers a peer missed.", func(c FederationCounters) int64 { return c.PeerTimeouts }, false},
	{"failovers_total", "Lost shards resumed on a surviving node.", func(c FederationCounters) int64 { return c.Failovers }, false},
	{"inbox_dropped_total", "Migrant batches dropped on pending-inbox overflow.", func(c FederationCounters) int64 { return c.InboxDropped }, false},
	{"stream_failures_total", "Failed dials and writes on outbound migrant streams.", func(c FederationCounters) int64 { return c.StreamFailures }, false},
	{"frames_rejected_total", "Inbound migrant frames dropped by shape validation.", func(c FederationCounters) int64 { return c.FramesRejected }, false},
	{"barrier_wait_seconds_total", "Time shards waited at epoch barriers.", func(c FederationCounters) int64 { return c.BarrierWaitNS }, true},
	{"barriers_total", "Epoch barriers shards waited at.", func(c FederationCounters) int64 { return c.Barriers }, false},
	{"barrier_late_seconds_total", "Barrier wait before the last awaited batch arrived.", func(c FederationCounters) int64 { return c.BarrierLateNS }, true},
	{"barrier_wake_seconds_total", "Barrier wait from the last awaited batch's arrival to the barrier's return.", func(c FederationCounters) int64 { return c.BarrierWakeNS }, true},
}

// FederationInfo is the GET /v1/federation/info payload: the fleet as
// this node sees it.
type FederationInfo struct {
	Self     string             `json:"self"`
	Peers    []string           `json:"peers"` // sorted fleet, self included
	Rank     int                `json:"rank"`  // this node's index in Peers
	Counters FederationCounters `json:"counters"`
	// EpochTimeoutMS is the node's default epoch barrier timeout (a Spec
	// overrides it per job via params.fed_epoch_timeout_ms).
	EpochTimeoutMS int64 `json:"epoch_timeout_ms,omitempty"`
	// ActiveJobs is the node's pending+running job count — the load signal
	// failover uses to pick the least-loaded surviving node.
	ActiveJobs int `json:"active_jobs"`
}
