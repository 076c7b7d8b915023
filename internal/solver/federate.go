package solver

import (
	"context"
	"fmt"

	"repro/internal/shop"
)

// This file is the solver side of the distributed island federation: the
// exchange seam a federation layer plugs into the Service, the wire form
// of a migrant, and the helpers the owner node uses to reduce a fleet of
// shard Results into one terminal Result. The federation layer itself
// (peer discovery, HTTP transport, epoch barriers) lives in
// internal/federation; this package only defines the contract so the
// island runner can ship and absorb migrants without knowing about HTTP.

// Migrant is the wire form of one elite crossing a node boundary: the
// encoding-agnostic packed genome plus the objective it scored on its
// home node. Inbound migrants are unpacked through the same per-encoding
// validators as checkpoints, so a damaged migrant is rejected, never
// decoded blind.
type Migrant struct {
	Genome Genome  `json:"genome"`
	Obj    float64 `json:"obj"`
}

// ExchangeReport is what one epoch barrier returned: the migrants to
// inject, which the peers sent one epoch earlier (already ordered by
// peer rank — the order they must be injected in for determinism; empty
// at epoch 0), and the peers that missed the barrier this epoch
// (reported once per peer per epoch, surfaced as typed peer_degraded
// events by the island runner).
type ExchangeReport struct {
	In       []Migrant
	Degraded []string // peer addresses that missed this epoch's barrier
}

// MigrantExchange is the federation seam threaded into shard runs
// (Service.Exchange). The island runner calls it only when the spec
// carries shard coordinates (Params.FedKey set): once at shard start,
// once per migration epoch with the shard's current elites, and once at
// shard end. Implementations own the transport, the epoch barrier and
// the degradation policy; the solver owns packing, validation and
// deterministic injection.
type MigrantExchange interface {
	// ShardStarted announces a shard run: key identifies the federated
	// job fleet-wide, rank/nodes are this shard's coordinates, and
	// epochTimeoutMS the spec's barrier timeout override (0 keeps the
	// node's default). After a failover two shards of one key may run on
	// the same node, so exchange state is keyed (key, rank). The answer
	// says whether the exchange can use the shard's epoch checkpoints
	// (a failover-enabled node whose owner lives elsewhere); when it is
	// false the island runner never snapshots for the exchange and every
	// ExchangeMigrants call gets cp == nil.
	ShardStarted(key string, rank, nodes int, epochTimeoutMS int64) (wantCheckpoints bool)
	// ExchangeMigrants runs one epoch barrier: ship the local elites of
	// this epoch, wait (bounded) for the batches the peers shipped at the
	// previous one, and return them in rank order. The one-epoch lag lets
	// a batch travel while its receiver computes, so the barrier waits
	// only for a peer more than an epoch behind; epoch 0 returns nothing.
	// ctx is the shard job's context — barrier waits must abort on
	// cancellation. cp, when non-nil, is the shard's
	// newest epoch checkpoint; implementations piggyback it on the
	// outbound batch so the owner can resubmit the shard elsewhere if
	// this node dies. It is nil when ShardStarted declined checkpoints,
	// and during epoch 0 (nothing to resume from yet) unless the shard
	// itself resumed from one.
	ExchangeMigrants(ctx context.Context, key string, rank, epoch int, out []Migrant, cp *Checkpoint) ExchangeReport
	// MigrantRejected reports an inbound migrant that failed the
	// per-encoding unpack validation and was dropped (the damaged-migrant
	// counter's feed: validation lives solver-side, counting node-side).
	MigrantRejected(key string)
	// ShardFinished releases the (key, rank) exchange state. Called
	// exactly once per ShardStarted, after the run's last epoch.
	ShardFinished(key string, rank int)
}

// NodeResult is one node's contribution to a federated Result — the
// per-node provenance of the best-of-fleet reduction.
type NodeResult struct {
	Node          string  `json:"node"` // peer base URL
	Rank          int     `json:"rank"`
	BestObjective float64 `json:"best_objective,omitempty"`
	Evaluations   int64   `json:"evaluations,omitempty"`
	Generations   int     `json:"generations,omitempty"`
	// Degraded marks a node that never returned a shard result (submit
	// failed or the peer died mid-run); its zero objective is not part of
	// the reduction.
	Degraded bool `json:"degraded,omitempty"`
}

// ReconstructSchedule decodes a packed winning genome under the spec's
// instance and encoding and returns the validated schedule with its
// objective. The federation owner uses it to rebuild the fleet winner's
// schedule from the wire form (Result.Schedule does not cross HTTP), with
// the same strict validation as checkpoint resume: a damaged genome is an
// error, never a crash in a decode kernel.
func ReconstructSchedule(spec Spec, g Genome) (*shop.Schedule, float64, error) {
	if err := spec.Validate(); err != nil {
		return nil, 0, err
	}
	norm := spec.normalized()
	in, err := BuildInstance(norm.Problem)
	if err != nil {
		return nil, 0, err
	}
	obj, err := objectiveByName(norm.Objective)
	if err != nil {
		return nil, 0, err
	}
	encName, err := resolveEncoding(norm.Encoding, in)
	if err != nil {
		return nil, 0, err
	}
	run := &Run{Spec: norm, Instance: in, Objective: obj, Encoding: encName}
	var sched *shop.Schedule
	switch encName {
	case EncPerm, EncSeq:
		enc, eerr := seqEncoding(run)
		if eerr != nil {
			return nil, 0, eerr
		}
		gen, uerr := enc.unpack(g)
		if uerr != nil {
			return nil, 0, fmt.Errorf("solver: federated winner genome: %w", uerr)
		}
		sched = enc.schedule(gen)
	case EncKeys:
		enc, eerr := keysEncoding(run)
		if eerr != nil {
			return nil, 0, eerr
		}
		gen, uerr := enc.unpack(g)
		if uerr != nil {
			return nil, 0, fmt.Errorf("solver: federated winner genome: %w", uerr)
		}
		sched = enc.schedule(gen)
	case EncFlex:
		enc, eerr := flexEncoding(run)
		if eerr != nil {
			return nil, 0, eerr
		}
		gen, uerr := enc.unpack(g)
		if uerr != nil {
			return nil, 0, fmt.Errorf("solver: federated winner genome: %w", uerr)
		}
		sched = enc.schedule(gen)
	default:
		return nil, 0, fmt.Errorf("solver: unknown encoding %q", encName)
	}
	if err := sched.Validate(); err != nil {
		return nil, 0, fmt.Errorf("solver: federated winner schedule: %w", err)
	}
	return sched, obj(sched), nil
}

// ReferenceKind resolves the spec's reference objective and its kind
// without running anything — the federation owner embeds the gap into its
// reduced Result the same way Solve does.
func ReferenceKind(spec Spec) (float64, RefKind, error) {
	in, err := BuildInstance(spec.Problem)
	if err != nil {
		return 0, RefHeuristic, err
	}
	return ReferenceKindFor(in, spec.Objective)
}
