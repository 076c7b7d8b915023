package federation

// Shard failover: the owner side of the package doc's Failover story.
// The exchange layer (federation.go) piggybacks shard checkpoints onto
// the owner's node; this file consumes them — when a shard's job dies
// with its node, the owner probes the peer, picks the least-loaded
// survivor, broadcasts the rebinding, and resubmits the shard warm from
// its last checkpoint. Every failure along the way falls back to the
// pre-existing degradation policy, so failover strictly adds recovery
// paths and never new failure modes.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/solver"
)

// probeDead health-probes a fleet node with bounded retries and backoff;
// true means every probe failed and the node is treated as dead. A
// cancelled context reports alive — cancellation must not trigger
// failover.
func (n *Node) probeDead(ctx context.Context, host int) bool {
	c := n.clients[host]
	if c == nil {
		return false // self is trivially alive
	}
	for attempt := 0; attempt < n.cfg.ProbeRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return false
			case <-time.After(n.cfg.ProbeInterval):
			}
		}
		pctx, cancel := context.WithTimeout(ctx, n.cfg.PushTimeout)
		_, err := c.FederationInfo(pctx)
		cancel()
		if err == nil || ctx.Err() != nil {
			return false
		}
	}
	return true
}

// pickSurvivor chooses the least-loaded fleet node other than the dead
// one, ties to the lowest rank. Load is each node's pending+running job
// count (FederationInfo.ActiveJobs); an unreachable node is not a
// candidate.
func (n *Node) pickSurvivor(ctx context.Context, dead int) (int, error) {
	best, bestLoad := -1, 0
	for r := range n.peers {
		if r == dead {
			continue
		}
		var load int
		if r == n.rank {
			load = n.activeJobs()
		} else {
			pctx, cancel := context.WithTimeout(ctx, n.cfg.PushTimeout)
			info, err := n.clients[r].FederationInfo(pctx)
			cancel()
			if err != nil {
				continue
			}
			load = info.ActiveJobs
		}
		if best < 0 || load < bestLoad {
			best, bestLoad = r, load
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("federation: no surviving node reachable")
	}
	return best, nil
}

// broadcastRebind applies the new route locally, then announces it to
// every fleet node but the dead one and waits for the announcements:
// survivors must clear the rank's degradation and re-route its batches
// before the resumed shard starts exchanging. Per-node failures are
// logged, not fatal — an unreachable survivor merely keeps the rank
// degraded locally.
func (n *Node) broadcastRebind(ctx context.Context, key string, rank, target, epoch int) {
	n.applyRebind(key, rank, target)
	req := serve.RebindRequest{Key: key, Rank: rank, Node: target, Epoch: epoch}
	var wg sync.WaitGroup
	for r, c := range n.clients {
		if c == nil || r == rank {
			continue // self (already applied) and the dead node
		}
		wg.Add(1)
		go func(r int, c *client.Client) {
			defer wg.Done()
			rctx, cancel := context.WithTimeout(ctx, n.cfg.PushTimeout*time.Duration(n.clientRetries()+1)*2)
			defer cancel()
			if err := c.Rebind(rctx, req); err != nil {
				n.logf("federation: rebind %s shard %d to %s at %s: %v", key, rank, n.peers[target], n.peers[r], err)
			}
		}(r, c)
	}
	wg.Wait()
}

// failover recovers one lost shard: confirm the host is dead, fetch the
// shard's last checkpoint, pick the least-loaded survivor, rebind the
// rank fleet-wide, and resubmit the shard warm. Any error is a reason to
// fall back to degradation — the caller keeps the original shard error.
func (n *Node) failover(ctx context.Context, rank int, shard solver.Spec, cause error) (*solver.Result, error) {
	k := key(shard)
	if !n.probeDead(ctx, rank) {
		return nil, fmt.Errorf("peer %s answers health probes; shard failed for its own reasons: %v", n.peers[rank], cause)
	}
	var cp *solver.Checkpoint
	n.withKey(k, func(ks *keyState) { cp = ks.ckpts[rank] })
	if cp == nil {
		return nil, fmt.Errorf("no checkpoint for shard %d (lost before its first epoch checkpoint)", rank)
	}
	target, err := n.pickSurvivor(ctx, rank)
	if err != nil {
		return nil, err
	}
	// Fast-forward past both the fleet's barrier (as this node's runs of
	// the key see it) and the checkpoint's own epoch: the resumed shard
	// replays up to here without barrier waits.
	fleetEpoch := cp.Epoch + 1
	n.withKey(k, func(ks *keyState) {
		for _, st := range ks.runs {
			st.mu.Lock()
			fleetEpoch = max(fleetEpoch, st.epoch+1)
			st.mu.Unlock()
		}
	})
	n.logf("federation: shard %d of %s lost with %s; resuming from epoch %d on %s",
		rank, k, n.peers[rank], cp.Epoch, n.peers[target])
	n.broadcastRebind(ctx, k, rank, target, fleetEpoch)

	if target == n.rank {
		job, err := n.resumeLocal(ctx, shard, cp, fleetEpoch)
		if err != nil {
			return nil, err
		}
		n.failovers.Add(1)
		return job.Await(ctx)
	}
	resp, err := n.clients[target].Resubmit(ctx, serve.ResubmitRequest{Spec: shard, Checkpoint: cp, FleetEpoch: fleetEpoch})
	if err != nil {
		return nil, err
	}
	n.failovers.Add(1)
	return n.awaitRemote(ctx, target, resp.ID)
}

// resumeLocal starts a lost shard on this node, warm from its checkpoint:
// the owner's failover onto its own node and POST
// /v1/federation/resubmit both come here. The spec passes the same gate
// as POST /v1/jobs and the checkpoint the same gate as restart recovery,
// so a damaged one is an error, never a crash; the shard then replays to
// fleetEpoch without barrier waits. The solver grants the resumed shard
// what its checkpoint left of the wall budget.
func (n *Node) resumeLocal(ctx context.Context, spec solver.Spec, cp *solver.Checkpoint, fleetEpoch int) (*solver.Job, error) {
	if err := serve.ValidateSpec(spec); err != nil {
		return nil, err
	}
	if err := solver.ValidateCheckpoint(spec, cp); err != nil {
		return nil, err
	}
	key, rank := spec.Params.FedKey, spec.Params.FedRank
	n.setFastForward(key, rank, fleetEpoch)
	job, err := n.svc.SubmitOpts(ctx, spec, solver.SubmitOptions{Resume: cp})
	if err != nil {
		n.withKey(key, func(k *keyState) { delete(k.fastFwd, rank) })
	}
	return job, err
}
