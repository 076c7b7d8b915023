package federation

import "sort"

// TrackedCheckpointRanks snapshots, per owned run key, the shard ranks
// whose newest piggybacked checkpoint this node holds for failover.
func (n *Node) TrackedCheckpointRanks() map[string][]int {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string][]int, len(n.ckpts))
	for key, km := range n.ckpts {
		for r := range km {
			out[key] = append(out[key], r)
		}
		sort.Ints(out[key])
	}
	return out
}
