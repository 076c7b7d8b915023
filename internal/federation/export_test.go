package federation

import (
	"io"
	"sort"

	"repro/internal/serve"
)

// TrackedCheckpointRanks snapshots, per owned run key, the shard ranks
// whose newest piggybacked checkpoint this node holds for failover.
func (n *Node) TrackedCheckpointRanks() map[string][]int {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := map[string][]int{}
	for key, k := range n.keys {
		for r := range k.ckpts {
			out[key] = append(out[key], r)
		}
		sort.Ints(out[key])
	}
	return out
}

// PendingBatches is the number of batches buffered for a key whose shard
// has not started here.
func (n *Node) PendingBatches(key string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if k := n.keys[key]; k != nil {
		return len(k.early)
	}
	return 0
}

// KeyStates is the number of run keys this node holds any state for.
func (n *Node) KeyStates() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.keys)
}

// ServeStream runs the inbound stream reader over r, as handleStream does
// over an upgraded connection.
func (n *Node) ServeStream(r io.Reader) error { return n.serveStream(r) }

// AppendFrame appends b's migrant stream frame to dst.
func AppendFrame(dst []byte, b *serve.MigrantBatch) ([]byte, error) { return appendFrame(dst, b) }

// ReadFrame reads one migrant stream frame from r.
func ReadFrame(r io.Reader) (*serve.MigrantBatch, error) {
	b, _, err := readFrame(r, nil)
	return b, err
}

// SetFastForward pre-registers the fleet epoch the next ShardStarted of
// (key, rank) fast-forwards to, as a resubmission does.
func (n *Node) SetFastForward(key string, rank, epoch int) { n.setFastForward(key, rank, epoch) }
