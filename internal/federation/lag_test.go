package federation_test

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/serve"
	"repro/internal/solver"
)

// lagFleet is three nodes seen from rank 0, the only one that exists:
// ranks 1 and 2 are fed through ServeStream and listen nowhere, so every
// send to them is refused at once and no barrier depends on it.
var lagFleet = []string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"}

const lagKey = "f0-lag-1"

// lagRun starts rank 0's shard of a three-shard run, fast-forwarding to
// ff, with the given barrier timeout.
func lagRun(t *testing.T, ff int, timeout time.Duration) *federation.Node {
	t.Helper()
	node := streamNode(t, federation.Config{Self: lagFleet[0], Peers: lagFleet, MaxRetries: -1})
	if node.Rank() != 0 {
		t.Fatalf("rank %d, want 0", node.Rank())
	}
	if ff > 0 {
		node.SetFastForward(lagKey, 0, ff)
	}
	node.ShardStarted(lagKey, 0, 3, timeout.Milliseconds())
	t.Cleanup(func() { node.ShardFinished(lagKey, 0) })
	return node
}

// lagSend delivers sender from's batch for epoch as its stream would.
// Its one migrant's objective is 100*from + epoch, so a report's
// objectives name the batches it injected, in order.
func lagSend(t *testing.T, node *federation.Node, from, epoch int, done bool) {
	t.Helper()
	b := &serve.MigrantBatch{Key: lagKey, Epoch: epoch, From: from, Done: done}
	if !done {
		b.Migrants = []solver.Migrant{{Genome: solver.Genome{Seq: []int{0, 1}}, Obj: float64(100*from + epoch)}}
	}
	frame, err := federation.AppendFrame(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.ServeStream(bytes.NewReader(frame)); err != io.EOF {
		t.Fatalf("ServeStream: %v", err)
	}
}

// lagBarrier runs rank 0's barrier at epoch and returns the injected
// batches (as objectives) and how long the barrier took.
func lagBarrier(t *testing.T, node *federation.Node, epoch int) ([]float64, time.Duration) {
	t.Helper()
	out := []solver.Migrant{{Genome: solver.Genome{Seq: []int{1, 0}}, Obj: 1}}
	start := time.Now()
	rep := node.ExchangeMigrants(context.Background(), lagKey, 0, epoch, out, nil)
	took := time.Since(start)
	if len(rep.Degraded) != 0 {
		t.Errorf("epoch %d: degraded %v", epoch, rep.Degraded)
	}
	var objs []float64
	for _, m := range rep.In {
		objs = append(objs, m.Obj)
	}
	return objs, took
}

// prompt bounds a barrier that must not wait: far below the 5 s timeout
// the runs use, far above a scheduling hiccup.
const prompt = time.Second

// TestLaggedBarrier pins the one-epoch migration lag at the node level:
// the barrier at epoch e injects the peers' epoch e-1 batches in rank
// order, waits only for a peer more than an epoch behind, never waits
// for or injects a final batch, and a fast-forwarded run does not wait
// for the batches sent before its fast-forward epoch.
func TestLaggedBarrier(t *testing.T) {
	t.Run("epoch e batch returned at e+1 in rank order", func(t *testing.T) {
		node := lagRun(t, 0, 5*time.Second)
		for e := 0; e < 2; e++ {
			lagSend(t, node, 2, e, false) // out of rank order
			lagSend(t, node, 1, e, false)
		}
		if got, _ := lagBarrier(t, node, 0); len(got) != 0 {
			t.Errorf("epoch 0 injected %v, want nothing", got)
		}
		for e := 1; e <= 2; e++ {
			got, took := lagBarrier(t, node, e)
			if want := []float64{float64(100 + e - 1), float64(200 + e - 1)}; !reflect.DeepEqual(got, want) {
				t.Errorf("epoch %d injected %v, want %v", e, got, want)
			}
			if took > prompt {
				t.Errorf("epoch %d waited %v with its batches in the inbox", e, took)
			}
		}
	})

	t.Run("peer one epoch behind does not block", func(t *testing.T) {
		node := lagRun(t, 0, 5*time.Second)
		for e := 0; e < 3; e++ {
			lagSend(t, node, 1, e, false)
		}
		// Rank 2 has shipped epoch 1 and is computing epoch 2 while rank 0
		// enters its barrier 2.
		for e := 0; e < 2; e++ {
			lagSend(t, node, 2, e, false)
		}
		for e := 0; e < 2; e++ {
			lagBarrier(t, node, e)
		}
		got, took := lagBarrier(t, node, 2)
		if want := []float64{101, 201}; !reflect.DeepEqual(got, want) {
			t.Errorf("epoch 2 injected %v, want %v", got, want)
		}
		if took > prompt {
			t.Errorf("barrier waited %v for a peer one epoch behind", took)
		}
	})

	t.Run("peer two epochs behind blocks", func(t *testing.T) {
		node := lagRun(t, 0, 5*time.Second)
		for e := 0; e < 3; e++ {
			lagSend(t, node, 1, e, false)
		}
		for e := 0; e < 2; e++ {
			lagSend(t, node, 2, e, false)
		}
		for e := 0; e < 3; e++ {
			lagBarrier(t, node, e)
		}
		// Rank 2 is still computing epoch 2 when rank 0 enters barrier 3,
		// which needs its epoch-2 batch.
		const behind = 100 * time.Millisecond
		c0 := node.Counters()
		done := make(chan []float64)
		go func() {
			got, _ := lagBarrier(t, node, 3)
			done <- got
		}()
		select {
		case got := <-done:
			t.Fatalf("barrier 3 returned %v before rank 2's epoch-2 batch", got)
		case <-time.After(behind):
		}
		lagSend(t, node, 2, 2, false)
		if got := <-done; !reflect.DeepEqual(got, []float64{102, 202}) {
			t.Errorf("epoch 3 injected %v, want [102 202]", got)
		}
		c := node.Counters()
		wait, late, wake := c.BarrierWaitNS-c0.BarrierWaitNS, c.BarrierLateNS-c0.BarrierLateNS, c.BarrierWakeNS-c0.BarrierWakeNS
		// The barrier entered a little after the timer above started.
		if late < int64(behind/2) || late+wake != wait || c.Barriers != c0.Barriers+1 {
			t.Errorf("barrier 3 split: wait %d = late %d + wake %d over %d barriers, want late >= %d",
				wait, late, wake, c.Barriers-c0.Barriers, behind/2)
		}
	})

	t.Run("final batch and Done never injected or waited for", func(t *testing.T) {
		// Every shard runs epochs 0..2. Rank 1 has finished: its final
		// batch 2 and its Done are in the inbox. Rank 2 is computing its
		// last epoch and has not sent its final batch.
		node := lagRun(t, 0, 5*time.Second)
		for e := 0; e < 3; e++ {
			lagSend(t, node, 1, e, false)
		}
		lagSend(t, node, 1, 3, true)
		for e := 0; e < 2; e++ {
			lagSend(t, node, 2, e, false)
		}
		lagBarrier(t, node, 0)
		lagBarrier(t, node, 1)
		got, took := lagBarrier(t, node, 2)
		if want := []float64{101, 201}; !reflect.DeepEqual(got, want) {
			t.Errorf("last barrier injected %v, want %v", got, want)
		}
		if took > prompt {
			t.Errorf("last barrier waited %v for a final batch", took)
		}
	})

	t.Run("fast-forward skips batches sent before it", func(t *testing.T) {
		// A shard resumed at fleet epoch 3: the peers sent their epoch-2
		// batches (and earlier) to the dead host, so barriers 0-3 collect
		// without waiting; barrier 4 waits for epoch 3 again.
		const ff = 3
		node := lagRun(t, ff, 200*time.Millisecond)
		for e := 0; e <= ff; e++ {
			if _, took := lagBarrier(t, node, e); took > prompt/2 {
				t.Errorf("fast-forwarded barrier %d waited %v", e, took)
			}
		}
		if c := node.Counters(); c.Barriers != 0 || c.PeerTimeouts != 0 {
			t.Errorf("fast-forward counted %d barriers and %d timeouts, want none", c.Barriers, c.PeerTimeouts)
		}
		lagSend(t, node, 1, ff, false)
		rep := node.ExchangeMigrants(context.Background(), lagKey, 0, ff+1,
			[]solver.Migrant{{Genome: solver.Genome{Seq: []int{1, 0}}, Obj: 1}}, nil)
		if len(rep.In) != 1 || rep.In[0].Obj != 100+ff || !reflect.DeepEqual(rep.Degraded, lagFleet[2:]) {
			t.Errorf("barrier %d after fast-forward: %+v, want rank 1's batch and rank 2 degraded", ff+1, rep)
		}
	})
}
