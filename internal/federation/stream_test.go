package federation_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/solver"
)

// streamNode builds a federation node that is only ever fed through
// ServeStream or driven through its exchange methods, so nothing needs
// to listen. Its default fleet is two loopback ports nothing listens on:
// a dial to the peer is refused at once.
func streamNode(t testing.TB, cfg federation.Config) *federation.Node {
	t.Helper()
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Self == "" {
		cfg.Self, cfg.Peers = "http://127.0.0.1:1", []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}
	}
	cfg.Service = srv.Service()
	node, err := federation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetFederation(node)
	t.Cleanup(func() { _ = srv.Drain(context.Background()) })
	return node
}

func streamBatches() []*serve.MigrantBatch {
	return []*serve.MigrantBatch{
		{Key: "f0-x-1", Epoch: 3, From: 1, Migrants: []solver.Migrant{
			{Genome: solver.Genome{Seq: []int{0, 1, 2, 2, 1, 0}}, Obj: 55},
			{Genome: solver.Genome{Keys: []float64{0.5, -1, math.MaxFloat64}}, Obj: -0.25},
			{Genome: solver.Genome{Seq: []int{3, -4, 1 << 40}, Assign: []int{0, 2, 1}}, Obj: 1e300},
		}},
		{Key: "f0-x-1", Epoch: 4, From: 1, Done: true},
		{Key: "f1-y-2", Epoch: 0, From: 0, Checkpoint: &solver.Checkpoint{Model: "island", Encoding: "seq", Epoch: 1, Generation: 2}},
		{Key: "f1-y-2", Epoch: 1, From: 0,
			Migrants:   []solver.Migrant{{Genome: solver.Genome{Seq: make([]int, 300)}, Obj: 7}},
			Checkpoint: &solver.Checkpoint{Model: "island", Encoding: "seq", Epoch: 2}},
	}
}

// TestMigrantStreamFrames: batches round-trip through the frame codec in
// order, and the stream reader closes on an oversized or unparseable
// frame but drops (and counts) a well-formed frame that fails shape
// validation, delivering the frames behind it.
func TestMigrantStreamFrames(t *testing.T) {
	var stream []byte
	want := streamBatches()
	for _, b := range want {
		var err error
		if stream, err = federation.AppendFrame(stream, b); err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
	}
	r := bytes.NewReader(stream)
	for i, w := range want {
		got, err := federation.ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("frame %d round trip:\n got %+v\nwant %+v", i, got, w)
		}
	}
	if _, err := federation.ReadFrame(r); err != io.EOF {
		t.Errorf("after the last frame: %v, want io.EOF", err)
	}

	huge := make([]solver.Migrant, 1)
	huge[0].Genome.Keys = make([]float64, federation.MaxBatchBytes/8)
	if _, err := federation.AppendFrame(nil, &serve.MigrantBatch{Key: "k", Migrants: huge}); err == nil {
		t.Error("a frame past MaxBatchBytes was encoded")
	}

	node := streamNode(t, federation.Config{})
	valid, _ := federation.AppendFrame(nil, &serve.MigrantBatch{Key: "kept", Epoch: 0, From: 1,
		Migrants: []solver.Migrant{{Genome: solver.Genome{Seq: []int{0}}, Obj: 1}}})
	rejected, _ := federation.AppendFrame(nil, &serve.MigrantBatch{Key: "kept", Epoch: 0, From: 0})
	if err := node.ServeStream(bytes.NewReader(append(append([]byte{}, rejected...), valid...))); err != io.EOF {
		t.Errorf("stream of a rejected and a valid frame ended with %v, want io.EOF", err)
	}
	if got := node.PendingBatches("kept"); got != 1 {
		t.Errorf("%d batches delivered behind the rejected frame, want 1", got)
	}
	if got := node.Counters().FramesRejected; got != 1 {
		t.Errorf("FramesRejected %d, want 1 (a batch from this node's own rank)", got)
	}

	// A bad frame ends the stream before the valid frame behind it; a
	// frame cut off by the stream's end is an unexpected EOF.
	oversized := binary.BigEndian.AppendUint32(nil, federation.MaxBatchBytes+1)
	garbage := append(binary.BigEndian.AppendUint32(nil, 3), 9, 9, 9)
	for name, in := range map[string][]byte{
		"oversized": append(oversized, valid...),
		"garbage":   append(garbage, valid...),
		"truncated": valid[:len(valid)-1],
	} {
		err := node.ServeStream(bytes.NewReader(in))
		if err == nil || err == io.EOF {
			t.Errorf("%s frame: reader returned %v, want an error that closes the stream", name, err)
		}
	}
	if got := node.PendingBatches("kept"); got != 1 {
		t.Errorf("frames behind a bad frame were delivered: %d pending, want 1", got)
	}
}

// FuzzMigrantStream feeds arbitrary bytes to the inbound stream reader:
// it must never panic, and every frame it can decode must re-encode to a
// fixpoint of the codec.
func FuzzMigrantStream(f *testing.F) {
	var all []byte
	for _, b := range streamBatches() {
		frame, err := federation.AppendFrame(nil, b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		all = append(all, frame...)
	}
	f.Add(all)
	f.Add(binary.BigEndian.AppendUint32(nil, federation.MaxBatchBytes+1))
	f.Add(append(binary.BigEndian.AppendUint32(nil, 8), 1, 3, 1, 'k', 0, 0, 0xff, 0x7f))
	node := streamNode(f, federation.Config{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = node.ServeStream(bytes.NewReader(data))
		r := bytes.NewReader(data)
		for {
			b, err := federation.ReadFrame(r)
			if err != nil {
				return
			}
			once, err := federation.AppendFrame(nil, b)
			if err != nil {
				continue // e.g. a checkpoint JSON cannot carry (NaN)
			}
			back, err := federation.ReadFrame(bytes.NewReader(once))
			if err != nil {
				t.Fatalf("re-encoded frame does not decode: %v", err)
			}
			twice, err := federation.AppendFrame(nil, back)
			if err != nil || !bytes.Equal(once, twice) {
				t.Fatalf("frame codec is not a fixpoint: %v\n%x\n%x", err, once, twice)
			}
		}
	})
}

// TestFederatedHungPeer: a peer that accepts connections and never
// answers stalls a sender's epoch by at most PushTimeout. The barrier
// then degrades it at EpochTimeout, and later epochs send it nothing.
func TestFederatedHungPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held sync.WaitGroup
	var conns []net.Conn
	var connsMu sync.Mutex
	held.Add(1)
	go func() {
		defer held.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			connsMu.Lock()
			conns = append(conns, c)
			connsMu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		held.Wait()
		for _, c := range conns {
			c.Close()
		}
	})
	hung := "http://" + ln.Addr().String()
	const push, epochTimeout = 300 * time.Millisecond, 100 * time.Millisecond
	self := "http://127.0.0.1:1" // never dialled: a node dials only its peers
	node := streamNode(t, federation.Config{
		Self: self, Peers: []string{self, hung},
		PushTimeout: push, EpochTimeout: epochTimeout, MaxRetries: -1,
	})
	rank := node.Rank()
	key := "f" + strconv.Itoa(rank) + "-hung-1"
	node.ShardStarted(key, rank, 2, 0)
	out := []solver.Migrant{{Genome: solver.Genome{Seq: []int{0, 1}}, Obj: 3}}

	start := time.Now()
	rep := node.ExchangeMigrants(context.Background(), key, rank, 0, out, nil)
	elapsed := time.Since(start)
	c := node.Counters()
	stall := elapsed - time.Duration(c.BarrierWaitNS)
	if stall > push+100*time.Millisecond {
		t.Errorf("sending to a hung peer stalled the epoch %v, PushTimeout is %v", stall, push)
	}
	if len(rep.Degraded) != 1 || rep.Degraded[0] != hung {
		t.Errorf("barrier degraded %v, want the hung peer %s", rep.Degraded, hung)
	}
	if c.StreamFailures == 0 || c.MigrantsSent != 0 {
		t.Errorf("hung peer: counters %+v, want a stream failure and nothing sent", c)
	}

	start = time.Now()
	node.ExchangeMigrants(context.Background(), key, rank, 1, out, nil)
	node.ShardFinished(key, rank)
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("epoch after the degradation took %v; a degraded peer must not be sent to", d)
	}
}

// TestMigrantStreamRedialsAfterPeerClose: when a peer closes a stream
// between frames (it restarted, or it dropped the stream), the sender
// notices and its next frame goes out on a fresh dial instead of into
// the dead connection.
func TestMigrantStreamRedialsAfterPeerClose(t *testing.T) {
	var mu sync.Mutex
	var epochs []int
	dials := 0
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/federation/stream" {
			http.NotFound(w, r)
			return
		}
		conn, brw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			return
		}
		defer conn.Close()
		brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + serve.MigrantStreamProtocol + "\r\n\r\n")
		brw.Flush()
		mu.Lock()
		dials++
		mu.Unlock()
		// Read one frame, then drop the stream.
		if b, err := federation.ReadFrame(brw); err == nil {
			mu.Lock()
			epochs = append(epochs, b.Epoch)
			mu.Unlock()
		}
	}))
	t.Cleanup(peer.Close)

	ts := httptest.NewServer(http.NotFoundHandler())
	t.Cleanup(ts.Close)
	node := streamNode(t, federation.Config{
		Self: ts.URL, Peers: []string{ts.URL, peer.URL},
		PushTimeout: 2 * time.Second, EpochTimeout: 5 * time.Second, MaxRetries: -1,
	})
	rank, other := node.Rank(), 1-node.Rank()
	key := "f" + strconv.Itoa(rank) + "-redial-1"
	// The peer's side of the exchange arrives up front, so no barrier
	// waits on the fake peer.
	for e := 0; e < 2; e++ {
		frame, _ := federation.AppendFrame(nil, &serve.MigrantBatch{Key: key, Epoch: e, From: other,
			Migrants: []solver.Migrant{{Genome: solver.Genome{Seq: []int{1, 0}}, Obj: 2}}})
		if err := node.ServeStream(bytes.NewReader(frame)); err != io.EOF {
			t.Fatal(err)
		}
	}
	node.ShardStarted(key, rank, 2, 0)
	out := []solver.Migrant{{Genome: solver.Genome{Seq: []int{0, 1}}, Obj: 3}}
	node.ExchangeMigrants(context.Background(), key, rank, 0, out, nil)
	// The peer drops the stream after the first frame; the sender's
	// watcher counts it.
	waitFor(t, "the sender to notice the dropped stream", func() bool { return node.Counters().StreamFailures == 1 })
	rep := node.ExchangeMigrants(context.Background(), key, rank, 1, out, nil)
	if len(rep.Degraded) != 0 || len(rep.In) != 1 {
		t.Errorf("epoch 1 report %+v, want one migrant and no degradation", rep)
	}
	waitFor(t, "the second frame", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(epochs) == 2
	})
	mu.Lock()
	defer mu.Unlock()
	if dials != 2 || !reflect.DeepEqual(epochs, []int{0, 1}) {
		t.Errorf("peer saw %d streams carrying epochs %v, want 2 streams carrying [0 1]", dials, epochs)
	}
	if c := node.Counters(); c.MigrantsSent != 2 {
		t.Errorf("MigrantsSent %d, want 2", c.MigrantsSent)
	}
}

// TestOpenMigrantStreamRefused: a node that cannot take a stream answers
// with an API error, not an upgrade.
func TestOpenMigrantStreamRefused(t *testing.T) {
	fleet := newFleet(t, 2, federation.Config{})
	fleet[1].Node.Close()
	c := &client.Client{BaseURL: fleet[1].URL}
	_, err := c.OpenMigrantStream(context.Background())
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || !strings.Contains(apiErr.Message, "shutting down") {
		t.Errorf("stream to a closed node: %v, want a 503 shutting-down error", err)
	}
}

// TestShardStartedForeignOwner: a hand-submitted shard whose key names an
// owner rank outside the fleet ships no checkpoints, even with failover
// on — there is no owner node to ship them to.
func TestShardStartedForeignOwner(t *testing.T) {
	node := streamNode(t, federation.Config{FailoverEnabled: true})
	if node.ShardStarted("f9-x-1", 1-node.Rank(), 2, 0) {
		t.Error("a key owned by rank 9 of a 2-node fleet asked for checkpoints")
	}
	node.ShardFinished("f9-x-1", 1-node.Rank())
}
