package federation

// The migrant stream: every node keeps one long-lived, ordered byte
// stream to each peer it sends to, opened as POST /v1/federation/stream
// and upgraded (101 Switching Protocols) to serve.MigrantStreamProtocol.
// A shard writes its epoch batches, piggybacked checkpoints and final
// Done notice onto the stream from its own model goroutine, so they
// arrive in the order they were written; the receiving node runs one
// reader per inbound stream that delivers frames in that order. Nothing
// is acknowledged: the epoch barrier is the only wait.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/solver"
)

// Frame layout. Every frame on a migrant stream is
//
//	uint32 big-endian payload length, at most MaxBatchBytes
//	payload:
//	  version byte (1)
//	  flags byte: frameDone, frameCheckpoint
//	  uvarint len(Key), then Key
//	  zigzag varint Epoch, zigzag varint From
//	  uvarint migrant count, then per migrant: uvarint length of the
//	    genome's packed frame (solver.Genome.AppendBinary), the frame,
//	    and the objective as 8 little-endian IEEE-754 bytes
//	  with frameCheckpoint: the checkpoint's JSON, to the end
//
// Decoding bounds every count by the bytes left and rejects trailing
// bytes; genomes go through solver.Genome's own bounded decoder.
const (
	frameV1         = 1
	frameDone       = 1 << 0
	frameCheckpoint = 1 << 1
	// minMigrantBytes is the smallest decodable migrant: a one-byte
	// length, an empty genome frame (version and three zero counts) and
	// the objective.
	minMigrantBytes = 1 + 4 + 8
	// frameReadChunk is how far a frame's buffer grows ahead of the bytes
	// actually received, so a peer that announces a large frame and stalls
	// pins little memory.
	frameReadChunk = 64 << 10
)

var errFrameTooLarge = fmt.Errorf("federation: frame exceeds %d bytes", MaxBatchBytes)

// appendFrame appends b's frame, length prefix included, to dst.
func appendFrame(dst []byte, b *serve.MigrantBatch) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, frameV1, 0)
	var flags byte
	if b.Done {
		flags |= frameDone
	}
	if b.Checkpoint != nil {
		flags |= frameCheckpoint
	}
	dst[start+5] = flags
	dst = binary.AppendUvarint(dst, uint64(len(b.Key)))
	dst = append(dst, b.Key...)
	dst = binary.AppendVarint(dst, int64(b.Epoch))
	dst = binary.AppendVarint(dst, int64(b.From))
	dst = binary.AppendUvarint(dst, uint64(len(b.Migrants)))
	var gbuf [512]byte // fits an ft10-size genome frame
	for _, m := range b.Migrants {
		g, _ := m.Genome.AppendBinary(gbuf[:0])
		dst = binary.AppendUvarint(dst, uint64(len(g)))
		dst = append(dst, g...)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.Obj))
	}
	if b.Checkpoint != nil {
		raw, err := json.Marshal(b.Checkpoint)
		if err != nil {
			return dst[:start], err
		}
		dst = append(dst, raw...)
	}
	n := len(dst) - start - 4
	if n > MaxBatchBytes {
		return dst[:start], errFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// readFrame reads and decodes the next frame from r. buf is scratch for
// the payload, grown as needed and returned for reuse; the batch shares
// no memory with it.
func readFrame(r io.Reader, buf []byte) (*serve.MigrantBatch, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxBatchBytes {
		return nil, buf, fmt.Errorf("federation: frame of %d bytes exceeds the %d-byte cap", n, MaxBatchBytes)
	}
	buf = buf[:0]
	for len(buf) < n {
		chunk := min(n-len(buf), frameReadChunk)
		buf = slices.Grow(buf, chunk)
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+chunk]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, buf, err
		}
		buf = buf[:len(buf)+chunk]
	}
	b, err := decodeFrame(buf)
	return b, buf, err
}

// decodeFrame decodes one frame payload (the bytes after the length).
func decodeFrame(p []byte) (*serve.MigrantBatch, error) {
	if len(p) < 2 || p[0] != frameV1 {
		return nil, errors.New("federation: frame: unknown version")
	}
	flags := p[1]
	if flags&^(frameDone|frameCheckpoint) != 0 {
		return nil, fmt.Errorf("federation: frame: unknown flags %#x", flags)
	}
	p = p[2:]
	kl, k := binary.Uvarint(p)
	if k <= 0 || kl > uint64(len(p)-k) {
		return nil, errors.New("federation: frame: bad key length")
	}
	b := &serve.MigrantBatch{Key: string(p[k : k+int(kl)]), Done: flags&frameDone != 0}
	p = p[k+int(kl):]
	epoch, k := binary.Varint(p)
	if k <= 0 || int64(int(epoch)) != epoch {
		return nil, errors.New("federation: frame: bad epoch")
	}
	p = p[k:]
	from, k := binary.Varint(p)
	if k <= 0 || int64(int(from)) != from {
		return nil, errors.New("federation: frame: bad sender rank")
	}
	p = p[k:]
	b.Epoch, b.From = int(epoch), int(from)
	count, k := binary.Uvarint(p)
	if k <= 0 || count > uint64(len(p)-k)/minMigrantBytes {
		return nil, errors.New("federation: frame: bad migrant count")
	}
	p = p[k:]
	if count > 0 {
		b.Migrants = make([]solver.Migrant, count)
	}
	for i := range b.Migrants {
		gl, k := binary.Uvarint(p)
		if k <= 0 || gl > uint64(len(p)-k) || uint64(len(p)-k)-gl < 8 {
			return nil, fmt.Errorf("federation: frame: migrant %d: bad genome length", i)
		}
		p = p[k:]
		if err := b.Migrants[i].Genome.UnmarshalBinary(p[:gl]); err != nil {
			return nil, fmt.Errorf("federation: frame: migrant %d: %w", i, err)
		}
		b.Migrants[i].Obj = math.Float64frombits(binary.LittleEndian.Uint64(p[gl:]))
		p = p[gl+8:]
	}
	if flags&frameCheckpoint != 0 {
		b.Checkpoint = new(solver.Checkpoint)
		if err := json.Unmarshal(p, b.Checkpoint); err != nil {
			return nil, fmt.Errorf("federation: frame: checkpoint: %w", err)
		}
	} else if len(p) != 0 {
		return nil, fmt.Errorf("federation: frame: %d trailing bytes", len(p))
	}
	return b, nil
}

// peerStream is this node's ordered stream to one peer. mu serialises
// frames (a node's co-hosted shards share the stream) and is held across
// a dial, so frames never reorder around a reconnect.
type peerStream struct {
	n    *Node
	rank int

	mu    sync.Mutex
	conn  io.ReadWriteCloser // nil until dialled, and after a failure
	frame []byte             // encode scratch, reused
	up    atomic.Bool        // conn != nil, readable without mu
}

// send writes b to the peer on the caller's goroutine. The whole attempt
// — waiting for the stream, dialling, writing, and one re-send on a
// fresh dial after a failure — is bounded by PushTimeout, so a dead or
// hung peer never stalls the caller's epoch longer than that. It
// reports whether the frame was written.
func (s *peerStream) send(b *serve.MigrantBatch) bool {
	deadline := time.Now().Add(s.n.cfg.PushTimeout)
	s.mu.Lock()
	defer s.mu.Unlock()
	frame, err := appendFrame(s.frame[:0], b)
	if err == errFrameTooLarge && b.Checkpoint != nil {
		// A checkpoint too large for one frame costs this epoch's failover
		// coverage, never its migrants.
		s.n.logf("federation: %s/%d: checkpoint does not fit a %d-byte frame, sent without it", b.Key, b.Epoch, MaxBatchBytes)
		bare := *b
		bare.Checkpoint = nil
		frame, err = appendFrame(s.frame[:0], &bare)
	}
	s.frame = frame
	if err != nil {
		s.n.logf("federation: %s/%d to %s: %v", b.Key, b.Epoch, s.n.peers[s.rank], err)
		return false
	}
	for attempt := 0; attempt < 2; attempt++ {
		err = nil
		if s.conn == nil {
			err = s.dialLocked(deadline)
		}
		if err == nil {
			err = s.writeLocked(deadline)
		}
		if err == nil {
			return true
		}
		s.failLocked(err)
	}
	return false
}

// predial opens the stream ahead of the first frame, off the caller's
// goroutine, so a shard's first epoch pays no dial.
func (s *peerStream) predial() {
	if s.up.Load() || !s.n.addStreamer() {
		return
	}
	go func() {
		defer s.n.streamers.Done()
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.conn == nil {
			if err := s.dialLocked(time.Now().Add(s.n.cfg.PushTimeout)); err != nil {
				s.failLocked(err)
			}
		}
	}()
}

// dialLocked opens the stream, within deadline.
func (s *peerStream) dialLocked(deadline time.Time) error {
	if s.n.isClosed() {
		return errNodeClosed
	}
	if time.Until(deadline) <= 0 {
		return errors.New("push timeout spent before the dial")
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	conn, err := s.n.clients[s.rank].OpenMigrantStream(ctx)
	if err != nil {
		return err
	}
	if !s.n.track(conn) {
		conn.Close()
		return errNodeClosed
	}
	s.conn = conn
	s.up.Store(true)
	go s.watch(conn) // the connection's owner: untracks it on exit
	return nil
}

// watch reads the outbound stream, on which the peer never writes: the
// read returns only once the stream is gone (the peer closed it or
// restarted, or Close severed it). The stream is dropped at once, so the
// next frame redials instead of vanishing into a dead connection.
func (s *peerStream) watch(conn io.ReadWriteCloser) {
	defer s.n.untrack(conn)
	var b [1]byte
	_, err := conn.Read(b[:])
	conn.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn != conn || s.n.isClosed() {
		return
	}
	if err == nil {
		err = errors.New("peer wrote on a one-way stream")
	}
	s.failLocked(fmt.Errorf("stream ended: %w", err))
}

// writeLocked writes the encoded frame, closing the stream if the write
// is still blocked at deadline (the 101 response body exposes no write
// deadline of its own).
func (s *peerStream) writeLocked(deadline time.Time) error {
	d := time.Until(deadline)
	if d <= 0 {
		return errors.New("push timeout spent before the write")
	}
	conn := s.conn
	t := time.AfterFunc(d, func() { conn.Close() })
	_, err := conn.Write(s.frame)
	if !t.Stop() && err == nil {
		err = errors.New("write timed out")
	}
	return err
}

// failLocked closes the stream after a failed dial or write, and counts
// and logs the failure. The stream's watcher then untracks it.
func (s *peerStream) failLocked(err error) {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
		s.up.Store(false)
	}
	s.n.streamFailures.Add(1)
	s.n.logf("federation: stream to %s: %v", s.n.peers[s.rank], err)
}

var errNodeClosed = errors.New("federation: node closed")

// track registers a live stream connection, inbound or outbound, for
// Close, and counts the goroutine that owns it (the inbound reader, the
// outbound watcher), which calls untrack once, on its way out. It
// refuses (false) once the node is closed.
func (n *Node) track(c io.Closer) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.conns[c] = struct{}{}
	n.streamers.Add(1)
	return true
}

// addStreamer counts one more stream goroutine for Close to wait for;
// false once the node is closed.
func (n *Node) addStreamer() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.closed {
		n.streamers.Add(1)
	}
	return !n.closed
}

func (n *Node) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

func (n *Node) untrack(c io.Closer) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
	n.streamers.Done()
}

// Close severs every migrant stream, inbound and outbound, refuses new
// ones (inbound stream requests get 503, sends fail at once) and returns
// once every stream goroutine has exited; a dial in flight ends within
// PushTimeout. The serve.Server calls it at the end of Drain, after the
// jobs (and their final Done frames) are finished.
func (n *Node) Close() {
	n.mu.Lock()
	n.closed = true
	conns := make([]io.Closer, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	n.streamers.Wait()
}

// handleStream: POST /v1/federation/stream — a peer opens its ordered
// migrant stream to this node. The connection is hijacked, answered 101,
// and read here, on the request's goroutine, until it closes.
func (n *Node) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Upgrade") != serve.MigrantStreamProtocol {
		serve.WriteError(w, http.StatusBadRequest, errors.New("federation: the stream needs Upgrade: "+serve.MigrantStreamProtocol))
		return
	}
	if n.isClosed() {
		serve.WriteError(w, http.StatusServiceUnavailable, errors.New("federation: node is shutting down"))
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		serve.WriteError(w, http.StatusInternalServerError, errors.New("federation: connection cannot be upgraded"))
		return
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		return
	}
	defer conn.Close()
	if !n.track(conn) {
		return
	}
	defer n.untrack(conn)
	_ = conn.SetDeadline(time.Time{})
	_, _ = brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + serve.MigrantStreamProtocol + "\r\n\r\n")
	if err := brw.Flush(); err != nil {
		return
	}
	if err := n.serveStream(brw.Reader); err != nil && err != io.EOF && !errors.Is(err, net.ErrClosed) {
		n.logf("federation: inbound stream from %s closed: %v", r.RemoteAddr, err)
	}
}

// serveStream delivers r's frames in order until the stream ends or a
// frame is oversized or unparseable (its error is returned; the caller
// closes the stream). A frame that parses but fails checkBatch is
// dropped and counted, and the stream goes on.
func (n *Node) serveStream(r io.Reader) error {
	var buf []byte
	logged := false
	for {
		b, nb, err := readFrame(r, buf)
		buf = nb
		if err != nil {
			return err
		}
		if err := n.checkBatch(b); err != nil {
			n.framesRejected.Add(1)
			if !logged {
				logged = true
				n.logf("%v (frame dropped; counted in frames_rejected, logged once per stream)", err)
			}
			continue
		}
		n.deliver(b)
	}
}
