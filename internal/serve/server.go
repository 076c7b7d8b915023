package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/jobstore"
	"repro/internal/shop"
	"repro/internal/solver"
)

// Config parameterises a Server. The zero value serves with defaults.
type Config struct {
	// MaxConcurrent bounds jobs running at once (default GOMAXPROCS).
	MaxConcurrent int
	// MaxActive bounds pending+running jobs; submissions beyond it get
	// 429 (default 256, <0 disables).
	MaxActive int
	// MaxWallMillis is the per-job deadline: specs without a wall budget
	// get it, specs asking for more are capped (default 120000, <0
	// disables). It bounds how long one request can hold a worker slot.
	MaxWallMillis int64
	// MaxRetained bounds the finished jobs kept for status queries; the
	// oldest terminal jobs are pruned beyond it (default 1024).
	MaxRetained int
	// MaxBodyBytes bounds the submit request body (default 1 MiB).
	MaxBodyBytes int64

	// Store, when non-nil, makes jobs durable: every job's record is
	// persisted at submission and on completion, checkpointable models
	// snapshot their state every CheckpointEvery generations, and New
	// replays the store — terminal jobs are served from disk, in-flight
	// jobs are re-submitted (warm from their last checkpoint when the
	// model supports it, cold otherwise) with the wall budget they had
	// left. Store write failures degrade durability, never availability:
	// they are logged via Logf and the job keeps running.
	Store jobstore.Store
	// CheckpointEvery is the snapshot cadence in generations for durable
	// jobs (default 20; <0 disables checkpointing, leaving record-only
	// durability).
	CheckpointEvery int
	// EventHistory bounds each job's SSE replay ring (default 256); it is
	// reported per job as JobInfo.ReplayRing.
	EventHistory int
	// Logf receives durability and recovery diagnostics (default: silent).
	Logf func(format string, args ...any)
}

// Server is the HTTP layer over a solver.Service. Create with New, mount
// Handler, and call Drain on shutdown.
type Server struct {
	cfg   Config
	svc   *solver.Service
	store jobstore.Store
	stop  chan struct{} // closed by Drain: unblocks event streams

	// fed, when set (SetFederation), routes Params.Federate submissions
	// through the federation layer and extends /v1/stats with its
	// counters. Nil means no fleet: Federate specs run locally — the
	// degenerate federation of one node.
	fed Federation

	// watchers tracks the per-job goroutines writing terminal records;
	// Drain flushes them so the store is consistent before exit.
	watchers sync.WaitGroup
	stopOnce sync.Once

	// idem maps client idempotency keys to job IDs. The lock is held
	// across the lookup AND the submit, so concurrent retries of the same
	// keyed request cannot race into duplicate jobs.
	idemMu sync.Mutex
	idem   map[string]string

	// window is the event streams' flush window (sseWindow; tests
	// lengthen it), and wakeHook, when set by a test, observes each
	// wake-up of a stream's writer with its cause.
	window   time.Duration
	wakeHook func(cause string)
}

// New builds a Server and its backing Service. With a configured Store it
// also replays persisted jobs (see Config.Store); an unreadable store is
// the only error.
func New(cfg Config) (*Server, error) {
	if cfg.MaxActive == 0 {
		cfg.MaxActive = 256
	}
	if cfg.MaxActive < 0 {
		cfg.MaxActive = 0
	}
	if cfg.MaxWallMillis == 0 {
		cfg.MaxWallMillis = 120_000
	}
	if cfg.MaxRetained <= 0 {
		cfg.MaxRetained = 1024
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 20
	}
	if cfg.EventHistory <= 0 {
		cfg.EventHistory = 256
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:    cfg,
		store:  cfg.Store,
		stop:   make(chan struct{}),
		idem:   map[string]string{},
		window: sseWindow,
	}
	s.svc = &solver.Service{
		MaxConcurrent: cfg.MaxConcurrent,
		MaxActive:     cfg.MaxActive,
		EventHistory:  cfg.EventHistory,
	}
	if s.store != nil && cfg.CheckpointEvery > 0 {
		s.svc.CheckpointEvery = cfg.CheckpointEvery
		s.svc.OnCheckpoint = s.persistCheckpoint
	}
	if s.store != nil {
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Service exposes the backing job service (tests, embedding).
func (s *Server) Service() *solver.Service { return s.svc }

// SetFederation registers the federation layer (see Federation). Call
// before serving traffic; a nil hook leaves Federate specs running
// locally.
func (s *Server) SetFederation(f Federation) { s.fed = f }

// Drain gracefully stops the server's job service: no new submissions,
// in-flight jobs run to completion until ctx expires, then they are
// cancelled and collected promptly. Event streams observe the terminal
// events and end, every terminal record reaches the store, and a
// registered federation closes its peer streams. Safe to call more than
// once.
func (s *Server) Drain(ctx context.Context) error {
	err := s.svc.Drain(ctx)
	if s.fed != nil {
		s.fed.Close()
	}
	s.watchers.Wait()
	s.stopOnce.Do(func() { close(s.stop) })
	return err
}

// persistCheckpoint is the Service's OnCheckpoint sink: frame the snapshot
// and append it to the job's checkpoint log.
func (s *Server) persistCheckpoint(jobID string, cp *solver.Checkpoint) {
	data, err := json.Marshal(cp)
	if err != nil {
		s.cfg.Logf("job %s: checkpoint marshal: %v", jobID, err)
		return
	}
	if err := s.store.AppendCheckpoint(jobID, data); err != nil {
		s.cfg.Logf("job %s: checkpoint append: %v", jobID, err)
	}
}

// track persists the job's submission record and watches it to a terminal
// state, at which point the record is rewritten with the outcome.
func (s *Server) track(job *solver.Job, idemKey string) {
	if s.store == nil {
		return
	}
	if err := s.store.PutRecord(s.record(job, idemKey)); err != nil {
		s.cfg.Logf("job %s: record write: %v", job.ID(), err)
	}
	s.watchers.Add(1)
	go func() {
		defer s.watchers.Done()
		<-job.Done()
		if err := s.store.PutRecord(s.record(job, idemKey)); err != nil {
			s.cfg.Logf("job %s: terminal record write: %v", job.ID(), err)
		}
	}()
}

// record assembles the job's persisted form from its live state.
func (s *Server) record(job *solver.Job, idemKey string) *jobstore.Record {
	st := job.Status()
	rec := &jobstore.Record{
		ID:             job.ID(),
		Spec:           job.Spec(),
		State:          st.State,
		IdempotencyKey: idemKey,
		Submitted:      st.Submitted,
		Started:        st.Started,
		Finished:       st.Finished,
		Error:          st.Error,
	}
	if res, _ := job.Result(); res != nil {
		rec.Result = res
	}
	return rec
}

// recover replays the store into the fresh service: terminal jobs become
// served-from-disk history, in-flight jobs are re-submitted with the spec
// they were submitted with. A job whose model supports checkpointing
// resumes warm from its newest intact checkpoint (the solver grants it
// only the wall budget left at that checkpoint, so a crash-restart loop
// can never extend a job's deadline); anything wrong with the checkpoint
// (quarantined by the store's checksum, or rejected by semantic
// validation) downgrades to a cold start rather than losing the job.
func (s *Server) recover() error {
	recs, err := s.store.ListRecords()
	if err != nil {
		return fmt.Errorf("serve: recovering job store: %w", err)
	}
	for _, rec := range recs {
		if rec.State.Terminal() {
			if _, err := s.svc.RestoreTerminal(rec.ID, rec.Spec, rec.State, rec.Result, rec.Error, rec.Submitted, rec.Started, rec.Finished); err != nil {
				s.cfg.Logf("job %s: terminal restore: %v", rec.ID, err)
				continue
			}
			if rec.IdempotencyKey != "" {
				s.idem[rec.IdempotencyKey] = rec.ID
			}
			continue
		}
		resume := s.loadResume(rec)
		job, err := s.svc.SubmitOpts(context.Background(), rec.Spec, solver.SubmitOptions{
			ID: rec.ID, Resume: resume, Submitted: rec.Submitted,
		})
		if err != nil && resume != nil {
			s.cfg.Logf("job %s: warm resubmit failed (%v), cold start", rec.ID, err)
			resume = nil
			job, err = s.svc.SubmitOpts(context.Background(), rec.Spec, solver.SubmitOptions{
				ID: rec.ID, Submitted: rec.Submitted,
			})
		}
		if err != nil {
			s.cfg.Logf("job %s: resubmit failed: %v", rec.ID, err)
			continue
		}
		if resume != nil {
			s.cfg.Logf("resumed job %s from generation %d", rec.ID, resume.Generation)
		} else {
			s.cfg.Logf("restarted job %s cold", rec.ID)
		}
		if rec.IdempotencyKey != "" {
			s.idem[rec.IdempotencyKey] = rec.ID
		}
		s.track(job, rec.IdempotencyKey)
	}
	return nil
}

// loadResume fetches and validates the job's newest checkpoint; nil means
// cold start. The store's checksum already quarantined torn and corrupt
// frames; semantic validation catches checksum-clean damage.
func (s *Server) loadResume(rec *jobstore.Record) *solver.Checkpoint {
	if !solver.SupportsCheckpoint(rec.Spec.Model) {
		return nil
	}
	data, err := s.store.LoadCheckpoint(rec.ID)
	if err != nil {
		if !errors.Is(err, jobstore.ErrNoCheckpoint) {
			s.cfg.Logf("job %s: checkpoint load: %v", rec.ID, err)
		}
		return nil
	}
	var cp solver.Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		s.cfg.Logf("job %s: checkpoint decode: %v, cold start", rec.ID, err)
		return nil
	}
	if err := solver.ValidateCheckpoint(rec.Spec, &cp); err != nil {
		s.cfg.Logf("job %s: checkpoint invalid: %v, cold start", rec.ID, err)
		return nil
	}
	return &cp
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /v1/instances", s.handleInstances)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// WriteJSON writes a JSON response with the given status; the daemon's
// and the federation node's handlers all reply through it.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError maps an error onto a status and the standard error body; a
// *solver.ValidationError anywhere in err's chain also fills Fields. The
// federation endpoints answer through it too, so every 400 for a broken
// spec carries the same body.
func WriteError(w http.ResponseWriter, status int, err error) {
	body := ErrorBody{Error: err.Error()}
	var verr *solver.ValidationError
	if errors.As(err, &verr) {
		body.Fields = verr.Fields
	}
	WriteJSON(w, status, body)
}

// jobInfo assembles the wire form of a job.
func (s *Server) jobInfo(j *solver.Job) JobInfo {
	info := JobInfo{JobStatus: j.Status(), Spec: j.Spec(), ReplayRing: s.cfg.EventHistory}
	if res, _ := j.Result(); res != nil {
		info.Result = res
	}
	return info
}

// ValidateSpec is the gate for every spec that arrives over the network:
// Spec.Validate plus the rule that problem.instance names a registry
// benchmark. The library's file-path fallback must not be reachable from
// the network: it would let any client read (and fingerprint) arbitrary
// server files, and a typo'd registry name would surface as a confusing
// asynchronous job failure instead of a 400. Every field error comes back
// in one *solver.ValidationError.
func ValidateSpec(spec solver.Spec) error {
	var fields []solver.FieldError
	if inst := spec.Problem.Instance; inst != "" {
		if _, ok := shop.LookupBenchmark(inst); !ok {
			fields = append(fields, solver.FieldError{
				Path: "problem.instance",
				Msg:  fmt.Sprintf("unknown instance %q: the server resolves registry names only (see GET /v1/instances)", inst),
			})
		}
	}
	if err := spec.Validate(); err != nil {
		var verr *solver.ValidationError
		if !errors.As(err, &verr) {
			return err
		}
		fields = append(fields, verr.Fields...)
	}
	if len(fields) > 0 {
		return &solver.ValidationError{Fields: fields}
	}
	return nil
}

// handleSubmit: POST /v1/jobs — decode, cap the wall budget, submit,
// prune old history, 201 with the job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec solver.Spec
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("parsing spec: %w", err))
		return
	}
	if err := ValidateSpec(spec); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	// Per-job deadline: every job gets a wall budget no larger than the
	// server's cap, so no request can hold a worker slot indefinitely.
	// A spec with no budget at all keeps the library's generation default
	// instead of silently inheriting a full cap-length run (the solver
	// treats a wall-only budget as effectively unbounded generations).
	if wallCap := s.cfg.MaxWallMillis; wallCap > 0 {
		b := &spec.Budget
		if b.Generations <= 0 && b.Evaluations <= 0 && b.Stagnation <= 0 &&
			!b.TargetSet && b.WallMillis <= 0 {
			b.Generations = solver.DefaultGenerations
		}
		if b.WallMillis <= 0 || b.WallMillis > wallCap {
			b.WallMillis = wallCap
		}
	}
	// Jobs outlive the submit request: they run under the service's
	// lifetime, not the HTTP request context.
	idemKey := r.Header.Get("Idempotency-Key")
	job, existed, err := s.submitKeyed(spec, idemKey)
	switch {
	case err == nil:
	case errors.Is(err, solver.ErrDraining):
		WriteError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, solver.ErrBusy):
		WriteError(w, http.StatusTooManyRequests, err)
		return
	default:
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID())
	if existed {
		// Idempotent replay of an already-accepted submit: same job, 200.
		WriteJSON(w, http.StatusOK, s.jobInfo(job))
		return
	}
	s.track(job, idemKey)
	s.prune()
	WriteJSON(w, http.StatusCreated, s.jobInfo(job))
}

// submitKeyed submits the spec, deduplicating on the client's idempotency
// key: a key already mapped to a live job returns that job (existed=true)
// instead of starting a second run. The lock is held through the submit so
// two concurrent retries of the same keyed request cannot both miss the
// map.
func (s *Server) submitKeyed(spec solver.Spec, key string) (job *solver.Job, existed bool, err error) {
	// A Federate spec routes through the federation layer when one is
	// registered; without a fleet it runs as a plain local job (the
	// degenerate federation of one node).
	submit := func() (*solver.Job, error) {
		if spec.Params.Federate && s.fed != nil {
			return s.fed.SubmitFederated(context.Background(), spec)
		}
		return s.svc.Submit(context.Background(), spec)
	}
	if key == "" {
		job, err = submit()
		return job, false, err
	}
	s.idemMu.Lock()
	defer s.idemMu.Unlock()
	if id, seen := s.idem[key]; seen {
		if job, ok := s.svc.Get(id); ok {
			return job, true, nil
		}
		// The deduped job was pruned; the key is free again.
		delete(s.idem, key)
	}
	job, err = submit()
	if err == nil {
		s.idem[key] = job.ID()
	}
	return job, false, err
}

// prune drops the oldest terminal jobs beyond the retention bound —
// including their persisted records and idempotency mappings, so the
// store cannot grow without bound and a restart cannot resurrect jobs the
// server already forgot.
func (s *Server) prune() {
	jobs := s.svc.Jobs()
	excess := len(jobs) - s.cfg.MaxRetained
	for _, j := range jobs {
		if excess <= 0 {
			return
		}
		if s.svc.Remove(j.ID()) {
			excess--
			if s.store != nil {
				if err := s.store.Delete(j.ID()); err != nil {
					s.cfg.Logf("job %s: store delete: %v", j.ID(), err)
				}
			}
			s.idemMu.Lock()
			for key, id := range s.idem {
				if id == j.ID() {
					delete(s.idem, key)
				}
			}
			s.idemMu.Unlock()
		}
	}
}

// handleList: GET /v1/jobs.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.svc.Jobs()
	out := JobList{Jobs: make([]JobInfo, 0, len(jobs))}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, s.jobInfo(j))
	}
	WriteJSON(w, http.StatusOK, out)
}

// lookup resolves the {id} path value or 404s.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*solver.Job, bool) {
	id := r.PathValue("id")
	job, ok := s.svc.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
	}
	return job, ok
}

// handleGet: GET /v1/jobs/{id}.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.lookup(w, r); ok {
		WriteJSON(w, http.StatusOK, s.jobInfo(job))
	}
}

// handleCancel: DELETE /v1/jobs/{id} — request cancellation and return
// the current snapshot (the job reaches its terminal state at the next
// generation boundary; poll or stream to observe it).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(w, r)
	if !ok {
		return
	}
	job.Cancel()
	WriteJSON(w, http.StatusAccepted, s.jobInfo(job))
}

// sseWindow bounds how long a progress frame may wait in an event
// stream's buffer before it is flushed. Flushing is the costly part of a
// frame (a write syscall that also wakes the reader), so frames produced
// within one window share one flush; and while a window is open the
// writer does not wake for progress at all, so emitting one costs the
// job a buffered channel send instead of a hand-off to a parked
// goroutine.
const sseWindow = 5 * time.Millisecond

// handleEvents: GET /v1/jobs/{id}/events — the job's typed event stream
// as Server-Sent Events. Each frame is `event: <type>` + `id: <seq>` +
// `data: <Event JSON>`; the stream ends after the done event, when the
// client disconnects, or at server drain. A reconnecting client sends the
// standard Last-Event-ID header with the last sequence it saw, and the
// replay skips everything at or below it — except the terminal done event,
// which is always delivered so a resumed stream still observes closure.
//
// Only the transport batches. One receive loop renders every frame into
// one reused buffer. An event that arrives while no window is open is
// rendered with whatever else is queued and flushed at once when the done
// event is in it or the last flush is at least the window old (so a lone
// event after a quiet spell is never held); otherwise it opens a window:
// one reused timer flushes at the last flush + window. While the window is
// open the writer waits only on that timer, the job's end (it then writes
// the queued frames through the done event and flushes at once), the
// request, the drain stop and the subscription's bell, which rings when
// the subscription passes half its capacity so a burst is drained before
// it could drop a frame. Progress frames thus arrive at most one window
// late, possibly several per network write, with the same bytes, ids and
// order.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, errors.New("streaming unsupported by connection"))
		return
	}
	st := sseStream{w: w, fl: fl, lastSeen: -1}
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			st.lastSeen = n
		}
	}
	st.enc = json.NewEncoder(&st.buf)
	// Subscribe before the headers go out, so a client that has the
	// response in hand is already receiving live events.
	events, bell := job.EventsBell()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	st.last = time.Now()
	timer := time.NewTimer(s.window)
	timer.Stop()
	defer timer.Stop()
	armed := false
	for {
		// With a window open, progress waits on the subscription and
		// wakes nobody: only the timer, the job's end or the bell do.
		var recv <-chan solver.Event
		var tick <-chan time.Time
		var ended, ring <-chan struct{}
		if armed {
			tick, ended, ring = timer.C, job.Done(), bell
		} else {
			recv = events
		}
		open := true
		select {
		case <-r.Context().Done():
			return
		case <-s.stop:
			// Drain closes stop only after every job is terminal, so the
			// subscriber channel already holds the remaining events up to
			// the done: write them out so the stream ends with it.
			s.woke("stop")
			st.drain(events)
			open = false
		case <-ended:
			// Likewise: the closed subscription holds every event up to
			// the done; write them out and flush now.
			s.woke("done")
			open = st.drain(events)
		case <-ring:
			s.woke("bell")
			if st.drain(events) {
				continue
			}
			open = false
		case <-tick:
			s.woke("timer")
			armed = false
			open = st.drain(events)
		case ev, ok := <-recv:
			s.woke("event")
			open = ok && st.add(ev) && st.drain(events)
			if open && time.Since(st.last) < s.window {
				timer.Reset(time.Until(st.last.Add(s.window)))
				armed = true
				continue
			}
		}
		if err := st.flush(); err != nil || !open {
			return
		}
		if armed {
			timer.Stop()
			armed = false
		}
	}
}

// woke reports one wake-up of a stream writer to the test hook, if set.
func (s *Server) woke(cause string) {
	if s.wakeHook != nil {
		s.wakeHook(cause)
	}
}

// sseStream is one event subscription's SSE writer: frames are rendered
// into buf and reach the connection only at flush.
type sseStream struct {
	w        http.ResponseWriter
	fl       http.Flusher
	lastSeen int64 // Last-Event-ID: progress at or below it is skipped
	buf      bytes.Buffer
	enc      *json.Encoder // writes into buf
	ev       solver.Event  // the frame being encoded, kept here so it is not boxed per frame
	last     time.Time     // last flush
}

// add renders ev's frame into the buffer (unless the client saw it
// already) and reports whether the stream goes on: false after the done
// event, or when the event does not encode.
func (st *sseStream) add(ev solver.Event) bool {
	if ev.Seq <= st.lastSeen && ev.Type != solver.EventDone {
		return true
	}
	mark := st.buf.Len()
	st.buf.WriteString("event: ")
	st.buf.WriteString(string(ev.Type))
	st.buf.WriteString("\nid: ")
	st.buf.Write(strconv.AppendInt(st.buf.AvailableBuffer(), ev.Seq, 10))
	st.buf.WriteString("\ndata: ")
	// Encode is json.Marshal plus a newline, which ends the data line.
	st.ev = ev
	if err := st.enc.Encode(&st.ev); err != nil {
		st.buf.Truncate(mark)
		return false
	}
	st.buf.WriteByte('\n')
	return ev.Type != solver.EventDone
}

// drain renders every event already queued on the subscription without
// blocking, and reports whether the stream goes on (see add); a closed
// subscription ends it.
func (st *sseStream) drain(events <-chan solver.Event) bool {
	for {
		select {
		case ev, ok := <-events:
			if !ok || !st.add(ev) {
				return false
			}
		default:
			return true
		}
	}
}

// flush writes the buffered frames to the connection and flushes it.
func (st *sseStream) flush() error {
	if st.buf.Len() == 0 {
		return nil
	}
	_, err := st.w.Write(st.buf.Bytes())
	st.buf.Reset()
	st.fl.Flush()
	st.last = time.Now()
	return err
}

// handleModels: GET /v1/models.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	names := solver.Names()
	out := make([]ModelInfo, 0, len(names))
	for _, n := range names {
		out = append(out, ModelInfo{Name: n})
	}
	WriteJSON(w, http.StatusOK, out)
}

// handleInstances: GET /v1/instances.
func (s *Server) handleInstances(w http.ResponseWriter, r *http.Request) {
	bs := shop.Benchmarks()
	out := make([]InstanceInfo, 0, len(bs))
	for _, b := range bs {
		out = append(out, InstanceInfo{
			Name:      b.Name,
			Kind:      b.Kind.String(),
			Jobs:      b.Jobs,
			Machines:  b.Machines,
			BestKnown: b.BestKnown,
			Optimal:   b.Optimal,
			Note:      b.Note,
		})
	}
	WriteJSON(w, http.StatusOK, out)
}

// handleHealth: GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	jobs := s.svc.Jobs()
	active := 0
	for _, j := range jobs {
		if !j.Status().State.Terminal() {
			active++
		}
	}
	WriteJSON(w, http.StatusOK, Health{Status: "ok", Jobs: len(jobs), Active: active})
}
