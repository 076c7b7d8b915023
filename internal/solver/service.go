package solver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// JobState is the lifecycle state of a submitted job.
type JobState string

const (
	// JobPending: accepted, waiting for a concurrency slot.
	JobPending JobState = "pending"
	// JobRunning: the model is executing.
	JobRunning JobState = "running"
	// JobDone: finished under its own budgets; Result is set.
	JobDone JobState = "done"
	// JobCanceled: stopped by Cancel or a cancelled submit context. When
	// the run was already in flight a partial Result (Canceled=true) is
	// still set; a job cancelled before it started has none and Err
	// carries the context error.
	JobCanceled JobState = "canceled"
	// JobFailed: the solve returned an error; Err is set.
	JobFailed JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobCanceled || s == JobFailed
}

// JobStatus is a point-in-time snapshot of a job, safe to marshal.
type JobStatus struct {
	ID            string    `json:"id"`
	State         JobState  `json:"state"`
	Generation    int       `json:"generation,omitempty"`
	Evaluations   int64     `json:"evaluations,omitempty"`
	BestObjective float64   `json:"best_objective,omitempty"`
	Submitted     time.Time `json:"submitted,omitzero"`
	Started       time.Time `json:"started,omitzero"`
	Finished      time.Time `json:"finished,omitzero"`
	Error         string    `json:"error,omitempty"`
}

var (
	// ErrDraining rejects submissions after Drain or Close began.
	ErrDraining = errors.New("solver: service is draining")
	// ErrBusy rejects submissions over the service's MaxActive bound.
	ErrBusy = errors.New("solver: service at capacity")
)

// Service runs Specs as observable, cancellable jobs on a bounded worker
// pool — the serving shape of the solver. Submit returns immediately with
// a Job; the job's progress streams through Job.Events, its outcome
// through Job.Await. The zero value is ready to use.
type Service struct {
	// MaxConcurrent bounds the number of jobs running at once (default
	// GOMAXPROCS). Pending jobs queue in submission order (FIFO per slot
	// release is approximate: slots go to whichever pending job the
	// runtime wakes first).
	MaxConcurrent int
	// MaxActive, when > 0, bounds the pending+running jobs; Submit returns
	// ErrBusy beyond it. Terminal jobs never count.
	MaxActive int
	// EventBuffer is the per-subscription channel capacity (default 256).
	// A subscriber that falls behind loses oldest events first; the done
	// event is never dropped.
	EventBuffer int
	// EventHistory is the per-job replay ring (default 256): every new
	// subscription first receives the job's retained past events, so a
	// subscriber that arrives after a fast job finished still observes its
	// progress. Long runs age their oldest events out of the ring.
	EventHistory int

	// CheckpointEvery and OnCheckpoint wire the durability seam: with both
	// set, every job whose model supports checkpointing (SupportsCheckpoint)
	// snapshots its engine every CheckpointEvery generations and hands the
	// snapshot — stamped with the job's event sequence — to OnCheckpoint,
	// synchronously from the run loop. OnCheckpoint implementations persist
	// it (the daemon appends to its job store) and must not block long.
	CheckpointEvery int
	OnCheckpoint    func(jobID string, cp *Checkpoint)

	// Exchange, when set, is the federation seam threaded into every run:
	// island shard jobs (Params.FedKey set) ship elites through it at each
	// migration epoch. Jobs without shard coordinates never touch it.
	Exchange MigrantExchange

	mu       sync.Mutex
	init     bool
	sem      chan struct{}
	jobs     map[string]*Job
	order    []*Job
	seq      int64
	active   int
	draining bool
	started  time.Time

	// Monotonic service counters for the stats endpoint: evaluations
	// observed across all jobs (updated by deltas as jobs progress and
	// finish, so pruning a job never decreases it) and replay-ring
	// evictions. Atomics: jobs bump them under their own locks, not s.mu.
	totalEvals atomic.Int64
	ringDrops  atomic.Int64

	// noEvents drops the per-generation progress plumbing entirely: runs
	// solve with a nil event sink, so the engines keep their no-observer
	// fast path (no per-generation stats or locking). Pool sets it — its
	// jobs are private, nothing can subscribe to them. Jobs still record
	// their started/done lifecycle events.
	noEvents bool
}

// NewService returns a Service bounded to maxConcurrent running jobs
// (<= 0: GOMAXPROCS).
func NewService(maxConcurrent int) *Service {
	return &Service{MaxConcurrent: maxConcurrent}
}

// initLocked lazily initialises the zero value; callers hold s.mu.
func (s *Service) initLocked() {
	if s.init {
		return
	}
	workers := s.MaxConcurrent
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s.sem = make(chan struct{}, workers)
	s.jobs = make(map[string]*Job)
	s.started = time.Now()
	s.init = true
}

// Submit validates the spec and enqueues it as a new job. The returned
// job is already scheduled: it starts as soon as a concurrency slot is
// free. Cancelling ctx cancels the job (pass context.Background() to
// detach the job's lifetime from the submission context).
func (s *Service) Submit(ctx context.Context, spec Spec) (*Job, error) {
	return s.SubmitOpts(ctx, spec, SubmitOptions{})
}

// SubmitOptions are the recovery-oriented extras of SubmitOpts; the zero
// value makes SubmitOpts identical to Submit.
type SubmitOptions struct {
	// ID requests a specific job ID instead of a generated one, so a
	// daemon re-submitting persisted jobs after a restart keeps their
	// published identities. An ID already in use is an error.
	ID string
	// Resume warm-starts the job from a checkpoint (the model must support
	// checkpointing; see SupportsCheckpoint). The job's event numbering
	// continues from the checkpoint's EventSeq, and the run gets what the
	// checkpoint's ElapsedMS left of the spec's wall budget; the job's
	// spec keeps the submitted budget.
	Resume *Checkpoint
	// Submitted backdates the job's submission time to the original one
	// (zero: now).
	Submitted time.Time
}

// SubmitOpts is Submit with recovery options.
func (s *Service) SubmitOpts(ctx context.Context, spec Spec, opts SubmitOptions) (*Job, error) {
	return s.submit(ctx, spec, opts, nil)
}

// SubmitRunner enqueues a job whose body is the supplied runner instead of
// a model solve. The runner executes under the job's context with the
// job's event sink (nil when the service suppresses events), and its
// outcome finishes the job exactly like a solve would — status, events,
// cancellation and Await all behave identically. Runner jobs do not
// occupy a worker slot: they are expected to orchestrate other jobs, not
// compute, and holding a slot while waiting on a job that needs one would
// deadlock a single-slot service. The federation layer uses it for the
// owner job that fans a federated spec out across the fleet and reduces
// the shard results.
func (s *Service) SubmitRunner(ctx context.Context, spec Spec, runner func(ctx context.Context, emit func(Event)) (*Result, error)) (*Job, error) {
	if runner == nil {
		return nil, fmt.Errorf("solver: SubmitRunner requires a runner")
	}
	return s.submit(ctx, spec, SubmitOptions{}, runner)
}

// submit is the shared body of SubmitOpts and SubmitRunner.
func (s *Service) submit(ctx context.Context, spec Spec, opts SubmitOptions, runner func(ctx context.Context, emit func(Event)) (*Result, error)) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Resume != nil && !SupportsCheckpoint(spec.Model) {
		return nil, fmt.Errorf("solver: model %q cannot resume from a checkpoint", spec.Model)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	s.initLocked()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if s.MaxActive > 0 && s.active >= s.MaxActive {
		s.mu.Unlock()
		return nil, ErrBusy
	}
	id := opts.ID
	if id == "" {
		// Generated IDs skip over explicit ones a recovery already took.
		for {
			s.seq++
			id = fmt.Sprintf("j%06d", s.seq)
			if _, taken := s.jobs[id]; !taken {
				break
			}
		}
	} else if _, taken := s.jobs[id]; taken {
		s.mu.Unlock()
		return nil, fmt.Errorf("solver: job ID %q already in use", id)
	}
	submitted := opts.Submitted
	if submitted.IsZero() {
		submitted = time.Now()
	}
	jctx, cancel := context.WithCancel(ctx)
	j := &Job{
		id:        id,
		spec:      spec,
		svc:       s,
		ctx:       jctx,
		cancel:    cancel,
		state:     JobPending,
		submitted: submitted,
		done:      make(chan struct{}),
		resume:    opts.Resume,
		runner:    runner,
		hist:      make([]Event, 0, s.historyLen()),
	}
	if opts.Resume != nil {
		j.seq = opts.Resume.EventSeq
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.active++
	s.mu.Unlock()
	go s.runJob(j)
	return j, nil
}

// RestoreTerminal registers an already-finished job from persisted state,
// so a restarted daemon keeps serving results and event streams of jobs
// that completed before the restart. The job is terminal on arrival: it
// holds no concurrency slot, its done channel is closed, and its replay
// ring carries a synthesized done event. The state must be terminal and
// the ID unused.
func (s *Service) RestoreTerminal(id string, spec Spec, state JobState, res *Result, errMsg string, submitted, started, finished time.Time) (*Job, error) {
	if !state.Terminal() {
		return nil, fmt.Errorf("solver: RestoreTerminal with non-terminal state %q", state)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.initLocked()
	if _, taken := s.jobs[id]; taken {
		return nil, fmt.Errorf("solver: job ID %q already in use", id)
	}
	jctx, cancel := context.WithCancel(context.Background())
	cancel()
	j := &Job{
		id:        id,
		spec:      spec,
		svc:       s,
		ctx:       jctx,
		cancel:    cancel,
		state:     state,
		submitted: submitted,
		started:   started,
		finished:  finished,
		result:    res,
		done:      make(chan struct{}),
	}
	if errMsg != "" {
		j.err = errors.New(errMsg)
	}
	if res != nil {
		j.gen = res.Generations
		j.evals = res.Evaluations
		j.best, j.hasBest = res.BestObjective, true
	}
	j.mu.Lock()
	ev := Event{Type: EventDone, Generation: j.gen, Evaluations: j.evals, Result: res, Error: errMsg}
	if j.hasBest {
		ev.BestObjective = j.best
	}
	j.recordLocked(ev)
	j.mu.Unlock()
	close(j.done)
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	return j, nil
}

// runJob waits for a slot, runs the solve with the job as its event sink,
// and finishes the job.
func (s *Service) runJob(j *Job) {
	// Runner jobs orchestrate other jobs instead of computing; they skip
	// the worker-slot semaphore (see SubmitRunner).
	if j.runner == nil {
		select {
		case <-j.ctx.Done():
			j.finish(nil, j.ctx.Err())
			return
		case s.sem <- struct{}{}:
		}
		defer func() { <-s.sem }()
	}
	// A cancellation that raced the slot acquisition still fails fast, so
	// a cancelled batch never starts queued work.
	if err := j.ctx.Err(); err != nil {
		j.finish(nil, err)
		return
	}
	j.setRunning()
	sink := j.emit
	if s.noEvents {
		sink = nil
	}
	if j.runner != nil {
		res, err := j.runner(j.ctx, sink)
		j.finish(res, err)
		return
	}
	var ck *ckptSeam
	if j.resume != nil || (s.OnCheckpoint != nil && s.CheckpointEvery > 0 && SupportsCheckpoint(j.spec.Model)) {
		ck = &ckptSeam{resume: j.resume}
		if s.OnCheckpoint != nil && s.CheckpointEvery > 0 {
			onCk := s.OnCheckpoint
			ck.every = s.CheckpointEvery
			ck.save = func(cp *Checkpoint) {
				cp.EventSeq = j.curSeq()
				onCk(j.id, cp)
			}
		}
	}
	res, err := solve(j.ctx, j.spec, sink, ck, s.Exchange)
	j.finish(res, err)
}

// historyLen resolves the EventHistory default.
func (s *Service) historyLen() int {
	if s.EventHistory <= 0 {
		return 256
	}
	return s.EventHistory
}

// ServiceStats is a point-in-time snapshot of the service's operational
// counters — the feed of the daemon's /v1/stats endpoint. Evaluations and
// RingDrops are monotonic over the service's lifetime (pruning finished
// jobs never decreases them); the job counts are instantaneous.
type ServiceStats struct {
	Jobs        map[JobState]int `json:"jobs"`
	QueueDepth  int              `json:"queue_depth"` // pending jobs awaiting a slot
	Evaluations int64            `json:"evaluations_total"`
	EvalsPerSec float64          `json:"evals_per_sec"` // lifetime average
	RingDrops   int64            `json:"replay_ring_drops_total"`
	UptimeSec   float64          `json:"uptime_sec"`
}

// Stats snapshots the service's counters.
func (s *Service) Stats() ServiceStats {
	s.mu.Lock()
	s.initLocked()
	jobs := make([]*Job, len(s.order))
	copy(jobs, s.order)
	started := s.started
	s.mu.Unlock()

	st := ServiceStats{Jobs: map[JobState]int{
		JobPending: 0, JobRunning: 0, JobDone: 0, JobCanceled: 0, JobFailed: 0,
	}}
	for _, j := range jobs {
		st.Jobs[j.Status().State]++
	}
	st.QueueDepth = st.Jobs[JobPending]
	st.Evaluations = s.totalEvals.Load()
	st.RingDrops = s.ringDrops.Load()
	st.UptimeSec = time.Since(started).Seconds()
	if st.UptimeSec > 0 {
		st.EvalsPerSec = float64(st.Evaluations) / st.UptimeSec
	}
	return st
}

// Get returns a submitted job by ID.
func (s *Service) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns all retained jobs in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	copy(out, s.order)
	return out
}

// Remove forgets a terminal job (daemons prune finished history with it).
// Removing a live job is refused.
func (s *Service) Remove(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || !j.Status().State.Terminal() {
		return false
	}
	delete(s.jobs, id)
	for i, o := range s.order {
		if o == j {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return true
}

// Drain stops accepting submissions and waits for every job to finish.
// When ctx expires first, the remaining jobs are cancelled and Drain
// waits for their prompt generation-boundary exit before returning the
// context's error. A nil-error return means every job completed under its
// own budget.
func (s *Service) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	s.initLocked()
	s.draining = true
	jobs := make([]*Job, len(s.order))
	copy(jobs, s.order)
	s.mu.Unlock()

	var forced error
	for _, j := range jobs {
		select {
		case <-j.done:
			continue
		case <-ctx.Done():
			forced = ctx.Err()
		}
		if forced != nil {
			break
		}
	}
	if forced != nil {
		for _, j := range jobs {
			j.Cancel()
		}
		for _, j := range jobs {
			<-j.done
		}
	}
	return forced
}

// Close cancels every job and waits for them to stop. The service rejects
// submissions afterwards.
func (s *Service) Close() {
	s.mu.Lock()
	s.initLocked()
	s.draining = true
	jobs := make([]*Job, len(s.order))
	copy(jobs, s.order)
	s.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
	for _, j := range jobs {
		<-j.done
	}
}

// Job is one submitted solver run: identified, observable, cancellable.
type Job struct {
	id     string
	spec   Spec
	svc    *Service
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	// resume, when set, warm-starts the run (see SubmitOptions.Resume).
	resume *Checkpoint
	// runner, when set, replaces the model solve as the job's body (see
	// SubmitRunner).
	runner func(ctx context.Context, emit func(Event)) (*Result, error)

	mu        sync.Mutex
	state     JobState
	seq       int64
	gen       int
	evals     int64
	best      float64
	hasBest   bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    *Result
	err       error
	subs      []subscriber
	// hist is the replay ring: it fills up to Service.EventHistory
	// events, then each new event overwrites the oldest, at head.
	hist []Event
	head int
}

// ID returns the service-assigned job identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the spec as submitted.
func (j *Job) Spec() Spec { return j.spec }

// Status returns a point-in-time snapshot.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Generation:  j.gen,
		Evaluations: j.evals,
		Submitted:   j.submitted,
		Started:     j.started,
		Finished:    j.finished,
	}
	if j.hasBest {
		st.BestObjective = j.best
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Result returns the terminal result and error (nil, nil while the job is
// still live). Await is the blocking form.
func (j *Job) Result() (*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Await blocks until the job reaches a terminal state (or ctx expires)
// and returns its outcome. Like Solve, a cancelled in-flight run returns
// its partial best with Result.Canceled set and a nil error. A finished
// job always returns its result, even under an already-expired ctx — the
// common await-after-cancel pattern must not lose the partial result to
// a select race.
func (j *Job) Await(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.done:
		return j.Result()
	default:
	}
	select {
	case <-j.done:
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// curSeq returns the job's current event sequence number (checkpoints are
// stamped with it so a resumed job continues its numbering).
func (j *Job) curSeq() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Cancel requests cancellation. A pending job fails with context.Canceled;
// a running job stops at its next generation boundary and keeps its
// partial result. Cancel is idempotent and safe after completion.
func (j *Job) Cancel() { j.cancel() }

// Events subscribes to the job's typed progress stream. Every call
// returns an independent channel that first replays the job's retained
// event history (see Service.EventHistory) — so subscribing after a fast
// job finished still observes its progress — then receives live events,
// and is closed after the terminal done event. A subscriber that falls
// behind loses oldest live events first (the channel is buffered; see
// Service.EventBuffer), never the done event.
func (j *Job) Events() <-chan Event {
	ch, _ := j.EventsBell()
	return ch
}

// EventsBell is Events plus a bell: a one-slot channel that receives,
// without ever blocking the job, whenever a live event leaves the
// subscription more than half full. A consumer that drains on a timer
// instead of on every event (the SSE writer) waits on the bell as well,
// so a burst wakes it before the buffer fills and drops events. The bell
// is never closed; Done marks the end of the job.
func (j *Job) EventsBell() (<-chan Event, <-chan struct{}) {
	buf := j.svc.EventBuffer
	if buf <= 0 {
		buf = 256
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	sub := subscriber{ch: make(chan Event, len(j.hist)+buf), bell: make(chan struct{}, 1)}
	for _, ev := range j.hist[j.head:] {
		sub.ch <- ev
	}
	for _, ev := range j.hist[:j.head] {
		sub.ch <- ev
	}
	if j.state.Terminal() {
		close(sub.ch)
		return sub.ch, sub.bell
	}
	j.subs = append(j.subs, sub)
	return sub.ch, sub.bell
}

// subscriber is one subscription: its event channel and its bell.
type subscriber struct {
	ch   chan Event
	bell chan struct{}
}

// recordLocked stamps the event (job ID, next sequence number), stores
// it in the bounded replay ring and fans it out to every subscriber;
// callers hold j.mu.
func (j *Job) recordLocked(ev Event) {
	j.seq++
	ev.Job = j.id
	ev.Seq = j.seq
	if len(j.hist) < j.svc.historyLen() {
		j.hist = append(j.hist, ev)
	} else {
		j.hist[j.head] = ev
		j.head = (j.head + 1) % len(j.hist)
		j.svc.ringDrops.Add(1)
	}
	for _, sub := range j.subs {
		sendDropOldest(sub.ch, ev)
		if 2*len(sub.ch) > cap(sub.ch) {
			select {
			case sub.bell <- struct{}{}:
			default:
			}
		}
	}
}

// setRunning transitions pending -> running and emits the started event.
func (j *Job) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = JobRunning
	j.started = time.Now()
	j.recordLocked(Event{Type: EventStarted, Model: j.spec.Model, Instance: j.spec.Problem.Instance})
}

// emit is the run's progress sink: it updates the status snapshot and
// records the event. Models call the progress seam from one goroutine at
// a time, and every other emitter holds j.mu, so the drop-oldest sends
// have a single producer per channel.
func (j *Job) emit(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if ev.Generation > j.gen {
		j.gen = ev.Generation
	}
	if ev.Evaluations > j.evals {
		j.svc.totalEvals.Add(ev.Evaluations - j.evals)
		j.evals = ev.Evaluations
	}
	if ev.Type == EventImproved {
		j.best = ev.BestObjective
		j.hasBest = true
	}
	j.recordLocked(ev)
}

// finish records the outcome, emits the done event and closes every
// subscription.
func (j *Job) finish(res *Result, err error) {
	j.mu.Lock()
	switch {
	case err != nil:
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			j.state = JobCanceled
		} else {
			j.state = JobFailed
		}
	case res != nil && res.Canceled:
		j.state = JobCanceled
	default:
		j.state = JobDone
	}
	j.result, j.err = res, err
	j.finished = time.Now()
	if res != nil {
		j.gen = res.Generations
		if res.Evaluations > j.evals {
			j.svc.totalEvals.Add(res.Evaluations - j.evals)
		}
		j.evals = res.Evaluations
		j.best, j.hasBest = res.BestObjective, true
	}
	ev := Event{Type: EventDone, Generation: j.gen, Evaluations: j.evals, Result: res}
	if j.hasBest {
		ev.BestObjective = j.best
	}
	if err != nil {
		ev.Error = err.Error()
	}
	j.recordLocked(ev)
	for _, sub := range j.subs {
		close(sub.ch)
	}
	j.subs = nil
	j.cancel() // release the job context's resources
	j.mu.Unlock()

	j.svc.mu.Lock()
	j.svc.active--
	j.svc.mu.Unlock()
	close(j.done)
}

// sendDropOldest delivers ev without ever blocking the solver: when the
// subscriber's buffer is full the oldest buffered event is discarded to
// make room. With a single producer per channel the second send can only
// fail if the consumer raced a receive in between, in which case space
// exists on the retry.
func sendDropOldest(ch chan Event, ev Event) {
	for {
		select {
		case ch <- ev:
			return
		default:
		}
		select {
		case <-ch:
		default:
		}
	}
}
