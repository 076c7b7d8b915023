package decode

import (
	"math"

	"repro/internal/shop"
)

// This file holds the batch evaluation layer: the third rung of the
// evaluation ladder after the schedule-building oracles and the
// per-genome Scratch kernels. The GPU follow-up works to the survey (Luo &
// El Baz, arXiv:1903.10722 and 1903.10741) evaluate whole populations per
// kernel launch over dense, shared instance tables, with each individual's
// state kept on-chip; the CPU analogue below decodes an entire shard of
// genomes per call over tables built once per instance (one packed uint64
// word per job-shop operation, an int32 duration table for the flow shop),
// and keeps each in-flight genome's job-shop state in one small int32 row,
// instead of re-deriving Jobs[j].Ops[k].Times[0] pointer chains and
// spreading state over separate per-job and per-machine arrays.
//
// The regular-dependency kernels (flow shop's completion-row recurrence and
// the job shop's token decode) get true flat-table batch sweeps; the
// decoders whose inner loop is a data-dependent scan (Giffler-Thompson,
// open shop dispatch, flexible assignment) fall back to the scalar kernels
// behind the same batch interface. batch_test.go pins every batch method
// bit-identical to its scalar kernel — which is itself oracle-pinned to the
// schedule path — across all shop kinds and batch sizes 1..257.

// batchW is the interleave width of the batch kernels: they decode batchW
// genomes in lockstep, advancing all of them one sequence position at a
// time. A single genome's decode is one long dependency chain (each
// completion feeds the next max), so the scalar kernels are latency-bound;
// interleaving batchW independent chains keeps the out-of-order core's
// execution ports busy while each chain waits on its own previous
// completion, per the survey's thread-block-per-individual designs.
// Remainder genomes (batch size not a multiple of batchW), groups with
// mixed sequence lengths, and instances whose tables or completion times
// do not fit the narrow types fall back to the scalar kernels:
// bit-identical results, unbatched speed.
const batchW = 4

// BatchScratch is a reusable workspace for batch evaluation of genome
// shards on one instance. It holds instance-derived flat operation tables
// precomputed once at construction, plus per-slot decode state. All
// storage is allocated up front: batch calls never allocate, for any batch
// size. A BatchScratch is not safe for concurrent use; parallel executors
// hold one per worker (the core.BatchEvalProblem seam hands each
// persistent worker its own).
//
// The job-shop sweep keeps each slot's whole decode state in one int32
// row of rowLen columns:
//
//	[cursor(n) | jobReady(n) | machFree(m) | sentinel(n) | lastJob(m+n)]
//
// where lastJob, present only with setups, holds one column per machine
// and per sentinel column c, at c+m+n. cursor[j] indexes ops, the
// packed operation table: job j's operations in route order followed by
// one sentinel op. An op word holds the row column its completion is
// written to in the low 32 bits (2n+machine for a real op, job j's
// private sentinel column for the sentinel) and the duration in the high
// 32 bits. Real ops advance the cursor by one; the sentinel has duration 0
// and advance 0, so an over-long token lands on its own job's sentinel
// and changes nothing: the sentinel column only ever holds an earlier
// ready time of its job, so the max picks the current one and the zero
// duration writes it back. No per-token exhaustion branch.
type BatchScratch struct {
	in *shop.Instance
	n  int // jobs
	m  int // machines

	// dur and release are the flow shop's tables: durations by flattened
	// op id (j*m+stage on a regular instance) and per-job release dates.
	// wide is set when any duration does not fit int32.
	dur     []int32
	release []int
	wide    bool

	// regular is set when every job has exactly m operations (so the flat
	// op id of (job, stage) is j*m+stage); the flow-shop lockstep sweep
	// requires it, since all interleaved jobs advance stage-for-stage.
	regular bool

	// ops is the packed job-shop operation table (see above), or nil when
	// the int32 row cannot hold every completion time: a negative time,
	// or max release + total processing time (plus each op's largest
	// setup) above MaxInt32. The job-shop sweep then falls back to the
	// scalar kernel.
	ops []uint64
	// setup, with sequence-dependent setups, is the per-op setup table:
	// setup[id*(n+1)+k] is the setup op id pays after job k-1 on its
	// machine, k = 0 meaning the machine's first op (the initial setup
	// Setup[mach][j][j]). Sentinel rows are zero. The lastJob columns hold
	// k = last job + 1, so the lookup needs no first-op branch.
	setup []int32

	// rowLen is the length of a job-shop state row; initRow is a fresh
	// row (cursors at each job's first op, ready times at the releases,
	// everything else zero) copied over a slot's row before each sweep.
	// state holds the batchW rows.
	rowLen  int
	initRow []int32
	state   []int32

	// machFree is the flow shop's interleaved completion rows, flat
	// [m x batchW]. The flow arithmetic stays int so batch results are
	// bit-identical to the scalar kernel at any magnitude dur admits.
	machFree []int

	scalar *Scratch
}

// NewBatchScratch builds the flat operation tables for in and pre-sizes
// every state row, so all subsequent batch calls on in are allocation-free.
func NewBatchScratch(in *shop.Instance) *BatchScratch {
	n := len(in.Jobs)
	m := in.NumMachines
	b := &BatchScratch{
		in: in, n: n, m: m,
		dur:      make([]int32, in.TotalOps()),
		release:  make([]int, n),
		machFree: make([]int, batchW*m),
		regular:  true,
		scalar:   NewScratch(in),
	}
	id := 0
	for j, job := range in.Jobs {
		b.release[j] = job.Release
		if len(job.Ops) != m {
			b.regular = false
		}
		for k := range job.Ops {
			t := job.Ops[k].Times[0]
			if t > math.MaxInt32 || t < math.MinInt32 {
				b.wide = true
			}
			b.dur[id] = int32(t)
			id++
		}
	}
	if jobShopFitsInt32(in) {
		b.packJobShop()
	}
	return b
}

// jobShopFitsInt32 is the job-shop sweep's narrowing guard. With
// non-negative times every completion time is at most the latest release
// plus the total processing time plus, on setup instances, each op's
// largest setup; when that bound fits int32 the int32 arithmetic is exact
// and bit-identical to the scalar kernel's int arithmetic. The sum is
// accumulated in int64 with every term checked first, so it cannot overflow.
func jobShopFitsInt32(in *shop.Instance) bool {
	n := len(in.Jobs)
	var bound int64
	for _, job := range in.Jobs {
		if job.Release < 0 || job.Release > math.MaxInt32 {
			return false
		}
		if r := int64(job.Release); r > bound {
			bound = r
		}
	}
	for j, job := range in.Jobs {
		for k := range job.Ops {
			op := &job.Ops[k]
			t := op.Times[0]
			if in.Setup != nil {
				mi, worst := op.Machines[0], 0
				for prev := 0; prev < n; prev++ {
					s := in.Setup[mi][prev][j]
					if s < 0 {
						return false
					}
					if s > worst {
						worst = s
					}
				}
				if worst > math.MaxInt32 {
					return false
				}
				bound += int64(worst)
			}
			if t < 0 || t > math.MaxInt32 {
				return false
			}
			if bound += int64(t); bound > math.MaxInt32 {
				return false
			}
		}
	}
	return true
}

// packJobShop builds the packed op table, the per-op setup table and the
// fresh state row of the job-shop sweep.
func (b *BatchScratch) packJobShop() {
	in, n, m := b.in, b.n, b.m
	b.rowLen = 3*n + m
	if in.Setup != nil {
		b.rowLen += m + n
	}
	b.ops = make([]uint64, in.TotalOps()+n)
	if in.Setup != nil {
		b.setup = make([]int32, len(b.ops)*(n+1))
	}
	b.initRow = make([]int32, b.rowLen)
	b.state = make([]int32, batchW*b.rowLen)
	id := 0
	for j, job := range in.Jobs {
		b.initRow[j] = int32(id)
		b.initRow[n+j] = int32(job.Release)
		for k := range job.Ops {
			op := &job.Ops[k]
			mi := op.Machines[0]
			b.ops[id] = uint64(2*n+mi) | uint64(op.Times[0])<<32
			if in.Setup != nil {
				row := b.setup[id*(n+1) : (id+1)*(n+1)]
				row[0] = int32(in.Setup[mi][j][j])
				for prev := 0; prev < n; prev++ {
					row[prev+1] = int32(in.Setup[mi][prev][j])
				}
			}
			id++
		}
		b.ops[id] = uint64(2*n + m + j) // sentinel: duration 0
		id++
	}
}

// Scalar exposes the embedded per-genome Scratch, for callers that mix
// batch sweeps with scalar decodes (non-makespan objectives, schedule
// materialisation) without a second workspace.
func (b *BatchScratch) Scalar() *Scratch { return b.scalar }

// quadLen reports whether four sequences share one length, the
// precondition for decoding them in lockstep.
func quadLen(a, b, c, d []int) bool {
	return len(a) == len(b) && len(b) == len(c) && len(c) == len(d)
}

// FlowShopMakespans fills out[i] with the flow-shop makespan of perms[i],
// bit-identical to FlowShopMakespan on each permutation. Groups of batchW
// equal-length permutations on a regular instance run the lockstep sweep;
// everything else falls back to the scalar kernel per genome.
func (b *BatchScratch) FlowShopMakespans(perms [][]int, out []float64) {
	i := 0
	if !b.wide && b.regular {
		for ; i+batchW <= len(perms); i += batchW {
			q := perms[i : i+batchW]
			if !quadLen(q[0], q[1], q[2], q[3]) {
				break
			}
			b.flowShopQuad(q[0], q[1], q[2], q[3], out[i:i+batchW])
		}
	}
	for ; i < len(perms); i++ {
		out[i] = float64(FlowShopMakespanWith(b.in, perms[i], b.scalar))
	}
}

// flowShopQuad runs the completion-row recurrence for four equal-length
// permutations in lockstep. The four per-stage chains are independent, so
// their max/add latencies overlap; the running previous-completion of each
// slot lives in a register, and the per-stage completion rows are
// interleaved c[s*batchW+t] so one position's sweep touches contiguous
// memory.
func (b *BatchScratch) flowShopQuad(p0, p1, p2, p3 []int, out []float64) {
	m := b.m
	c := b.machFree[:batchW*m]
	for i := range c {
		c[i] = 0
	}
	dur, rel := b.dur, b.release
	for p := 0; p < len(p0); p++ {
		j0, j1, j2, j3 := p0[p], p1[p], p2[p], p3[p]
		// Per-slot duration rows are contiguous (regular instance: op id of
		// (j, s) is j*m+s), so each slot streams its own row while the four
		// completion chains overlap.
		d0 := dur[j0*m : j0*m+m]
		d1 := dur[j1*m : j1*m+m]
		d2 := dur[j2*m : j2*m+m]
		d3 := dur[j3*m : j3*m+m]
		v0, v1, v2, v3 := rel[j0], rel[j1], rel[j2], rel[j3]
		base := 0
		for s := 0; s < m; s++ {
			row := c[base : base+batchW : base+batchW]
			base += batchW
			if t := row[0]; t > v0 {
				v0 = t
			}
			v0 += int(d0[s])
			row[0] = v0
			if t := row[1]; t > v1 {
				v1 = t
			}
			v1 += int(d1[s])
			row[1] = v1
			if t := row[2]; t > v2 {
				v2 = t
			}
			v2 += int(d2[s])
			row[2] = v2
			if t := row[3]; t > v3 {
				v3 = t
			}
			v3 += int(d3[s])
			row[3] = v3
		}
	}
	for t := 0; t < batchW; t++ {
		max := 0
		for s := 0; s < m; s++ {
			if v := c[s*batchW+t]; v > max {
				max = v
			}
		}
		out[t] = float64(max)
	}
}

// JobShopMakespans fills out[i] with the job-shop makespan of seqs[i],
// bit-identical to JobShopMakespan on each sequence, including detached
// sequence-dependent setups. Groups of batchW equal-length sequences run
// the lockstep sweep; remainder or mixed-length genomes fall back to the
// scalar kernel.
func (b *BatchScratch) JobShopMakespans(seqs [][]int, out []float64) {
	i := 0
	if b.ops != nil {
		for ; i+batchW <= len(seqs); i += batchW {
			q := seqs[i : i+batchW]
			if !quadLen(q[0], q[1], q[2], q[3]) {
				break
			}
			if b.setup == nil {
				b.jobShopQuad(q[0], q[1], q[2], q[3], out[i:i+batchW])
			} else {
				b.jobShopSetupQuad(q[0], q[1], q[2], q[3], out[i:i+batchW])
			}
		}
	}
	for ; i < len(seqs); i++ {
		out[i] = float64(JobShopMakespan(b.in, seqs[i], b.scalar))
	}
}

// quadRows resets the four slots' state rows to the fresh row and returns
// them.
func (b *BatchScratch) quadRows() (r [batchW][]int32) {
	l := b.rowLen
	for t := range r {
		r[t] = b.state[t*l : (t+1)*l : (t+1)*l]
		copy(r[t], b.initRow)
	}
	return r
}

// advance is the cursor step of the op in row column col: 1 below the
// sentinel columns, which start at 2n+m, and 0 on a sentinel. Computed
// from the sign of col-(2n+m), so the sweep stays branch-free.
func advance(col, sentinel int) int32 {
	return int32(uint32(col-sentinel) >> 31)
}

// makespans stores each slot's makespan: the latest machine-free time.
// With non-negative times machFree only grows, so its final maximum is the
// running maximum completion the scalar kernel tracks.
func (b *BatchScratch) makespans(r [batchW][]int32, out []float64) {
	lo := 2 * b.n
	for t := range r {
		ms := int32(0)
		for _, f := range r[t][lo : lo+b.m] {
			if f > ms {
				ms = f
			}
		}
		out[t] = float64(ms)
	}
}

// jobShopQuad runs the semi-active token decode for four equal-length
// sequences in lockstep (no setups). Each token reads its job's cursor,
// one op word, the job's ready time and the op's column, and writes the
// three back; the four slots' chains are independent, overlapping the
// per-genome ready-time chains that bound the scalar kernel. A token
// outside [0,n) panics on the cursor slice, as it does in the scalar
// kernel.
func (b *BatchScratch) jobShopQuad(s0, s1, s2, s3 []int, out []float64) {
	n := b.n
	sent := 2*n + b.m
	r := b.quadRows()
	r0, r1, r2, r3 := r[0], r[1], r[2], r[3]
	c0, c1, c2, c3 := r0[:n:n], r1[:n:n], r2[:n:n], r3[:n:n]
	ops := b.ops
	s1, s2, s3 = s1[:len(s0)], s2[:len(s0)], s3[:len(s0)]
	for p, j := range s0 {
		id := c0[j]
		w := ops[id]
		col := int(uint32(w))
		st := r0[n+j]
		if f := r0[col]; f > st {
			st = f
		}
		end := st + int32(w>>32)
		r0[n+j], r0[col], c0[j] = end, end, id+advance(col, sent)

		j = s1[p]
		id = c1[j]
		w = ops[id]
		col = int(uint32(w))
		st = r1[n+j]
		if f := r1[col]; f > st {
			st = f
		}
		end = st + int32(w>>32)
		r1[n+j], r1[col], c1[j] = end, end, id+advance(col, sent)

		j = s2[p]
		id = c2[j]
		w = ops[id]
		col = int(uint32(w))
		st = r2[n+j]
		if f := r2[col]; f > st {
			st = f
		}
		end = st + int32(w>>32)
		r2[n+j], r2[col], c2[j] = end, end, id+advance(col, sent)

		j = s3[p]
		id = c3[j]
		w = ops[id]
		col = int(uint32(w))
		st = r3[n+j]
		if f := r3[col]; f > st {
			st = f
		}
		end = st + int32(w>>32)
		r3[n+j], r3[col], c3[j] = end, end, id+advance(col, sent)
	}
	b.makespans(r, out)
}

// jobShopSetupQuad is jobShopQuad with detached sequence-dependent setups:
// each op column c has a last-job column c+m+n, and the setup is read from
// the op's setup row keyed by it, exactly as jobShopDecode does.
func (b *BatchScratch) jobShopSetupQuad(s0, s1, s2, s3 []int, out []float64) {
	n := b.n
	sent, last, stride := 2*n+b.m, b.m+n, n+1
	r := b.quadRows()
	ops, setup := b.ops, b.setup
	seqs := [batchW][]int{s0, s1, s2, s3}
	for p := range s0 {
		for t, row := range r {
			j := seqs[t][p]
			id := row[:n][j]
			w := ops[id]
			col := int(uint32(w))
			st := row[n+j]
			if f := row[col] + setup[int(id)*stride+int(row[col+last])]; f > st {
				st = f
			}
			end := st + int32(w>>32)
			row[n+j], row[col], row[col+last] = end, end, int32(j+1)
			row[j] = id + advance(col, sent)
		}
	}
	b.makespans(r, out)
}

// GifflerThompsonMakespans fills out[i] with the active-schedule makespan
// of pris[i]. The Giffler-Thompson conflict scan is data-dependent, so the
// batch interface delegates to the scalar kernel per genome.
func (b *BatchScratch) GifflerThompsonMakespans(pris [][]float64, out []float64) {
	for i, pri := range pris {
		out[i] = float64(GifflerThompsonMakespan(b.in, pri, b.scalar))
	}
}

// OpenShopMakespans fills out[i] with the open-shop makespan of seqs[i]
// under rule, delegating to the scalar kernel per genome (the dispatch
// rule scans remaining operations data-dependently).
func (b *BatchScratch) OpenShopMakespans(seqs [][]int, rule OpenRule, out []float64) {
	for i, seq := range seqs {
		out[i] = float64(OpenShopMakespan(b.in, seq, rule, b.scalar))
	}
}

// FlexibleMakespans fills out[i] with the flexible-shop makespan of the
// i-th (assignment, sequence) pair, delegating to the scalar kernel per
// genome. speeds may be nil (fixed unit speed) or per-genome speed vectors.
func (b *BatchScratch) FlexibleMakespans(assigns, seqs, speeds [][]int, out []float64) {
	for i := range seqs {
		var sp []int
		if speeds != nil {
			sp = speeds[i]
		}
		out[i] = float64(FlexibleMakespan(b.in, assigns[i], seqs[i], sp, b.scalar))
	}
}
