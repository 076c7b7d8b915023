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
// word per job-shop operation, block-major int32 duration tables for the
// flow shop) and keeps each in-flight genome's state as close to the core
// as it fits: a flow-shop sweep holds its machine-free times in registers,
// a job-shop slot holds its state in one small int32 row, instead of
// re-deriving Jobs[j].Ops[k].Times[0] pointer chains and spreading state
// over separate per-job and per-machine arrays.
//
// The regular-dependency kernels (flow shop's completion-row recurrence and
// the job shop's token decode) get true flat-table batch sweeps; the
// decoders whose inner loop is a data-dependent scan (Giffler-Thompson,
// open shop dispatch, flexible assignment) fall back to the scalar kernels
// behind the same batch interface. batch_test.go pins every batch method
// bit-identical to its scalar kernel — which is itself oracle-pinned to the
// schedule path — across all shop kinds and batch sizes 1..257.

// batchW is the interleave width of the job-shop batch sweep: it decodes
// batchW genomes in lockstep, advancing all of them one token at a time.
// A single genome's decode is one long dependency chain (each completion
// feeds the next max), so the scalar kernel is latency-bound; interleaving
// batchW independent chains keeps the out-of-order core's execution ports
// busy while each chain waits on its own previous completion, per the
// survey's thread-block-per-individual designs. Remainder genomes (batch
// size not a multiple of batchW), groups with mixed sequence lengths, and
// instances whose completion times do not fit int32 fall back to the
// scalar kernel: bit-identical results, unbatched speed.
const batchW = 4

// flowBlock is the stage width of the flow-shop register-block sweep: it
// processes a permutation flowBlock stages per pass, with that block's
// machine-free times in local variables the compiler keeps in registers.
// Five covers Taillard's m in {5, 10, 20} exactly; other m zero-pad the
// last block.
const flowBlock = 5

// flowRow is one job's row of a flow stage block: its flowBlock durations,
// then, in the first block only, its release date (see BatchScratch).
type flowRow [flowBlock + 1]int32

// BatchScratch is a reusable workspace for batch evaluation of genome
// shards on one instance. It holds instance-derived flat operation tables
// precomputed once at construction, plus per-slot decode state. All
// storage is allocated up front: batch calls never allocate, for any batch
// size. A BatchScratch is not safe for concurrent use; parallel executors
// hold one per worker (core.Problem.BatchEvaluator hands each persistent
// worker its own).
//
// The flow-shop sweep reads durations from flowTab, block-major:
// flowTab[blk*n+j][k] is job j's duration on stage blk*flowBlock+k, zero
// past the last stage, and the extra column flowTab[j][flowBlock] of the
// first block's rows is job j's release date (zero in later blocks), so
// the first block finds a job's release in the row it already loads. A
// zero-duration padded stage only copies the running completion forward
// (its machine is free no later than the job arrives), so padding changes
// no real stage and the padded machine-free time equals the last real
// stage's.
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

	// flowTab is the flow shop's block-major duration and release table
	// (see above), and flowReady the ready row: one entry per permutation
	// position carrying that job's completion from one block to the next
	// (nil when m <= flowBlock, since the first block reads releases from
	// flowTab and the last writes nothing). flowTab is nil unless
	// in is a flow shop (no other kind runs the flow sweep) and
	// flowShopFitsInt32 holds; the flow sweep then always falls back to
	// the scalar kernel.
	flowTab   []flowRow
	flowReady []int32
	// flowWork is each job's total work and flowBudget is MaxInt32 minus
	// the latest release: a token stream whose summed work fits the budget
	// has every completion time in int32. flowAnyLen is set when n times
	// the largest job's work fits it too, so any stream of at most n
	// tokens qualifies without summing.
	flowWork   []int64
	flowBudget int64
	flowAnyLen bool

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

	scalar *Scratch
}

// NewBatchScratch builds the flat operation tables for in and pre-sizes
// every state row, so all subsequent batch calls on in are allocation-free.
func NewBatchScratch(in *shop.Instance) *BatchScratch {
	b := &BatchScratch{
		in: in, n: len(in.Jobs), m: in.NumMachines,
		scalar: NewScratch(in),
	}
	if in.Kind == shop.FlowShop && flowShopFitsInt32(in) {
		b.packFlowShop()
	}
	if jobShopFitsInt32(in) {
		b.packJobShop()
	}
	return b
}

// flowShopFitsInt32 is the flow sweep's narrowing guard: a regular
// instance (every job has exactly m operations, so all jobs advance
// stage-for-stage) with non-negative times and releases, and max release
// + total work <= MaxInt32. A completion time is at most the latest
// release plus the work of the jobs sequenced so far, so on a permutation
// every completion, padded stages included, fits int32 and the int32
// arithmetic is exact. Like jobShopFitsInt32 it reads no setups: the flow
// kernel never does.
func flowShopFitsInt32(in *shop.Instance) bool {
	var bound int64
	for _, job := range in.Jobs {
		if len(job.Ops) != in.NumMachines || job.Release < 0 || job.Release > math.MaxInt32 {
			return false
		}
		if r := int64(job.Release); r > bound {
			bound = r
		}
	}
	for _, job := range in.Jobs {
		for k := range job.Ops {
			t := job.Ops[k].Times[0]
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

// packFlowShop builds the flow sweep's block-major duration and release
// table, work table and, when there is more than one block, ready row.
func (b *BatchScratch) packFlowShop() {
	n, m := b.n, b.m
	blocks := (m + flowBlock - 1) / flowBlock
	b.flowTab = make([]flowRow, blocks*n)
	if blocks > 1 {
		b.flowReady = make([]int32, n)
	}
	b.flowWork = make([]int64, n)
	var maxRel, maxWork int64
	for j, job := range b.in.Jobs {
		b.flowTab[j][flowBlock] = int32(job.Release)
		maxRel = max(maxRel, int64(job.Release))
		for k := range job.Ops {
			t := job.Ops[k].Times[0]
			b.flowTab[k/flowBlock*n+j][k%flowBlock] = int32(t)
			b.flowWork[j] += int64(t)
		}
		maxWork = max(maxWork, b.flowWork[j])
	}
	b.flowBudget = math.MaxInt32 - maxRel
	b.flowAnyLen = int64(n)*maxWork <= b.flowBudget
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

// FlowShopMakespans fills out[i] with the flow-shop makespan of perms[i],
// bit-identical to FlowShopMakespan on each permutation. Each permutation
// the int32 guard admits runs the register-block sweep; everything else
// (a wide, negative or irregular instance, a stream longer than n or whose
// repeated tokens could overflow int32) falls back to the scalar kernel.
func (b *BatchScratch) FlowShopMakespans(perms [][]int, out []float64) {
	for i, perm := range perms {
		if b.flowFits(perm) {
			out[i] = float64(b.flowShopBlocks(perm))
		} else {
			out[i] = float64(FlowShopMakespanWith(b.in, perm, b.scalar))
		}
	}
}

// flowFits reports whether perm may run the register-block sweep: the
// instance passed flowShopFitsInt32, perm fits the ready row, and the work
// perm sequences fits the int32 budget (summed only when repeated tokens
// could exceed it). A token outside [0,n) panics here or in the sweep, as
// it does in the scalar kernel.
func (b *BatchScratch) flowFits(perm []int) bool {
	if b.flowTab == nil || len(perm) > b.n {
		return false
	}
	if b.flowAnyLen {
		return true
	}
	var work int64
	for _, j := range perm {
		work += b.flowWork[j]
	}
	return work <= b.flowBudget
}

// flowShopBlocks runs the completion-row recurrence over perm one stage
// block at a time. The first block reads each job's release from its
// duration row, and the last keeps its completions in registers, so only
// the boundaries between blocks pass through the ready row: after every
// block but the last, ready[p] holds position p's completion on that
// block's last stage, which is where the next block's first stage picks
// the job up. With m <= flowBlock the one block is both, and the sweep
// touches no ready row at all. The last block's final machine-free time
// is the makespan (0 for an empty perm), since with non-negative times no
// machine frees later.
func (b *BatchScratch) flowShopBlocks(perm []int) int32 {
	n, tab := b.n, b.flowTab
	if len(tab) == n {
		return flowSweepOnly(perm, tab)
	}
	ready := b.flowReady[:len(perm)]
	flowSweepFirst(perm, tab[:n:n], ready)
	lo := n
	for ; lo < len(tab)-n; lo += n {
		flowSweepMid(perm, tab[lo:lo+n:lo+n], ready)
	}
	return flowSweepLast(perm, tab[lo:], ready)
}

// The flow sweeps are one register-block pass each: five stages over the
// whole permutation, the five machine-free times in locals. Each position
// reads its job's flowRow and chains its ready time through the five
// stages (flowChain). They differ only in where the ready time comes from
// (the row's release in the first block, the ready row after it) and
// whether the last-stage completion goes back to the ready row (every
// block but the last). Only and Last return the block's last machine-free
// time, the makespan.

// flowSweepOnly is the single block of an m <= flowBlock instance.
func flowSweepOnly(perm []int, tab []flowRow) int32 {
	var f0, f1, f2, f3, f4 int32
	for _, j := range perm {
		d := &tab[j]
		f0, f1, f2, f3, f4 = flowChain(d[flowBlock], d, f0, f1, f2, f3, f4)
	}
	return f4
}

// flowSweepFirst is the first of several blocks.
func flowSweepFirst(perm []int, tab []flowRow, ready []int32) {
	var f0, f1, f2, f3, f4 int32
	ready = ready[:len(perm)]
	for p, j := range perm {
		d := &tab[j]
		f0, f1, f2, f3, f4 = flowChain(d[flowBlock], d, f0, f1, f2, f3, f4)
		ready[p] = f4
	}
}

// flowSweepMid is a block between the first and the last.
func flowSweepMid(perm []int, tab []flowRow, ready []int32) {
	var f0, f1, f2, f3, f4 int32
	ready = ready[:len(perm)]
	for p, j := range perm {
		f0, f1, f2, f3, f4 = flowChain(ready[p], &tab[j], f0, f1, f2, f3, f4)
		ready[p] = f4
	}
}

// flowSweepLast is the last of several blocks.
func flowSweepLast(perm []int, tab []flowRow, ready []int32) int32 {
	var f0, f1, f2, f3, f4 int32
	ready = ready[:len(perm)]
	for p, j := range perm {
		f0, f1, f2, f3, f4 = flowChain(ready[p], &tab[j], f0, f1, f2, f3, f4)
	}
	return f4
}

// flowChain takes one job, ready at r, through a block's five stages with
// durations d and machine-free times f0..f4, and returns the new
// machine-free times; f4 is the job's last-stage completion.
func flowChain(r int32, d *flowRow, f0, f1, f2, f3, f4 int32) (int32, int32, int32, int32, int32) {
	f0 = max(r, f0) + d[0]
	f1 = max(f0, f1) + d[1]
	f2 = max(f1, f2) + d[2]
	f3 = max(f2, f3) + d[3]
	f4 = max(f3, f4) + d[4]
	return f0, f1, f2, f3, f4
}

// quadLen reports whether four sequences share one length, the
// precondition for decoding them in lockstep.
func quadLen(a, b, c, d []int) bool {
	return len(a) == len(b) && len(b) == len(c) && len(c) == len(d)
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
