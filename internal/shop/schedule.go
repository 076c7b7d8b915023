package shop

import (
	"fmt"
	"sort"
	"strings"
)

// Assignment places one operation of one job on a machine for [Start, End).
// Speed is the index into Instance.SpeedLevels for energy-aware schedules
// (0 and ignored when the instance has no speed levels).
type Assignment struct {
	Job     int `json:"job"`
	Op      int `json:"op"`
	Machine int `json:"machine"`
	Start   int `json:"start"`
	End     int `json:"end"`
	Speed   int `json:"speed,omitempty"`
}

// Schedule is a complete assignment of every operation of an instance.
type Schedule struct {
	Inst *Instance    `json:"-"`
	Ops  []Assignment `json:"ops"`
}

// Makespan returns max completion time over all operations (C_max).
func (s *Schedule) Makespan() int {
	m := 0
	for _, a := range s.Ops {
		if a.End > m {
			m = a.End
		}
	}
	return m
}

// CompletionTimes returns C_j for every job.
func (s *Schedule) CompletionTimes() []int {
	c := make([]int, len(s.Inst.Jobs))
	for _, a := range s.Ops {
		if a.End > c[a.Job] {
			c[a.Job] = a.End
		}
	}
	return c
}

// Tardiness returns T_j = max(0, C_j - D_j) for every job.
func (s *Schedule) Tardiness() []int {
	c := s.CompletionTimes()
	t := make([]int, len(c))
	for j, cj := range c {
		if d := s.Inst.Jobs[j].Due; cj > d {
			t[j] = cj - d
		}
	}
	return t
}

// MaxTardiness returns max_j T_j.
func (s *Schedule) MaxTardiness() int {
	m := 0
	for _, t := range s.Tardiness() {
		if t > m {
			m = t
		}
	}
	return m
}

// TotalWeightedCompletion returns sum_j w_j * C_j.
func (s *Schedule) TotalWeightedCompletion() float64 {
	var sum float64
	for j, c := range s.CompletionTimes() {
		sum += s.Inst.Jobs[j].Weight * float64(c)
	}
	return sum
}

// TotalWeightedTardiness returns sum_j w_j * T_j.
func (s *Schedule) TotalWeightedTardiness() float64 {
	var sum float64
	for j, t := range s.Tardiness() {
		sum += s.Inst.Jobs[j].Weight * float64(t)
	}
	return sum
}

// TotalWeightedUnitPenalty returns sum_j w_j * U_j with U_j = 1 if C_j > D_j.
func (s *Schedule) TotalWeightedUnitPenalty() float64 {
	var sum float64
	for j, t := range s.Tardiness() {
		if t > 0 {
			sum += s.Inst.Jobs[j].Weight
		}
	}
	return sum
}

// Energy returns the total energy cost of a speed-scaled schedule:
// sum over operations of duration * speed^PowerExp, where duration already
// reflects the chosen speed. For instances without speed levels it returns
// the total processing time (unit power).
func (s *Schedule) Energy() float64 {
	var sum float64
	for _, a := range s.Ops {
		dur := float64(a.End - a.Start)
		speed := 1.0
		if len(s.Inst.SpeedLevels) > 0 {
			speed = s.Inst.SpeedLevels[a.Speed]
		}
		exp := s.Inst.PowerExp
		if exp == 0 {
			exp = 1
		}
		sum += dur * pow(speed, exp)
	}
	return sum
}

func pow(base, exp float64) float64 {
	// Cheap positive-base power via exp/log would pull in math; speeds are
	// few and small integers of halves in practice, so iterate when integral.
	if exp == float64(int(exp)) && exp >= 0 {
		r := 1.0
		for i := 0; i < int(exp); i++ {
			r *= base
		}
		return r
	}
	return mathPow(base, exp)
}

// Validate enforces the Table I feasibility conditions:
//
//  1. each operation appears exactly once, on an eligible machine, with the
//     correct (possibly speed-scaled) processing time;
//  2. each machine processes at most one operation at a time (sequence-
//     dependent setups, when present, must also fit between consecutive
//     operations);
//  3. each job starts no earlier than its release date, a job occupies at
//     most one machine at a time, and for ordered environments operations
//     respect the technological order.
//
// Conditions 4 and 5 of Table I (no transfer times, infinite buffers) are
// modelling assumptions and need no runtime check.
func (s *Schedule) Validate() error {
	in := s.Inst
	if in == nil {
		return fmt.Errorf("shop: schedule has no instance")
	}
	seen := make(map[[2]int]bool, len(s.Ops))
	for _, a := range s.Ops {
		if a.Job < 0 || a.Job >= len(in.Jobs) {
			return fmt.Errorf("shop: assignment references job %d", a.Job)
		}
		if a.Op < 0 || a.Op >= len(in.Jobs[a.Job].Ops) {
			return fmt.Errorf("shop: job %d has no op %d", a.Job, a.Op)
		}
		key := [2]int{a.Job, a.Op}
		if seen[key] {
			return fmt.Errorf("shop: op (%d,%d) scheduled twice", a.Job, a.Op)
		}
		seen[key] = true
		p, ok := in.Jobs[a.Job].Ops[a.Op].TimeOn(a.Machine)
		if !ok {
			return fmt.Errorf("shop: op (%d,%d) on ineligible machine %d", a.Job, a.Op, a.Machine)
		}
		wantDur := p
		if len(in.SpeedLevels) > 0 {
			if a.Speed < 0 || a.Speed >= len(in.SpeedLevels) {
				return fmt.Errorf("shop: op (%d,%d) has speed index %d", a.Job, a.Op, a.Speed)
			}
			wantDur = ScaledDuration(p, in.SpeedLevels[a.Speed])
		}
		if in.BatchSize != nil {
			// Lot-streaming schedules are validated per sublot by the
			// decoder; whole-batch assignments scale by batch size.
			wantDur = 0 // duration is decoder-defined; only ordering checked
		}
		if wantDur > 0 && a.End-a.Start != wantDur {
			return fmt.Errorf("shop: op (%d,%d) duration %d, want %d",
				a.Job, a.Op, a.End-a.Start, wantDur)
		}
		if a.Start < in.Jobs[a.Job].Release {
			return fmt.Errorf("shop: op (%d,%d) starts %d before release %d",
				a.Job, a.Op, a.Start, in.Jobs[a.Job].Release)
		}
	}
	// Completeness: exactly one assignment per operation.
	if want := in.TotalOps(); len(seen) != want {
		return fmt.Errorf("shop: %d operations scheduled, instance has %d", len(seen), want)
	}

	// Condition 2: machine capacity one, with setups honoured.
	byMachine := make(map[int][]Assignment)
	for _, a := range s.Ops {
		byMachine[a.Machine] = append(byMachine[a.Machine], a)
	}
	for m, ops := range byMachine {
		sort.Slice(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
		for i := 1; i < len(ops); i++ {
			gapNeeded := in.SetupTime(m, ops[i-1].Job, ops[i].Job)
			if ops[i].Start < ops[i-1].End+gapNeeded {
				return fmt.Errorf("shop: machine %d overlap: (%d,%d)[%d,%d) then (%d,%d)[%d,%d) needs setup %d",
					m, ops[i-1].Job, ops[i-1].Op, ops[i-1].Start, ops[i-1].End,
					ops[i].Job, ops[i].Op, ops[i].Start, ops[i].End, gapNeeded)
			}
		}
	}

	// Condition 3: one machine per job at a time; technological order.
	byJob := make(map[int][]Assignment)
	for _, a := range s.Ops {
		byJob[a.Job] = append(byJob[a.Job], a)
	}
	for j, ops := range byJob {
		sort.Slice(ops, func(a, b int) bool { return ops[a].Start < ops[b].Start })
		for i := 1; i < len(ops); i++ {
			if ops[i].Start < ops[i-1].End {
				return fmt.Errorf("shop: job %d processed on two machines at once: ops %d and %d",
					j, ops[i-1].Op, ops[i].Op)
			}
		}
		if in.Kind.Ordered() {
			for i := 1; i < len(ops); i++ {
				if ops[i].Op < ops[i-1].Op {
					return fmt.Errorf("shop: job %d violates technological order (%d before %d)",
						j, ops[i-1].Op, ops[i].Op)
				}
			}
		}
	}
	return nil
}

// ScaledDuration returns the processing time under speed factor v, rounded
// up so faster speeds never finish later than the integral schedule allows.
func ScaledDuration(p int, v float64) int {
	d := int(float64(p)/v + 0.999999)
	if d < 1 {
		d = 1
	}
	return d
}

// Gantt renders an ASCII Gantt chart, one row per machine, scaled to at most
// width columns (width <= 0 selects 72). Each cell shows the job index mod 10.
func (s *Schedule) Gantt(width int) string {
	if width <= 0 {
		width = 72
	}
	ms := s.Makespan()
	if ms == 0 {
		return "(empty schedule)\n"
	}
	scale := 1.0
	if ms > width {
		scale = float64(width) / float64(ms)
	}
	cols := int(float64(ms)*scale) + 1
	rows := make([][]byte, s.Inst.NumMachines)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", cols))
	}
	for _, a := range s.Ops {
		lo := int(float64(a.Start) * scale)
		hi := int(float64(a.End) * scale)
		if hi <= lo {
			hi = lo + 1
		}
		for c := lo; c < hi && c < cols; c++ {
			rows[a.Machine][c] = byte('0' + a.Job%10)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "makespan=%d (1 col ~ %.1f time units)\n", ms, 1/scale)
	for m, row := range rows {
		fmt.Fprintf(&b, "M%02d |%s|\n", m, row)
	}
	return b.String()
}
