package shop

import (
	"os"
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		FlowShop:         "flow-shop",
		JobShop:          "job-shop",
		OpenShop:         "open-shop",
		FlexibleFlowShop: "flexible-flow-shop",
		FlexibleJobShop:  "flexible-job-shop",
		Kind(99):         "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q want %q", int(k), got, want)
		}
	}
}

func TestKindPredicates(t *testing.T) {
	if OpenShop.Ordered() {
		t.Error("open shop must not be ordered")
	}
	for _, k := range []Kind{FlowShop, JobShop, FlexibleFlowShop, FlexibleJobShop} {
		if !k.Ordered() {
			t.Errorf("%v must be ordered", k)
		}
	}
	if FlowShop.Flexible() || JobShop.Flexible() || OpenShop.Flexible() {
		t.Error("basic kinds must not be flexible")
	}
	if !FlexibleFlowShop.Flexible() || !FlexibleJobShop.Flexible() {
		t.Error("flexible kinds must be flexible")
	}
}

func TestOperationTimeOn(t *testing.T) {
	op := Operation{Machines: []int{3, 5}, Times: []int{10, 7}}
	if p, ok := op.TimeOn(5); !ok || p != 7 {
		t.Errorf("TimeOn(5) = %d,%v", p, ok)
	}
	if _, ok := op.TimeOn(4); ok {
		t.Error("machine 4 should be ineligible")
	}
	if op.MinTime() != 7 {
		t.Errorf("MinTime = %d", op.MinTime())
	}
}

func TestJobTotalTime(t *testing.T) {
	j := Job{Ops: []Operation{
		{Machines: []int{0}, Times: []int{4}},
		{Machines: []int{1, 2}, Times: []int{9, 6}},
	}}
	if j.TotalTime() != 10 {
		t.Errorf("TotalTime = %d", j.TotalTime())
	}
}

func validInstance() *Instance {
	return GenerateJobShop("t", 4, 3, 100, 200)
}

func TestValidateAcceptsGenerated(t *testing.T) {
	gens := []*Instance{
		GenerateFlowShop("f", 6, 4, 1234),
		GenerateJobShop("j", 6, 4, 1234, 4321),
		GenerateOpenShop("o", 6, 4, 1234),
		GenerateFlexibleJobShop("fj", 5, 4, 3, 3, 777),
		GenerateFlexibleFlowShop("ff", 5, []int{2, 3, 1}, true, 888),
		FT06(),
	}
	for _, in := range gens {
		if err := in.Validate(); err != nil {
			t.Errorf("%s: %v", in.Name, err)
		}
	}
}

func TestValidateRejectsBroken(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Instance
		want  string
	}{
		{"no machines", func() *Instance { in := validInstance(); in.NumMachines = 0; return in }, "no machines"},
		{"no jobs", func() *Instance { in := validInstance(); in.Jobs = nil; return in }, "no jobs"},
		{"empty job", func() *Instance { in := validInstance(); in.Jobs[0].Ops = nil; return in }, "no operations"},
		{"negative release", func() *Instance { in := validInstance(); in.Jobs[1].Release = -1; return in }, "negative release"},
		{"negative weight", func() *Instance { in := validInstance(); in.Jobs[1].Weight = -2; return in }, "negative weight"},
		{"no eligible machines", func() *Instance {
			in := validInstance()
			in.Jobs[0].Ops[0].Machines = nil
			return in
		}, "no eligible machines"},
		{"mismatched times", func() *Instance {
			in := validInstance()
			in.Jobs[0].Ops[0].Times = []int{1, 2}
			return in
		}, "machines but"},
		{"machine out of range", func() *Instance {
			in := validInstance()
			in.Jobs[0].Ops[0].Machines = []int{99}
			return in
		}, "references machine"},
		{"non-positive time", func() *Instance {
			in := validInstance()
			in.Jobs[0].Ops[0].Times = []int{0}
			return in
		}, "non-positive time"},
		{"flexible op in job shop", func() *Instance {
			in := validInstance()
			in.Jobs[0].Ops[0] = Operation{Machines: []int{0, 1}, Times: []int{3, 4}}
			return in
		}, "non-flexible"},
		{"bad setup shape", func() *Instance {
			in := validInstance()
			in.Setup = [][][]int{{{1}}}
			return in
		}, "setup tensor"},
		{"negative setup", func() *Instance {
			in := WithSetupTimes(validInstance(), 1, 5, 99)
			in.Setup[0][0][0] = -1
			return in
		}, "negative setup"},
		{"bad batch sizes", func() *Instance {
			in := validInstance()
			in.BatchSize = []int{1}
			return in
		}, "batch sizes"},
		{"bad speed level", func() *Instance {
			in := validInstance()
			in.SpeedLevels = []float64{1, 0}
			return in
		}, "speed level"},
	}
	for _, tc := range cases {
		err := tc.build().Validate()
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := GenerateJobShop("a", 8, 5, 42, 24)
	b := GenerateJobShop("b", 8, 5, 42, 24)
	for j := range a.Jobs {
		for s := range a.Jobs[j].Ops {
			if a.Jobs[j].Ops[s].Machines[0] != b.Jobs[j].Ops[s].Machines[0] ||
				a.Jobs[j].Ops[s].Times[0] != b.Jobs[j].Ops[s].Times[0] {
				t.Fatalf("job shop generation not deterministic at (%d,%d)", j, s)
			}
		}
	}
	c := GenerateJobShop("c", 8, 5, 43, 24)
	same := true
	for j := range a.Jobs {
		for s := range a.Jobs[j].Ops {
			if a.Jobs[j].Ops[s].Times[0] != c.Jobs[j].Ops[s].Times[0] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical times")
	}
}

func TestJobShopRoutingIsPermutation(t *testing.T) {
	in := GenerateJobShop("j", 10, 7, 55, 66)
	for j, job := range in.Jobs {
		seen := make([]bool, in.NumMachines)
		for _, op := range job.Ops {
			m := op.Machines[0]
			if seen[m] {
				t.Fatalf("job %d visits machine %d twice", j, m)
			}
			seen[m] = true
		}
	}
}

func TestFlowShopIdenticalRouting(t *testing.T) {
	in := GenerateFlowShop("f", 5, 4, 77)
	for j, job := range in.Jobs {
		for s, op := range job.Ops {
			if op.Machines[0] != s {
				t.Fatalf("job %d op %d on machine %d, want %d", j, s, op.Machines[0], s)
			}
		}
	}
}

func TestFlexibleJobShopEligibilityDistinct(t *testing.T) {
	in := GenerateFlexibleJobShop("fj", 6, 5, 4, 4, 909)
	for j, job := range in.Jobs {
		for s, op := range job.Ops {
			seen := map[int]bool{}
			for _, m := range op.Machines {
				if seen[m] {
					t.Fatalf("job %d op %d: duplicate eligible machine %d", j, s, m)
				}
				seen[m] = true
			}
			if len(op.Machines) < 1 || len(op.Machines) > 4 {
				t.Fatalf("job %d op %d: %d eligible machines", j, s, len(op.Machines))
			}
		}
	}
}

func TestFlexibleFlowShopStages(t *testing.T) {
	in := GenerateFlexibleFlowShop("ff", 4, []int{2, 3}, false, 11)
	if in.NumMachines != 5 {
		t.Fatalf("NumMachines = %d", in.NumMachines)
	}
	if len(in.Stages) != 2 || len(in.Stages[0]) != 2 || len(in.Stages[1]) != 3 {
		t.Fatalf("Stages = %v", in.Stages)
	}
	// Identical machines: all times in a stage equal.
	for j, job := range in.Jobs {
		for s, op := range job.Ops {
			for _, tt := range op.Times {
				if tt != op.Times[0] {
					t.Fatalf("job %d stage %d: unequal identical-machine times %v", j, s, op.Times)
				}
			}
		}
	}
	un := GenerateFlexibleFlowShop("ffu", 12, []int{4, 4}, true, 12)
	diff := false
	for _, job := range un.Jobs {
		for _, op := range job.Ops {
			for _, tt := range op.Times {
				if tt != op.Times[0] {
					diff = true
				}
			}
		}
	}
	if !diff {
		t.Error("unrelated machines produced identical times everywhere")
	}
}

func TestWithExtensions(t *testing.T) {
	in := GenerateFlowShop("x", 5, 3, 500)
	WithReleases(in, 20, 501)
	WithDueDates(in, 1.5)
	WithSetupTimes(in, 2, 8, 503)
	WithBatchSizes(in, 10, 50, 504)
	WithSpeedLevels(in, []float64{1, 1.5, 2}, 2)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	for j, job := range in.Jobs {
		if job.Due < job.Release+job.TotalTime() {
			t.Errorf("job %d: due %d below release+work %d", j, job.Due, job.Release+job.TotalTime())
		}
	}
	if in.SetupTime(0, 1, 2) < 2 || in.SetupTime(0, 1, 2) > 8 {
		t.Errorf("setup time out of range: %d", in.SetupTime(0, 1, 2))
	}
	if got := (&Instance{}).SetupTime(0, 0, 0); got != 0 {
		t.Errorf("SetupTime without setup data = %d", got)
	}
}

func TestFT06Shape(t *testing.T) {
	in := FT06()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.NumJobs() != 6 || in.NumMachines != 6 || in.TotalOps() != 36 {
		t.Fatalf("ft06 shape wrong: %d jobs %d machines %d ops",
			in.NumJobs(), in.NumMachines, in.TotalOps())
	}
	lb := in.LowerBoundMakespan()
	if lb <= 0 || lb > FT06Optimum {
		t.Fatalf("lower bound %d inconsistent with optimum %d", lb, FT06Optimum)
	}
}

func TestLowerBoundRespectsRelease(t *testing.T) {
	in := GenerateFlowShop("r", 3, 2, 321)
	base := in.LowerBoundMakespan()
	in.Jobs[0].Release = 10000
	if lb := in.LowerBoundMakespan(); lb < 10000 || lb < base {
		t.Errorf("release-date bound not applied: %d", lb)
	}
}

func TestOpsPerJob(t *testing.T) {
	in := GenerateFlexibleJobShop("fj", 3, 4, 5, 2, 31)
	for _, c := range in.OpsPerJob() {
		if c != 5 {
			t.Fatalf("OpsPerJob = %v", in.OpsPerJob())
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := WithSetupTimes(GenerateFlexibleJobShop("rt", 4, 3, 3, 2, 606), 1, 4, 607)
	data, err := in.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != in.Name || back.Kind != in.Kind || back.NumMachines != in.NumMachines {
		t.Fatalf("header mismatch: %+v", back)
	}
	if back.TotalOps() != in.TotalOps() {
		t.Fatalf("ops mismatch: %d vs %d", back.TotalOps(), in.TotalOps())
	}
	if back.SetupTime(1, 2, 3) != in.SetupTime(1, 2, 3) {
		t.Fatal("setup times lost in round trip")
	}
}

func TestFromJSONRejectsInvalid(t *testing.T) {
	if _, err := FromJSON([]byte("{not json")); err == nil {
		t.Error("expected decode error")
	}
	if _, err := FromJSON([]byte(`{"name":"x","kind":0,"num_machines":0,"jobs":[]}`)); err == nil {
		t.Error("expected validation error")
	}
}

func TestSaveLoadFile(t *testing.T) {
	in := GenerateFlowShop("file", 3, 2, 808)
	path := t.TempDir() + "/inst.json"
	data, err := in.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "file" {
		t.Fatalf("loaded %q", back.Name)
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Error("expected error for missing file")
	}
}
