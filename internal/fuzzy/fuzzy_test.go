package fuzzy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNewValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for descending TFN")
		}
	}()
	New(3, 2, 1)
}

func TestAddAndMax(t *testing.T) {
	a := New(1, 2, 3)
	b := New(2, 3, 10)
	sum := a.Add(b)
	if sum != (TFN{3, 5, 13}) {
		t.Errorf("Add = %+v", sum)
	}
	mx := a.Max(b)
	if mx != (TFN{2, 3, 10}) {
		t.Errorf("Max = %+v", mx)
	}
}

func TestPossibilityCases(t *testing.T) {
	early := New(1, 2, 3)
	late := New(10, 12, 14)
	if got := Possibility(early, late); got != 1 {
		t.Errorf("clearly early possibility = %v", got)
	}
	if got := Possibility(late, early); got != 0 {
		t.Errorf("clearly late possibility = %v", got)
	}
	// Overlapping: value strictly between 0 and 1.
	a := New(4, 6, 8)
	b := New(3, 5, 7)
	p := Possibility(a, b)
	if p <= 0 || p >= 1 {
		t.Errorf("overlap possibility = %v", p)
	}
}

func TestNecessityWeakerThanPossibility(t *testing.T) {
	r := rng.New(1)
	f := func(raw [6]uint8) bool {
		mk := func(i int) TFN {
			lo := float64(raw[i])
			mid := lo + float64(raw[i+1]%50)
			hi := mid + float64(raw[i+2]%50)
			return New(lo, mid, hi)
		}
		a, b := mk(0), mk(3)
		pos := Possibility(a, b)
		nec := Necessity(a, b)
		if nec > pos+1e-9 {
			return false
		}
		ag := Agreement(a, b)
		return ag >= 0 && ag <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestAgreementExtremes(t *testing.T) {
	if got := Agreement(New(1, 2, 3), New(50, 60, 70)); got != 1 {
		t.Errorf("certainly on-time agreement = %v", got)
	}
	if got := Agreement(New(50, 60, 70), New(1, 2, 3)); got != 0 {
		t.Errorf("certainly late agreement = %v", got)
	}
}

func TestGenerateShape(t *testing.T) {
	f := Generate(6, 4, 0.2, 1.5, 4242)
	if f.Jobs() != 6 || f.Machines() != 4 {
		t.Fatalf("shape %dx%d", f.Jobs(), f.Machines())
	}
	for j := range f.Times {
		for _, tt := range f.Times[j] {
			if !(tt.A <= tt.B && tt.B <= tt.C) || tt.A <= 0 {
				t.Fatalf("invalid generated TFN %+v", tt)
			}
		}
		if f.Due[j].B <= 0 {
			t.Fatalf("invalid due date %+v", f.Due[j])
		}
	}
	// Deterministic generation.
	g := Generate(6, 4, 0.2, 1.5, 4242)
	if g.Times[3][2] != f.Times[3][2] {
		t.Fatal("generation not deterministic")
	}
}

func TestCompletionsMonotone(t *testing.T) {
	f := Generate(5, 3, 0.1, 1.2, 777)
	perm := []int{0, 1, 2, 3, 4}
	comps := f.Completions(perm)
	ms := f.Makespan(perm)
	for j, c := range comps {
		if c.B > ms.B+1e-9 {
			t.Errorf("job %d completion %v exceeds makespan %v", j, c.B, ms.B)
		}
		if !(c.A <= c.B && c.B <= c.C) {
			t.Errorf("job %d completion not a TFN: %+v", j, c)
		}
	}
	// The first job's completion equals the sum of its times.
	want := TFN{}
	for _, tt := range f.Times[0] {
		want = want.Add(tt)
	}
	if math.Abs(comps[0].B-want.B) > 1e-9 {
		t.Errorf("first job completion %v, want %v", comps[0].B, want.B)
	}
}

func TestObjectiveOrdering(t *testing.T) {
	// Loose due dates must score better (lower) than tight ones for the
	// same permutation.
	loose := Generate(6, 3, 0.2, 3.0, 31)
	tight := Generate(6, 3, 0.2, 0.8, 31)
	perm := []int{0, 1, 2, 3, 4, 5}
	if loose.Objective(perm) >= tight.Objective(perm) {
		t.Errorf("loose %v should beat tight %v", loose.Objective(perm), tight.Objective(perm))
	}
	// Objective is strictly positive (engine fitness safety).
	if loose.Objective(perm) <= 0 {
		t.Errorf("objective must stay positive: %v", loose.Objective(perm))
	}
}

func TestPermFromKeys(t *testing.T) {
	perm := PermFromKeys([]float64{0.9, 0.1, 0.5})
	want := []int{1, 2, 0}
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("perm = %v", perm)
		}
	}
	// Ties break toward lower index (stability).
	perm = PermFromKeys([]float64{0.5, 0.5, 0.1})
	if perm[1] != 0 || perm[2] != 1 {
		t.Fatalf("tie-break perm = %v", perm)
	}
}

func TestProblemIntegration(t *testing.T) {
	f := Generate(8, 4, 0.15, 1.3, 555)
	p := Problem(f)
	r := rng.New(9)
	g := p.Random(r)
	if len(g) != 8 {
		t.Fatalf("genome length %d", len(g))
	}
	v := p.Evaluate(g)
	if v <= 0 || v > 1.1 {
		t.Fatalf("objective %v out of range", v)
	}
	c := p.Clone(g)
	c[0] = 99
	if g[0] == 99 {
		t.Fatal("clone shares storage")
	}
}
