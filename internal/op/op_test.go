package op

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/rng"
)

func isPermutation(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func sameMultiset(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[int]int{}
	for _, v := range a {
		count[v]++
	}
	for _, v := range b {
		count[v]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestPermutationCrossoversPreserveValidity(t *testing.T) {
	r := rng.New(100)
	ops := map[string]core.Crossover[[]int]{
		"PMX": PMX, "OX": OX, "LOX": LOX, "CX": CX,
	}
	for name, cross := range ops {
		for trial := 0; trial < 200; trial++ {
			n := r.Intn(20) + 2
			a, b := r.Perm(n), r.Perm(n)
			ac := append([]int(nil), a...)
			bc := append([]int(nil), b...)
			c1, c2 := cross(r, a, b)
			if !isPermutation(c1) || !isPermutation(c2) {
				t.Fatalf("%s produced invalid child: %v / %v", name, c1, c2)
			}
			// Parents untouched.
			for i := range a {
				if a[i] != ac[i] || b[i] != bc[i] {
					t.Fatalf("%s modified a parent", name)
				}
			}
		}
	}
}

func TestPMXKeepsSegment(t *testing.T) {
	a := []int{0, 1, 2, 3, 4}
	b := []int{4, 3, 2, 1, 0}
	c := pmxChild(a, b, 1, 3)
	if c[1] != b[1] || c[2] != b[2] {
		t.Fatalf("segment not copied: %v", c)
	}
	if !isPermutation(c) {
		t.Fatalf("invalid child %v", c)
	}
}

func TestCXPositionsFromParents(t *testing.T) {
	r := rng.New(101)
	for trial := 0; trial < 100; trial++ {
		n := r.Intn(15) + 2
		a, b := r.Perm(n), r.Perm(n)
		c1, c2 := CX(r, a, b)
		for i := range a {
			if c1[i] != a[i] && c1[i] != b[i] {
				t.Fatalf("CX child1[%d]=%d from neither parent", i, c1[i])
			}
			if c2[i] != a[i] && c2[i] != b[i] {
				t.Fatalf("CX child2[%d]=%d from neither parent", i, c2[i])
			}
		}
	}
}

func randomOpSeq(r *rng.RNG, jobs, opsPer int) []int {
	seq := make([]int, 0, jobs*opsPer)
	for j := 0; j < jobs; j++ {
		for k := 0; k < opsPer; k++ {
			seq = append(seq, j)
		}
	}
	r.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

func TestSequenceCrossoversPreserveMultiset(t *testing.T) {
	r := rng.New(102)
	const jobs, opsPer = 6, 4
	cross := JOX(jobs)
	for trial := 0; trial < 150; trial++ {
		a := randomOpSeq(r, jobs, opsPer)
		b := randomOpSeq(r, jobs, opsPer)
		c1, c2 := cross(r, a, b)
		if !sameMultiset(a, c1) || !sameMultiset(a, c2) {
			t.Fatal("JOX broke the token multiset")
		}
	}
}

func TestKeysCrossovers(t *testing.T) {
	r := rng.New(104)
	a := []float64{0.1, 0.2, 0.3, 0.4}
	b := []float64{0.9, 0.8, 0.7, 0.6}
	c1, c2 := ParameterizedUniformKeys(0.8)(r, a, b)
	for i := range a {
		if (c1[i] != a[i] && c1[i] != b[i]) || (c2[i] != a[i] && c2[i] != b[i]) {
			t.Fatal("parameterized: key from neither parent")
		}
		if (c1[i] == a[i]) != (c2[i] == b[i]) {
			t.Fatal("parameterized: children not complementary")
		}
	}
}

func TestParameterizedBias(t *testing.T) {
	r := rng.New(105)
	a := make([]float64, 1000)
	b := make([]float64, 1000)
	for i := range a {
		a[i], b[i] = 1, 0
	}
	c1, _ := ParameterizedUniformKeys(0.9)(r, a, b)
	ones := 0
	for _, v := range c1 {
		if v == 1 {
			ones++
		}
	}
	if ones < 850 || ones > 950 {
		t.Errorf("bias 0.9 gave %d/1000 keys from the first parent", ones)
	}
}

func TestIntMutationsPreserveMultiset(t *testing.T) {
	r := rng.New(106)
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		g := make([]int, len(raw))
		for i, v := range raw {
			g[i] = int(v)
		}
		c := append([]int(nil), g...)
		SwapMutation(r, c)
		return sameMultiset(g, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResetWithin(t *testing.T) {
	r := rng.New(108)
	limits := []int{3, 1, 5, 2}
	mut := ResetWithin(limits)
	g := []int{0, 0, 0, 0}
	for trial := 0; trial < 200; trial++ {
		mut(r, g)
		for i, v := range g {
			if v < 0 || v >= limits[i] {
				t.Fatalf("position %d got %d, limit %d", i, v, limits[i])
			}
		}
	}
	mut(r, nil) // must not panic
}

func TestGaussianAndResetKeys(t *testing.T) {
	r := rng.New(109)
	g := make([]float64, 100)
	GaussianKeys(0.1, 1.0)(r, g)
	changed := 0
	for _, v := range g {
		if v != 0 {
			changed++
		}
	}
	if changed < 90 {
		t.Errorf("perKey=1 changed only %d keys", changed)
	}
}

func fitPop(fits ...float64) []core.Individual[int] {
	pop := make([]core.Individual[int], len(fits))
	for i, f := range fits {
		pop[i] = core.Individual[int]{Genome: i, Fit: f, Obj: -f}
	}
	return pop
}

func TestTournamentFavorsFit(t *testing.T) {
	r := rng.New(110)
	pop := fitPop(1, 2, 3, 4, 100)
	sel := Tournament[int](3)
	hits := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if sel(r, pop) == 4 {
			hits++
		}
	}
	// P(best in 3 draws) = 1-(4/5)^3 = 0.488.
	if hits < trials/3 || hits > 2*trials/3 {
		t.Errorf("best picked %d/%d times", hits, trials)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k=0")
		}
	}()
	Tournament[int](0)
}

func TestRouletteProportional(t *testing.T) {
	r := rng.New(111)
	pop := fitPop(1, 3)
	sel := RouletteWheel[int]()
	count := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if sel(r, pop) == 1 {
			count++
		}
	}
	got := float64(count) / trials
	if math.Abs(got-0.75) > 0.02 {
		t.Errorf("heavier individual frequency = %v, want ~0.75", got)
	}
	// Zero-fitness fallback must be uniform, not panic.
	zero := fitPop(0, 0, 0)
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[sel(r, zero)] = true
	}
	if len(seen) < 2 {
		t.Error("zero-fitness roulette not uniform")
	}
}
