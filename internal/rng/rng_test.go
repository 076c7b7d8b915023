package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewNonZeroState(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, math.MaxUint64} {
		r := New(seed)
		if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
			t.Fatalf("seed %d produced all-zero state", seed)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical outputs from different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first output")
	}
}

func TestSplitNMatchesSequentialSplits(t *testing.T) {
	// SplitN(n) must be exactly n Split calls: same substream seeds, same
	// parent advancement — the engine relies on this to document the
	// sharded pipeline's substream scheme in one place.
	a, b := New(31), New(31)
	streams := a.SplitN(5)
	for i := 0; i < 5; i++ {
		want := b.Split()
		if streams[i].Uint64() != want.Uint64() {
			t.Fatalf("SplitN stream %d diverges from sequential Split", i)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("SplitN advanced the parent differently from 5 Splits")
	}
}

func TestSplitNSiblingsIndependent(t *testing.T) {
	streams := New(7).SplitN(8)
	seen := map[uint64]int{}
	for i, s := range streams {
		v := s.Uint64()
		if j, dup := seen[v]; dup {
			t.Fatalf("substreams %d and %d share their first output", j, i)
		}
		seen[v] = i
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(99)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(5)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	f := func(n uint8) bool {
		m := int(n%50) + 1
		p := r.Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(17)
	xs := []int{1, 2, 2, 3, 3, 3, 9}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum2 := 0
	for _, x := range xs {
		sum2 += x
	}
	if sum != sum2 {
		t.Fatalf("shuffle changed contents: %v", xs)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(23)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(29)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", got)
	}
}

func TestStateRoundTrip(t *testing.T) {
	r := New(42)
	// Advance through every state-bearing path, including the Gaussian
	// cache, so the captured state is mid-pair.
	for i := 0; i < 100; i++ {
		_ = r.Uint64()
	}
	_ = r.NormFloat64() // leaves the second deviate cached
	st := r.State()

	resumed := New(1)
	resumed.SetState(st)
	for i := 0; i < 200; i++ {
		if a, b := r.NormFloat64(), resumed.NormFloat64(); a != b {
			t.Fatalf("draw %d: NormFloat64 diverged: %v vs %v", i, a, b)
		}
		if a, b := r.Uint64(), resumed.Uint64(); a != b {
			t.Fatalf("draw %d: Uint64 diverged: %v vs %v", i, a, b)
		}
		if a, b := r.Intn(97), resumed.Intn(97); a != b {
			t.Fatalf("draw %d: Intn diverged: %v vs %v", i, a, b)
		}
	}
}

func TestSetStateMidStream(t *testing.T) {
	r := New(7)
	for i := 0; i < 10; i++ {
		_ = r.Uint64()
	}
	st := r.State()
	want := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
	// Rewind the SAME stream and replay.
	r.SetState(st)
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("replayed draw %d = %v, want %v", i, got, w)
		}
	}
}

func TestSetStateAllZeroEscapes(t *testing.T) {
	r := New(1)
	r.SetState(State{})
	if a, b := r.Uint64(), r.Uint64(); a == 0 && b == 0 {
		t.Fatal("all-zero state was not escaped")
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}

func BenchmarkPerm100(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Perm(100)
	}
}
