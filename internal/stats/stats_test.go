package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Errorf("N = %d", s.N)
	}
	if !almost(s.Mean, 5, 1e-12) {
		t.Errorf("Mean = %v", s.Mean)
	}
	// Sample std with n-1: variance = 32/7
	if !almost(s.Std, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("Std = %v", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if !almost(s.Median, 4.5, 1e-12) {
		t.Errorf("Median = %v", s.Median)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.Std != 0 || s.Median != 3 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	s := Summarize([]float64{9, 1, 5})
	if s.Median != 5 {
		t.Errorf("Median = %v", s.Median)
	}
}

func TestMeanStdMinMax(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if s := Summarize(xs); s.Mean != 2.5 {
		t.Errorf("Mean = %v", s.Mean)
	}
	if Min(xs) != 1 || Max(xs) != 4 {
		t.Errorf("Min/Max wrong")
	}
}

func TestRPD(t *testing.T) {
	if got := RPD(110, 100); !almost(got, 10, 1e-12) {
		t.Errorf("RPD = %v", got)
	}
	if got := RPD(55, 55); got != 0 {
		t.Errorf("RPD of equal = %v", got)
	}
	if got := RPD(5, 0); got != 0 {
		t.Errorf("RPD with zero ref = %v", got)
	}
}

func TestSpeedupEfficiency(t *testing.T) {
	if got := Speedup(100, 25); got != 4 {
		t.Errorf("Speedup = %v", got)
	}
	if !math.IsInf(Speedup(1, 0), 1) {
		t.Errorf("Speedup with zero parallel time should be +Inf")
	}
}

func TestHammingDistance(t *testing.T) {
	if d := HammingDistance([]int{1, 2, 3}, []int{1, 0, 3}); d != 1 {
		t.Errorf("d = %d", d)
	}
	if d := HammingDistance([]int{}, []int{}); d != 0 {
		t.Errorf("empty d = %d", d)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	HammingDistance([]int{1}, []int{1, 2})
}

func TestHammingSymmetry(t *testing.T) {
	f := func(a, b []int8) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		x := make([]int, n)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			x[i], y[i] = int(a[i]), int(b[i])
		}
		return HammingDistance(x, y) == HammingDistance(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPositionalEntropy(t *testing.T) {
	converged := [][]int{{1, 2}, {1, 2}, {1, 2}}
	if e := PositionalEntropy(converged); e != 0 {
		t.Errorf("converged entropy = %v", e)
	}
	// Two symbols at 50/50 at each position: normalised entropy 1.
	diverse := [][]int{{0, 0}, {1, 1}}
	if e := PositionalEntropy(diverse); !almost(e, 1, 1e-12) {
		t.Errorf("max entropy = %v", e)
	}
	if e := PositionalEntropy(nil); e != 0 {
		t.Errorf("nil entropy = %v", e)
	}
}

func TestEntropyBetweenBounds(t *testing.T) {
	f := func(raw [][]int8) bool {
		if len(raw) < 2 {
			return true
		}
		// Build a rectangular population.
		width := 5
		pop := make([][]int, 0, len(raw))
		for _, row := range raw {
			g := make([]int, width)
			for i := 0; i < width && i < len(row); i++ {
				g[i] = int(row[i])
			}
			pop = append(pop, g)
		}
		e := PositionalEntropy(pop)
		return e >= 0 && e <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
