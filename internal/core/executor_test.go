package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines fails t unless the goroutine count drops back to baseline
// within five seconds.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after every executor closed, %d before: workers leaked",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExecutorRunCallsEveryExecutorOnce: each Run calls fn once for every
// executor and returns only after the last call, whether the workers are
// caught polling (back to back), parked (a pause far past the poll window)
// or freshly respawned after a Close. Once closed, the workers exit.
func TestExecutorRunCallsEveryExecutorOnce(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, width := range []int{0, 1, 2, 3, 8} {
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			x := NewExecutor(width)
			defer x.Close()
			calls := make([]atomic.Int32, max(width, 1))
			for step := 1; step <= 30; step++ {
				switch {
				case step%10 == 0:
					x.Close()
					x.Close()
				case step%3 == 0:
					time.Sleep(2 * time.Millisecond)
				}
				x.Run(func(exec int) {
					if exec > 0 {
						time.Sleep(50 * time.Microsecond) // the caller must wait for it
					}
					calls[exec].Add(1)
				})
				for k := range calls {
					if got := calls[k].Load(); got != int32(step) {
						t.Fatalf("step %d: executor %d ran %d times, want %d", step, k, got, step)
					}
				}
			}
		})
	}
	waitGoroutines(t, baseline)
}

// TestExecutorForClaimsEachIndexOnce: For runs body exactly once per index
// whatever n is relative to the width, and the executors share one cursor:
// while index 0 is held back, the others must still claim and run the rest
// of the indices.
func TestExecutorForClaimsEachIndexOnce(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, width := range []int{1, 2, 4} {
		x := NewExecutor(width)
		for _, n := range []int{0, 1, 3, 17, 100} {
			counts := make([]atomic.Int32, n)
			var others atomic.Int32
			timedOut := false
			x.For(n, func(i int) {
				if i == 0 && width > 1 && n > 1 {
					deadline := time.Now().Add(5 * time.Second)
					for others.Load() < int32(n-1) && !time.Now().After(deadline) {
						runtime.Gosched()
					}
					timedOut = others.Load() < int32(n-1)
				} else {
					others.Add(1)
				}
				counts[i].Add(1)
			})
			if timedOut {
				t.Errorf("width %d n %d: other executors stalled behind index 0", width, n)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("width %d n %d: index %d ran %d times", width, n, i, c)
				}
			}
		}
		x.Close()
	}
	waitGoroutines(t, baseline)
}

// TestExecutorNested: a unit may drive an executor of its own — a hybrid
// deme stepping its partitioned grid — while the outer executor runs.
func TestExecutorNested(t *testing.T) {
	baseline := runtime.NumGoroutine()
	outer := NewExecutor(3)
	inner := make([]*Executor, 5)
	for i := range inner {
		inner[i] = NewExecutor(2)
	}
	sums := make([]int64, len(inner))
	for step := 0; step < 20; step++ {
		outer.For(len(inner), func(i int) {
			var part [2]int64
			inner[i].Run(func(exec int) { part[exec] = int64(exec + 1) })
			sums[i] += part[0] + part[1]
		})
	}
	for i, s := range sums {
		if s != 60 {
			t.Errorf("unit %d: sum %d, want 60", i, s)
		}
	}
	outer.Close()
	for _, x := range inner {
		x.Close()
	}
	waitGoroutines(t, baseline)
}
