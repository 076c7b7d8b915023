package solver

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/shop"
)

// TestGoldenResults pins every registered model's outcome on smallSpec at
// its fixed seed, at workers 1 and 2, to recorded values: a refactor of how
// a model executes must leave what it computes bit-identical. Every model
// except qga must also report a BestObjective equal to re-evaluating the
// returned schedule; qga's objective is an expected makespan over its
// scenarios, not the makespan of one schedule.
func TestGoldenResults(t *testing.T) {
	type outcome struct {
		obj      float64
		evals    int64
		gens     int
		makespan int
	}
	golden := map[string]outcome{
		"serial":   {366, 504, 20, 366},
		"ms":       {366, 504, 20, 366},
		"island":   {391, 520, 20, 391},
		"cellular": {386, 525, 20, 386},
		"hybrid":   {355, 2100, 20, 355},
		"agents":   {388, 768, 20, 388},
		"qga":      {380, 480, 20, 381},
	}
	for _, name := range Names() {
		want, ok := golden[name]
		for _, w := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers-%d", name, w), func(t *testing.T) {
				spec := smallSpec(name)
				spec.Params.Workers = w
				res, err := Solve(context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				got := outcome{res.BestObjective, res.Evaluations, res.Generations, res.Schedule.Makespan()}
				if !ok {
					t.Fatalf("no golden result for model %q; got %#v", name, got)
				}
				if got != want {
					t.Errorf("result %+v, golden %+v", got, want)
				}
				if name != "qga" {
					if re := shop.Makespan(res.Schedule); re != res.BestObjective {
						t.Errorf("BestObjective %v, but the returned schedule evaluates to %v", res.BestObjective, re)
					}
				}
			})
		}
	}
}
