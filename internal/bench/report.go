// Package bench is the end-to-end quality suite over the instance
// registry and the solver layer: it sweeps instances x models x seeds
// through a solver.Pool, aggregates solution quality (best/mean objective,
// gap to the registry or heuristic reference, evaluations spent) into a
// structured JSON report, and diffs two reports under regression
// tolerances. The engines are deterministic by seed, so every field of an
// Entry reproduces exactly on any machine. Time is measured elsewhere:
// perfbench times whole jobs through the daemon, and BenchmarkHotPath
// (recorded in BENCH_hotpath.json) times the kernels and the engine step.
// cmd/benchsuite is the CLI; CI runs the smoke profile and diffs it
// against the committed BENCH_suite.json baseline.
package bench

import (
	"runtime"
	"time"
)

// Entry aggregates all runs of one (instance, model) cell of the sweep.
type Entry struct {
	Instance string `json:"instance"`
	Kind     string `json:"kind"`
	Model    string `json:"model"`
	Seeds    int    `json:"seeds"`

	// Best and Mean are the minimum and mean best-objective over seeds.
	// With the engines deterministic by seed, both are machine-independent
	// and diffable exactly; the tolerances exist for intentional algorithm
	// changes, not noise.
	Best float64 `json:"best"`
	Mean float64 `json:"mean"`

	// Reference anchors the gap: the registry's best-known makespan when
	// one exists (RefKind "optimal"/"best-known"), the survey's heuristic
	// Fbar otherwise ("heuristic", where negative gaps are expected).
	Reference float64 `json:"reference"`
	RefKind   string  `json:"ref_kind"`
	Gap       float64 `json:"gap"`      // (Best-Reference)/Reference
	MeanGap   float64 `json:"mean_gap"` // (Mean-Reference)/Reference

	// Evaluations totals the objective evaluations over all seeds of the
	// cell.
	Evaluations int64 `json:"evaluations"`
}

// Host records where a report was produced.
type Host struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
}

// Report is the suite outcome written to BENCH_suite.json.
type Report struct {
	Suite     string  `json:"suite"` // always "benchsuite"
	Profile   string  `json:"profile"`
	Generated string  `json:"generated,omitempty"` // RFC 3339; ignored by diff
	Host      Host    `json:"host"`
	Entries   []Entry `json:"entries"`
}

// Find returns the entry for an (instance, model) cell.
func (r *Report) Find(instance, model string) (Entry, bool) {
	for _, e := range r.Entries {
		if e.Instance == instance && e.Model == model {
			return e, true
		}
	}
	return Entry{}, false
}

func currentHost() Host {
	return Host{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
}

func newReport(profile string) *Report {
	return &Report{
		Suite:     "benchsuite",
		Profile:   profile,
		Generated: time.Now().UTC().Format(time.RFC3339),
		Host:      currentHost(),
	}
}
