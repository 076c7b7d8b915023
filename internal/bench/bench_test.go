package bench

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

func tinyProfile() Profile {
	return Profile{
		Name:   "tiny",
		Models: []string{"serial", "ms"},
		Seeds:  2,
		Workloads: []Workload{
			{Instance: "ft06", Pop: 30, Generations: 15},
			{Instance: "fjs-sm", Pop: 30, Generations: 15},
		},
	}
}

// TestRunProfileShape: the sweep covers every (workload, model) cell in
// order, with references, gaps and evaluation counts populated.
func TestRunProfileShape(t *testing.T) {
	rep, err := RunProfile(context.Background(), tinyProfile(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Suite != "benchsuite" || rep.Profile != "tiny" {
		t.Fatalf("header %q/%q", rep.Suite, rep.Profile)
	}
	if len(rep.Entries) != 4 {
		t.Fatalf("%d entries, want 4", len(rep.Entries))
	}
	wantOrder := [][2]string{
		{"ft06", "serial"}, {"ft06", "ms"}, {"fjs-sm", "serial"}, {"fjs-sm", "ms"},
	}
	for i, e := range rep.Entries {
		if e.Instance != wantOrder[i][0] || e.Model != wantOrder[i][1] {
			t.Errorf("entry %d is %s/%s, want %s/%s", i, e.Instance, e.Model,
				wantOrder[i][0], wantOrder[i][1])
		}
		if e.Seeds != 2 || e.Evaluations <= 0 || e.Best <= 0 || e.Mean < e.Best {
			t.Errorf("%s/%s: implausible aggregates %+v", e.Instance, e.Model, e)
		}
		if e.Reference <= 0 {
			t.Errorf("%s/%s: missing reference %+v", e.Instance, e.Model, e)
		}
	}
	ft06, _ := rep.Find("ft06", "serial")
	if ft06.RefKind != "optimal" || ft06.Reference != 55 {
		t.Errorf("ft06 reference %v/%s, want 55/optimal", ft06.Reference, ft06.RefKind)
	}
	fjs, _ := rep.Find("fjs-sm", "ms")
	if fjs.RefKind != "heuristic" {
		t.Errorf("fjs-sm ref kind %s, want heuristic", fjs.RefKind)
	}
}

// TestRunDeterministicQuality: two runs of the same profile at different
// pool widths produce identical entries, field for field (the suite's
// cross-machine diff contract: a report holds nothing host-dependent).
func TestRunDeterministicQuality(t *testing.T) {
	a, err := RunProfile(context.Background(), tinyProfile(), Options{PoolWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunProfile(context.Background(), tinyProfile(), Options{PoolWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("%d vs %d entries", len(a.Entries), len(b.Entries))
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			t.Errorf("entry %d differs across pool widths:\n 4: %+v\n 1: %+v",
				i, a.Entries[i], b.Entries[i])
		}
	}
}

// TestRunRejectsBadInput: unknown models and profiles fail fast.
func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(context.Background(), Options{Profile: "bogus"}); err == nil {
		t.Error("bogus profile accepted")
	}
	prof := tinyProfile()
	prof.Models = []string{"not-a-model"}
	if _, err := RunProfile(context.Background(), prof, Options{}); err == nil {
		t.Error("bogus model accepted")
	}
}

func twoEntryReport(best, mean float64) *Report {
	return &Report{
		Suite: "benchsuite", Profile: "smoke",
		Entries: []Entry{
			{Instance: "ft06", Model: "island", Best: best, Mean: mean},
			{Instance: "ft10", Model: "island", Best: 960, Mean: 980},
		},
	}
}

// TestCompareFlagsInjectedRegression: a fabricated current report whose
// quality drifted beyond tolerance must be flagged; equal or improved
// reports must pass.
func TestCompareFlagsInjectedRegression(t *testing.T) {
	base := twoEntryReport(55, 57)

	if _, n := Compare(base, twoEntryReport(55, 57), DefaultTolerance()); n != 0 {
		t.Errorf("identical reports: %d regressions", n)
	}
	if _, n := Compare(base, twoEntryReport(55, 55), DefaultTolerance()); n != 0 {
		t.Errorf("improved quality: %d regressions", n)
	}

	worse := twoEntryReport(66, 70) // +20% best, +22.8% mean
	deltas, n := Compare(base, worse, DefaultTolerance())
	if n != 2 {
		t.Fatalf("injected quality regression: got %d regressions, want 2 (best+mean): %v", n, deltas)
	}
	for _, d := range deltas {
		if d.Regression && d.Metric != "best" && d.Metric != "mean" {
			t.Errorf("unexpected regression metric %s", d.Metric)
		}
	}

	missing := &Report{Suite: "benchsuite", Entries: base.Entries[:1]}
	if _, n := Compare(base, missing, DefaultTolerance()); n != 1 {
		t.Errorf("missing cell: %d regressions, want 1", n)
	}
	tol := DefaultTolerance()
	tol.AllowMissing = true
	if _, n := Compare(base, missing, tol); n != 0 {
		t.Errorf("missing cell with AllowMissing: %d regressions, want 0", n)
	}

	// Zero tolerance means any worsening fails — it must not disable the
	// gate; negative disables it.
	tol = Tolerance{QualityFrac: 0, MeanFrac: -1}
	if _, n := Compare(base, twoEntryReport(56, 57), tol); n != 1 {
		t.Errorf("zero quality tolerance: %d regressions, want 1", n)
	}
	tol = Tolerance{QualityFrac: -1, MeanFrac: -1}
	if _, n := Compare(base, twoEntryReport(80, 90), tol); n != 0 {
		t.Errorf("all gates disabled: %d regressions, want 0", n)
	}
}

// TestReportRoundTrip: save/load preserves the entries bit-for-bit.
func TestReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.json")
	rep := twoEntryReport(55, 57)
	rep.Host = currentHost()
	if err := SaveReport(rep, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 2 || got.Entries[0] != rep.Entries[0] {
		t.Fatalf("round trip mangled entries: %+v", got.Entries)
	}
	if _, err := LoadReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
	if err := SaveReport(rep, filepath.Join(dir, "x.json")); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := SaveReport(&Report{Suite: "other"}, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(bad); err == nil {
		t.Error("non-benchsuite report loaded")
	}
}

// TestLoadReportIgnoresTimingKeys: a report written before the suite
// dropped its wall-clock fields (per-entry evals_per_sec, mean_wall_ms,
// speedup_vs_serial and a top-level parallel block) still loads, and
// diffs on its quality fields alone.
func TestLoadReportIgnoresTimingKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{
  "suite": "benchsuite",
  "profile": "smoke",
  "entries": [
    {"instance": "ft06", "kind": "job", "model": "island", "seeds": 3,
     "best": 55, "mean": 57, "reference": 55, "ref_kind": "optimal",
     "gap": 0, "mean_gap": 0.036, "evaluations": 72360,
     "evals_per_sec": 1079489.5, "mean_wall_ms": 22.3, "speedup_vs_serial": 1},
    {"instance": "ft10", "kind": "job", "model": "island", "seeds": 3,
     "best": 960, "mean": 980, "reference": 930, "ref_kind": "optimal",
     "gap": 0.032, "mean_gap": 0.054, "evaluations": 192480,
     "evals_per_sec": 514363.5, "mean_wall_ms": 125.4, "speedup_vs_serial": 1.31}
  ],
  "parallel": {"instance": "ft06", "pop": 64, "workers": 4, "cpus": 2,
    "step_ns_one_worker": 126684, "step_ns_workers": 108922, "speedup": 1.16}
}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	want := Entry{Instance: "ft06", Kind: "job", Model: "island", Seeds: 3,
		Best: 55, Mean: 57, Reference: 55, RefKind: "optimal",
		MeanGap: 0.036, Evaluations: 72360}
	if len(base.Entries) != 2 || base.Entries[0] != want {
		t.Fatalf("old report entries: %+v", base.Entries)
	}
	cur := twoEntryReport(55, 57)
	deltas, n := Compare(base, cur, Tolerance{})
	if n != 0 {
		t.Errorf("old baseline vs equal quality: %d regressions: %v", n, deltas)
	}
	if len(deltas) != 4 {
		t.Errorf("%d deltas, want best+mean for 2 cells: %v", len(deltas), deltas)
	}
	if _, n := Compare(base, twoEntryReport(56, 57), Tolerance{}); n != 1 {
		t.Errorf("old baseline vs worse best: %d regressions, want 1", n)
	}
}
