package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// Tolerance bounds how far a current report may drift from the baseline
// before Compare flags a regression. Objectives are minimised, so quality
// regresses upward. Each fraction gates when >= 0 (0 means any worsening
// fails) and is informational-only when negative.
type Tolerance struct {
	// QualityFrac allows (new-old)/old of an entry's Best (default 0.05).
	QualityFrac float64
	// MeanFrac allows the same drift of the seed-mean (default 0.05).
	MeanFrac float64
	// AllowMissing downgrades baseline cells absent from the current
	// report from regressions to notes (for intentional profile shrinks).
	AllowMissing bool
}

// DefaultTolerance allows 5% on best and mean.
func DefaultTolerance() Tolerance {
	return Tolerance{QualityFrac: 0.05, MeanFrac: 0.05}
}

// Delta is one compared metric of one (instance, model) cell.
type Delta struct {
	Instance   string  `json:"instance"`
	Model      string  `json:"model"`
	Metric     string  `json:"metric"` // "best", "mean", "missing"
	Old        float64 `json:"old"`
	New        float64 `json:"new"`
	Frac       float64 `json:"frac"` // relative drift, positive = worse
	Regression bool    `json:"regression"`
}

func (d Delta) String() string {
	tag := "ok"
	if d.Regression {
		tag = "REGRESSION"
	}
	if d.Metric == "missing" {
		return fmt.Sprintf("%-10s %-9s %-14s cell missing from current report [%s]",
			d.Instance, d.Model, d.Metric, tag)
	}
	return fmt.Sprintf("%-10s %-9s %-14s %10.2f -> %10.2f (%+.1f%%) [%s]",
		d.Instance, d.Model, d.Metric, d.Old, d.New, 100*d.Frac, tag)
}

// Compare diffs current against baseline cell by cell and returns every
// delta plus the regression count. Cells new in current are ignored (they
// gate nothing until committed to the baseline).
func Compare(baseline, current *Report, tol Tolerance) ([]Delta, int) {
	var deltas []Delta
	regressions := 0
	for _, old := range baseline.Entries {
		now, ok := current.Find(old.Instance, old.Model)
		if !ok {
			d := Delta{Instance: old.Instance, Model: old.Model, Metric: "missing",
				Regression: !tol.AllowMissing}
			if d.Regression {
				regressions++
			}
			deltas = append(deltas, d)
			continue
		}
		quality := func(metric string, oldV, newV, frac float64) {
			d := Delta{Instance: old.Instance, Model: old.Model, Metric: metric,
				Old: oldV, New: newV}
			if oldV > 0 {
				d.Frac = (newV - oldV) / oldV
			}
			d.Regression = frac >= 0 && d.Frac > frac
			if d.Regression {
				regressions++
			}
			deltas = append(deltas, d)
		}
		quality("best", old.Best, now.Best, tol.QualityFrac)
		quality("mean", old.Mean, now.Mean, tol.MeanFrac)
	}
	return deltas, regressions
}

// LoadReport reads a suite report from a JSON file.
func LoadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: reading report: %w", err)
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if r.Suite != "benchsuite" {
		return nil, fmt.Errorf("bench: %s is not a benchsuite report (suite %q)", path, r.Suite)
	}
	return &r, nil
}

// SaveReport writes a suite report as indented JSON.
func SaveReport(r *Report, path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
