package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestRunThenDiffCleanPass: a real (shrunk) smoke run writes a loadable
// report that diffs cleanly against itself.
func TestRunThenDiffCleanPass(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "suite.json")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"run", "-profile", "smoke", "-seeds", "1", "-models", "serial", "-out", out,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bench.LoadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) == 0 || rep.Profile != "smoke" {
		t.Fatalf("report: %+v", rep)
	}
	buf.Reset()
	if err := run(context.Background(), []string{
		"diff", "-baseline", out, "-report", out,
	}, &buf); err != nil {
		t.Fatalf("self-diff failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "no regressions") {
		t.Errorf("diff output: %s", buf.String())
	}
}

// TestRunWritesProfiles: -cpuprofile/-memprofile produce non-empty pprof
// files alongside the report.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"run", "-profile", "smoke", "-seeds", "1", "-models", "serial", "-out", "-",
		"-cpuprofile", cpu, "-memprofile", mem,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestDiffFailsOnInjectedRegression: a fabricated baseline whose quality
// the current report misses by far must make diff return an error (the CI
// gate's nonzero exit).
func TestDiffFailsOnInjectedRegression(t *testing.T) {
	dir := t.TempDir()
	base := &bench.Report{
		Suite: "benchsuite", Profile: "smoke",
		Entries: []bench.Entry{
			{Instance: "ft06", Model: "island", Best: 55, Mean: 56},
		},
	}
	worse := &bench.Report{
		Suite: "benchsuite", Profile: "smoke",
		Entries: []bench.Entry{
			{Instance: "ft06", Model: "island", Best: 80, Mean: 85},
		},
	}
	basePath := filepath.Join(dir, "base.json")
	worsePath := filepath.Join(dir, "worse.json")
	if err := bench.SaveReport(base, basePath); err != nil {
		t.Fatal(err)
	}
	if err := bench.SaveReport(worse, worsePath); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"diff", "-baseline", basePath, "-report", worsePath,
	}, &buf)
	if err == nil {
		t.Fatalf("injected regression passed diff:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "regressions") {
		t.Errorf("error %q does not name regressions", err)
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Errorf("deltas not printed:\n%s", buf.String())
	}

	// The same drift is tolerated when the caller widens the gate.
	buf.Reset()
	if err := run(context.Background(), []string{
		"diff", "-baseline", basePath, "-report", worsePath,
		"-quality-tol", "0.6", "-mean-tol", "0.6",
	}, &buf); err != nil {
		t.Errorf("widened tolerance still failed: %v", err)
	}
}

// TestUsageErrors: malformed invocations fail without panicking.
func TestUsageErrors(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"diff"},
		{"run", "-profile", "no-such-profile"},
		{"diff", "-report", "does-not-exist.json"},
	} {
		if err := run(context.Background(), args, &buf); err == nil {
			t.Errorf("args %v succeeded", args)
		}
	}
	// -h prints usage and succeeds; a bad flag fails with a terse error.
	for _, sub := range []string{"run", "diff"} {
		if err := run(context.Background(), []string{sub, "-h"}, &buf); err != nil {
			t.Errorf("%s -h: %v", sub, err)
		}
		if err := run(context.Background(), []string{sub, "-no-such-flag"}, &buf); err == nil {
			t.Errorf("%s with bad flag succeeded", sub)
		}
	}
}
