// Command benchsuite runs the end-to-end quality suite over the instance
// registry and diffs suite reports for CI regression gating.
//
//	benchsuite run  -profile smoke -out BENCH_suite.json
//	benchsuite run  -profile smoke -cpuprofile cpu.pprof -memprofile mem.pprof
//	benchsuite diff -baseline BENCH_suite.json -report /tmp/suite.json
//
// run sweeps the profile's instances x models x seeds through the solver
// pool and writes the structured JSON report. diff compares a fresh report
// against a committed baseline and exits nonzero when solution quality
// regresses beyond tolerance. Every report field is deterministic by seed,
// so the gate holds on any machine; time is measured by perfbench and
// BenchmarkHotPath, not here.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"repro/internal/bench"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(1)
	}
}

// errRegression marks a diff that found regressions (a clean failure, not
// a usage error).
var errRegression = errors.New("regressions detected against baseline")

// errBadFlags signals a flag parse failure the FlagSet already reported;
// main prints it once, tersely, instead of duplicating the detail.
var errBadFlags = errors.New("invalid flags (see usage above)")

// parseFlags maps -h/-help to success (usage was printed, exit 0) and
// parse failures to errBadFlags.
func parseFlags(fs *flag.FlagSet, args []string) (help bool, err error) {
	switch err := fs.Parse(args); {
	case err == nil:
		return false, nil
	case errors.Is(err, flag.ErrHelp):
		return true, nil
	default:
		return false, errBadFlags
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: benchsuite <run|diff> [flags]; profiles: %s",
			strings.Join(bench.ProfileNames(), ", "))
	}
	switch args[0] {
	case "run":
		return runSuite(ctx, args[1:], stdout)
	case "diff":
		return diffSuite(args[1:], stdout)
	default:
		return fmt.Errorf("unknown subcommand %q (want run or diff)", args[0])
	}
}

func runSuite(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	profile := fs.String("profile", "smoke", "suite profile: "+strings.Join(bench.ProfileNames(), ", "))
	out := fs.String("out", "BENCH_suite.json", "report output path ('-' for stdout only)")
	seeds := fs.Int("seeds", 0, "override the profile's seeds per cell (0: profile default)")
	models := fs.String("models", "", "override the profile's models (comma-separated)")
	poolWorkers := fs.Int("pool-workers", 0, "solver pool workers (0: GOMAXPROCS; the report is the same for any value)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile after the sweep to this file")
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	opts := bench.Options{Profile: *profile, Seeds: *seeds, PoolWorkers: *poolWorkers}
	if *models != "" {
		opts.Models = strings.Split(*models, ",")
	}
	stopCPU, err := bench.StartCPUProfile(*cpuProfile)
	if err != nil {
		return err
	}
	report, runErr := bench.Run(ctx, opts)
	if err := stopCPU(); err != nil {
		return err
	}
	if err := bench.WriteHeapProfile(*memProfile); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	printReport(stdout, report)
	if *out != "-" {
		if err := bench.SaveReport(report, *out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	return nil
}

func printReport(w io.Writer, r *bench.Report) {
	fmt.Fprintf(w, "suite %s, profile %s (%s/%s, %d CPUs, %s)\n",
		r.Suite, r.Profile, r.Host.GOOS, r.Host.GOARCH, r.Host.CPUs, r.Host.GoVersion)
	fmt.Fprintf(w, "%-10s %-9s %10s %10s %10s %-10s %8s %12s\n",
		"instance", "model", "best", "mean", "ref", "refkind", "gap%", "evals")
	for _, e := range r.Entries {
		fmt.Fprintf(w, "%-10s %-9s %10.0f %10.1f %10.0f %-10s %8.1f %12d\n",
			e.Instance, e.Model, e.Best, e.Mean, e.Reference, e.RefKind,
			100*e.Gap, e.Evaluations)
	}
}

func diffSuite(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "BENCH_suite.json", "committed baseline report")
	reportPath := fs.String("report", "", "current report to compare (required)")
	qualityTol := fs.Float64("quality-tol", 0.05, "allowed relative worsening of best objective (0: any worsening fails; <0: informational)")
	meanTol := fs.Float64("mean-tol", 0.05, "allowed relative worsening of mean objective (0: any worsening fails; <0: informational)")
	allowMissing := fs.Bool("allow-missing", false, "do not fail on baseline cells missing from the report")
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	if *reportPath == "" {
		return errors.New("diff: -report is required")
	}
	baseline, err := bench.LoadReport(*baselinePath)
	if err != nil {
		return err
	}
	current, err := bench.LoadReport(*reportPath)
	if err != nil {
		return err
	}
	if baseline.Profile != current.Profile {
		// Different profiles run different budgets: cells are incomparable
		// and missing-cell regressions are expected. Warn loudly; the
		// missing/quality gates below will do the failing.
		fmt.Fprintf(stdout, "warning: comparing profile %q against baseline profile %q — budgets differ, results are not comparable\n",
			current.Profile, baseline.Profile)
	}
	tol := bench.Tolerance{
		QualityFrac:  *qualityTol,
		MeanFrac:     *meanTol,
		AllowMissing: *allowMissing,
	}
	deltas, regressions := bench.Compare(baseline, current, tol)
	for _, d := range deltas {
		fmt.Fprintln(stdout, d)
	}
	if regressions > 0 {
		return fmt.Errorf("%d %w", regressions, errRegression)
	}
	fmt.Fprintf(stdout, "no regressions across %d compared cells\n", len(baseline.Entries))
	return nil
}
