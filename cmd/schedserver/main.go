// Command schedserver is the HTTP scheduling daemon: the solver's job
// Service behind a REST+SSE API. Clients submit solver Specs as jobs,
// poll or stream their typed progress events, and cancel them; the daemon
// bounds concurrency, applies a per-job wall deadline, and drains
// gracefully on SIGINT/SIGTERM.
//
//	schedserver -addr :8410 -max-concurrent 8 -max-wall-ms 60000
//
// With -peers, daemons form a static federation fleet: a Spec submitted
// with params.federate to any node fans its islands out across the fleet
// and the nodes exchange migrant elites each migration epoch (see
// internal/federation):
//
//	schedserver -addr :8410 -self http://10.0.0.1:8410 \
//	  -peers http://10.0.0.1:8410,http://10.0.0.2:8410
//
// -peers and -fed-failover are fleet-wide: give every node the same
// values. A node without -fed-failover ships no shard checkpoints, so its
// shards degrade instead of failing over when it dies.
//
//	curl -s localhost:8410/v1/models
//	curl -s -X POST localhost:8410/v1/jobs -d '{"problem":{"instance":"ft10"},"model":"island"}'
//	curl -s localhost:8410/v1/jobs/j000001
//	curl -N  localhost:8410/v1/jobs/j000001/events        # SSE stream
//	curl -s -X DELETE localhost:8410/v1/jobs/j000001      # cancel
//
// internal/serve/client is the typed Go client for the same API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/federation"
	"repro/internal/jobstore"
	"repro/internal/serve"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "schedserver:", err)
		os.Exit(1)
	}
}

// run is main behind a testable seam: it binds the listener, serves until
// ctx is cancelled, then drains — no new jobs, in-flight jobs finish
// within the drain budget or are cancelled at their next generation
// boundary — and shuts the HTTP server down.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("schedserver", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8410", "listen address")
		maxConcurrent = fs.Int("max-concurrent", 0, "jobs running at once (0: GOMAXPROCS)")
		maxActive     = fs.Int("max-active", 256, "pending+running jobs before submissions get 429 (<0: unbounded)")
		maxWallMS     = fs.Int64("max-wall-ms", 120000, "per-job wall deadline cap in milliseconds (<0: uncapped)")
		maxRetained   = fs.Int("max-retained", 1024, "finished jobs kept for status queries")
		drainMS       = fs.Int64("drain-ms", 10000, "graceful drain budget on shutdown in milliseconds")
		storeDir      = fs.String("store-dir", "", "job store directory for durable jobs (empty: in-memory only)")
		ckptEvery     = fs.Int("checkpoint-every", 0, "checkpoint cadence in generations for durable jobs (0: default 20, <0: records only)")
		eventHistory  = fs.Int("event-history", 0, "per-job SSE replay ring size (0: default 256)")
		peers         = fs.String("peers", "", "comma-separated federation fleet base URLs, self included (empty: no federation)")
		self          = fs.String("self", "", "this node's base URL as it appears in -peers (default: http://<addr>)")
		epochTimeout  = fs.Int64("fed-epoch-timeout-ms", 5000, "migration-epoch barrier wait before degrading a peer, in milliseconds")
		fedFailover   = fs.Bool("fed-failover", false, "shard failover, set on every node: shards ship epoch checkpoints to the job's owner, which resumes a shard lost with its node on a survivor")
		probeMS       = fs.Int64("fed-probe-interval-ms", 500, "delay between health probes of a silent peer before declaring it dead")
	)
	switch err := fs.Parse(args); {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		return nil
	default:
		return errors.New("invalid flags (see usage above)")
	}

	cfg := serve.Config{
		MaxConcurrent:   *maxConcurrent,
		MaxActive:       *maxActive,
		MaxWallMillis:   *maxWallMS,
		MaxRetained:     *maxRetained,
		CheckpointEvery: *ckptEvery,
		EventHistory:    *eventHistory,
	}
	if *storeDir != "" {
		store, err := jobstore.Open(*storeDir)
		if err != nil {
			return err
		}
		cfg.Store = store
		// Recovery and durability diagnostics go to stdout; the e2e
		// crash-recovery test greps these lines.
		cfg.Logf = func(format string, a ...any) {
			fmt.Fprintf(stdout, "schedserver: "+format+"\n", a...)
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "schedserver listening on http://%s\n", ln.Addr())

	handler := srv.Handler()
	if *peers != "" {
		fleet := strings.Split(*peers, ",")
		for i := range fleet {
			fleet[i] = strings.TrimSpace(fleet[i])
		}
		me := *self
		if me == "" {
			me = "http://" + ln.Addr().String()
		}
		node, err := federation.New(federation.Config{
			Self:            me,
			Peers:           fleet,
			Service:         srv.Service(),
			EpochTimeout:    time.Duration(*epochTimeout) * time.Millisecond,
			FailoverEnabled: *fedFailover,
			ProbeInterval:   time.Duration(*probeMS) * time.Millisecond,
			Logf: func(format string, a ...any) {
				fmt.Fprintf(stdout, "schedserver: "+format+"\n", a...)
			},
		})
		if err != nil {
			return err
		}
		srv.SetFederation(node)
		// The federation endpoints compose in front of the main API.
		root := http.NewServeMux()
		root.Handle("/v1/federation/", node.Handler())
		root.Handle("/", handler)
		handler = root
		fmt.Fprintf(stdout, "schedserver federated: rank %d of %d peers\n", node.Rank(), len(node.Peers()))
	}

	httpSrv := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(stdout, "schedserver draining (budget %dms)\n", *drainMS)
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainMS)*time.Millisecond)
	defer cancel()
	// Drain the job service first: jobs reach terminal states, event
	// streams see their done events and end, so Shutdown below can
	// complete the in-flight SSE responses instead of severing them.
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(stdout, "schedserver drain: cancelled remaining jobs (%v)\n", err)
	}
	// After the drain every handler ends promptly (event streams flush
	// their terminal events), so Shutdown needs only a short grace of its
	// own — the drain budget may already be spent.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		_ = httpSrv.Close()
	}
	fmt.Fprintln(stdout, "schedserver stopped")
	return nil
}
