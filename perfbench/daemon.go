package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fleet is a set of schedserver daemons started together: one node for a
// plain workload, a peered fleet for a federated one. Node 0 receives the
// client's jobs.
type fleet struct {
	nodes []*exec.Cmd
	urls  []string
	// cpu is the daemons' summed user+system CPU time, set by stop.
	cpu time.Duration
}

// startFleet launches n daemons, peered when n > 1 and with slots job
// slots each when slots > 0, and returns once every node answers
// /healthz. Node logs go to dir.
func startFleet(ctx context.Context, bin, dir string, n, slots int) (*fleet, error) {
	ports, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	for _, p := range ports {
		f.urls = append(f.urls, "http://127.0.0.1:"+strconv.Itoa(p))
	}
	for i, u := range f.urls {
		args := []string{"-addr", strings.TrimPrefix(u, "http://"), "-drain-ms", "2000"}
		if slots > 0 {
			args = append(args, "-max-concurrent", strconv.Itoa(slots))
		}
		if n > 1 {
			args = append(args, "-self", u, "-peers", strings.Join(f.urls, ","))
		}
		log, err := os.Create(filepath.Join(dir, "node-"+strconv.Itoa(i)+".log"))
		if err != nil {
			f.stop()
			return nil, err
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = log, log
		// The daemons die with perfbench even if it is killed outright.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		err = cmd.Start()
		log.Close()
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("starting %s: %w", bin, err)
		}
		f.nodes = append(f.nodes, cmd)
	}
	for _, u := range f.urls {
		if err := waitHealthy(ctx, u); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// freePorts asks the kernel for n unused loopback ports. The daemons need
// their addresses before they start, to list each other as peers; every
// listener stays open until all are chosen, so the ports are distinct.
func freePorts(n int) ([]int, error) {
	var ports []int
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

func waitHealthy(ctx context.Context, url string) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	client := &http.Client{Timeout: time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		// A daemon listens within milliseconds of starting; polling every
		// 2 ms keeps the wait close to that without spinning on the CPUs
		// the starting daemons need.
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %w", url, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends every node SIGTERM (the daemon drains and exits 0), kills any
// node still running after the grace period, and waits for all of them.
func (f *fleet) stop() error {
	var errs []error
	for _, cmd := range f.nodes {
		_ = cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, cmd := range f.nodes {
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				errs = append(errs, fmt.Errorf("daemon %d: %w", cmd.Process.Pid, err))
			}
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			<-done
			errs = append(errs, fmt.Errorf("daemon %d ignored SIGTERM", cmd.Process.Pid))
		}
		f.cpu += cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	}
	f.nodes = nil
	return errors.Join(errs...)
}
