package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// buildServer compiles cmd/nl2sql-server from the checkout at root.
func buildServer(ctx context.Context, root, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/nl2sql-server")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building nl2sql-server: %v", err)
	}
	return nil
}

// proc is one server process the benchmark started. stop always reaps it.
type proc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
	err  error // exit status, valid once done is closed
	log  *os.File
}

// startServer launches the server binary on a free loopback port with the
// given flags, its stderr going to logPath.
func startServer(bin, logPath string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without stopping the server, the kernel
	// kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %v", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, addr: addr, done: make(chan struct{}), log: logf}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) url() string { return "http://" + p.addr }

// stop asks the server to drain (SIGTERM) and kills it if it has not exited
// within the grace period; either way it returns only once the process is
// gone.
func (p *proc) stop() {
	if p == nil {
		return
	}
	select {
	case <-p.done:
	default:
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	p.log.Close()
}

// peakRSSMB reads the process's high-water resident set (VmHWM) in MB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// waitHealthy polls /healthz until it answers 200, the process exits, or
// the deadline passes. The poll interval is short because the wait is part
// of setup_s.
func waitHealthy(ctx context.Context, c *http.Client, p *proc) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		req, err := newRequest(ctx, http.MethodGet, p.url()+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := c.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("server exited during boot (%v); see %s", p.err, p.log.Name())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy after 60s; see %s", p.log.Name())
		}
	}
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// newClient returns an HTTP client whose transport never opens more than
// conns connections per host: the whole load of a run goes through one such
// client, so the load generator cannot out-parallelize the machine.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			MaxIdleConns:        2 * conns,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		},
	}
}

// newRequest builds a request carrying ctx's traceparent (see spans.go).
func newRequest(ctx context.Context, method, url string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set(trace.TraceparentHeader, traceparent(ctx))
	return req, nil
}

// call sends a JSON request and decodes a 2xx JSON answer into out (when
// non-nil). A non-2xx status is an error carrying the body's first line.
func call(ctx context.Context, c *http.Client, method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := newRequest(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		line, _, _ := strings.Cut(string(data), "\n")
		return fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, line)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decoding answer: %v", method, url, err)
	}
	return nil
}

// scrape is one parsed /v1/metrics exposition.
type scrape map[string]float64

func scrapeMetrics(ctx context.Context, c *http.Client, base string) (scrape, error) {
	req, err := newRequest(ctx, http.MethodGet, base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/v1/metrics: HTTP %d", base, resp.StatusCode)
	}
	return metrics.ParseExposition(data)
}

// delta is the growth of a counter family (summed over its labels) between
// two scrapes.
func delta(before, after scrape, name string) float64 {
	return metrics.SumSamples(after, name) - metrics.SumSamples(before, name)
}
