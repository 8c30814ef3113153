package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clients is the load generator's closed-loop concurrency: two
// callers, each waiting for its reply before sending the next request.
const clients = 2

// server is one tradeoffd child process listening on loopback.
type server struct {
	cmd     *exec.Cmd
	base    string
	done    chan error // receives cmd.Wait's result once
	stopped sync.Once
}

// startServer launches bin with its default flags on a free loopback
// port and waits until /healthz answers.
func startServer(ctx context.Context, bin string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			return nil, fmt.Errorf("tradeoffd exited before it was ready: %v", err)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("tradeoffd not ready on %s after 30s", addr)
		}
	}
}

// stop asks the server to drain and exit, killing it if it has not
// exited within five seconds, and waits for the process to end. Later
// calls return at once.
func (s *server) stop() {
	s.stopped.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-s.done:
		case <-time.After(5 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
	})
}

// peakRSSMB reads the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads the server's Prometheus exposition into a name → value
// map (labels kept in the name).
func (s *server) scrape(c *http.Client) (map[string]float64, error) {
	resp, err := c.Get(s.base + "/metrics?format=prom")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// newClient returns an HTTP client holding at most one keep-alive
// connection per closed-loop caller.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}}
}

// outcome is one timed request as the load generator saw it.
type outcome struct {
	index   int
	done    time.Duration // completion, since the start of the run
	latency time.Duration
	status  int // 0 on a transport error
	sum     [sha256.Size]byte
	err     error
}

// send posts one request and hashes the response body.
func send(c *http.Client, base string, req Request) (int, [sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	resp, err := c.Post(base+req.URL(), "application/json", bytes.NewReader(req.Body))
	if err != nil {
		return 0, sum, err
	}
	h := sha256.New()
	_, err = io.Copy(h, resp.Body)
	_ = resp.Body.Close() // the body was read to the end or failed already
	copy(sum[:], h.Sum(nil))
	return resp.StatusCode, sum, err
}

// warm sends requests through the closed loop until all have been
// answered; any non-200 answer is an error.
func warm(c *http.Client, base string, reqs []Request) error {
	var next atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				status, _, err := send(c, base, reqs[i])
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("warm-up %s answered %d", reqs[i].Path, status)
				}
				if err != nil {
					errs[k] = err
					return
				}
			}
		}(k)
	}
	wg.Wait()
	return errors.Join(errs...)
}
