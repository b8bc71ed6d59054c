package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one running `gar serve` process.
type child struct {
	cmd  *exec.Cmd
	addr chan string
	// done is closed once stderr hit EOF and the process was reaped;
	// waitErr is its exit status.
	done    chan struct{}
	waitErr error

	mu   sync.Mutex
	tail []string
}

// startChild launches `gar serve` with args on a loopback port the
// kernel picks; the bound address is read back from its log.
func startChild(bin string, args []string) (*child, error) {
	cmd := exec.Command(bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout = io.Discard
	// The server must not outlive the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, addr: make(chan string, 1), done: make(chan struct{})}
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.tail = append(c.tail, line)
			if len(c.tail) > 20 {
				c.tail = c.tail[1:]
			}
			c.mu.Unlock()
			if i := strings.LastIndex(line, " ready on "); i >= 0 && !sent {
				c.addr <- strings.TrimSpace(line[i+len(" ready on "):])
				sent = true
			}
		}
		// A line too long for the scanner ends the loop; keep draining so
		// the child never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, stderr)
		c.waitErr = cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// logTail returns the last lines the child logged.
func (c *child) logTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.tail, "\n")
}

// listening waits until the child logs its bound address.
func (c *child) listening(timeout time.Duration) (string, error) {
	select {
	case addr := <-c.addr:
		return addr, nil
	case <-c.done:
		return "", fmt.Errorf("gar serve exited before listening (%v):\n%s", c.waitErr, c.logTail())
	case <-time.After(timeout):
		return "", fmt.Errorf("gar serve not listening after %v:\n%s", timeout, c.logTail())
	}
}

// peakRSSMB reads the child's peak resident set (VmHWM) in MiB.
func (c *child) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop drains the child with SIGTERM, killing it if it does not exit
// in time, and waits until it is reaped.
func (c *child) stop() {
	select {
	case <-c.done:
		return
	default:
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(30 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// client talks JSON to one server over keep-alive loopback connections.
type client struct {
	http *http.Client
	base string
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{http: &http.Client{Transport: tr, Timeout: 5 * time.Minute}, base: "http://" + addr}
}

func (cl *client) close() { cl.http.CloseIdleConnections() }

// do sends one request and decodes a JSON answer into out (when the
// status is 200 and out is non-nil).
func (cl *client) do(ctx context.Context, method, path string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, cl.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("malformed %s %s answer: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// translateAnswer is the JSON body of a 200 translate response.
type translateAnswer struct {
	SQL        string `json:"sql"`
	Degraded   bool   `json:"degraded"`
	Candidates []struct {
		SQL string `json:"sql"`
	} `json:"candidates"`
	Generation uint64  `json:"generation"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// healthz is the part of GET /healthz the benchmark reads.
type healthz struct {
	Caches struct {
		Embeddings   cacheStats `json:"embeddings"`
		Translations cacheStats `json:"translations"`
	} `json:"caches"`
	Admission  admitStats `json:"admission"`
	Checkpoint struct {
		Writes uint64 `json:"writes"`
	} `json:"checkpoint"`
	ExecGuide struct {
		Executed uint64 `json:"executed"`
		Demoted  uint64 `json:"demoted"`
		Timeouts uint64 `json:"timeouts"`
	} `json:"execguide"`
}

type cacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

type admitStats struct {
	PeakInFlight  int    `json:"peak_in_flight"`
	ShedQueueFull uint64 `json:"shed_queue_full"`
	ShedDeadline  uint64 `json:"shed_deadline"`
}

func (cl *client) healthz(ctx context.Context) (*healthz, error) {
	h := &healthz{}
	status, err := cl.do(ctx, http.MethodGet, "/healthz", nil, h)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /healthz: status %d", status)
	}
	return h, nil
}

// waitFor polls until pred holds or the timeout passes.
func waitFor(ctx context.Context, timeout time.Duration, what string, pred func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	for {
		ok, err := pred()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}
