package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where binaries and per-run scratch live, inside the checkout
// and git-ignored; the benchmark writes nowhere else.
const buildDir = ".bench_build"

// buildDaemon compiles cmd/divtopkd from the checkout's sources. The go
// build cache makes the repeat builds of later runs a sub-second no-op.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "divtopkd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/divtopkd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/divtopkd: %v\n%s", err, out)
	}
	return bin, nil
}

// cleanup tracks every child process and scratch directory, so that one call
// reaps and removes them all. main makes that call after every workload and
// on every exit path: normal return, failed check, panic, SIGINT and SIGTERM.
var cleanup struct {
	mu      sync.Mutex
	daemons map[*daemon]struct{}
	dirs    []string
}

func cleanupAll() {
	cleanup.mu.Lock()
	ds := make([]*daemon, 0, len(cleanup.daemons))
	for d := range cleanup.daemons {
		ds = append(ds, d)
	}
	dirs := cleanup.dirs
	cleanup.dirs = nil
	cleanup.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
	for _, dir := range dirs {
		os.RemoveAll(dir)
	}
}

// reapOnSignal makes an interrupted benchmark leave nothing behind.
func reapOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		cleanupAll()
		stopSpinners()
		os.Exit(130)
	}()
}

// scratchDir creates a fresh directory under the build dir, removed by
// cleanupAll.
func scratchDir(root string) (string, error) {
	base := filepath.Join(root, buildDir)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", err
	}
	cleanup.mu.Lock()
	cleanup.dirs = append(cleanup.dirs, dir)
	cleanup.mu.Unlock()
	return dir, nil
}

// daemon is one divtopkd child process. It receives only the generated graph
// file (or a data directory a previous child wrote) and HTTP requests.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	started time.Time
	stderr  bytes.Buffer
	done    chan struct{} // closed when Wait returned
	once    sync.Once
}

// freePort asks the kernel for an unused loopback port. The daemon has no
// way to report a port it picked itself, so the benchmark picks one and
// hands it over; the window between closing and the child's bind is the
// usual price.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs the daemon with the given extra flags and returns at
// once; waitHealthy blocks until it serves.
func startDaemon(bin string, flags ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{base: "http://" + addr, done: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-listen", addr}, flags...)...)
	d.cmd.Stderr = &d.stderr
	// The child must not outlive a benchmark that dies without running its
	// cleanup (SIGKILL, runtime fatal error).
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.started = time.Now()
	if err := startPinned(d.cmd.Start); err != nil {
		return nil, err
	}
	cleanup.mu.Lock()
	if cleanup.daemons == nil {
		cleanup.daemons = make(map[*daemon]struct{})
	}
	cleanup.daemons[d] = struct{}{}
	cleanup.mu.Unlock()
	go func() {
		d.cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// kill sends SIGKILL — the crash the recovery measurement needs, and the
// fastest way down otherwise — and waits until the process is reaped.
func (d *daemon) kill() {
	d.once.Do(func() {
		d.cmd.Process.Kill()
		<-d.done
		cleanup.mu.Lock()
		delete(cleanup.daemons, d)
		cleanup.mu.Unlock()
	})
}

// health is the part of GET /healthz the benchmark reads.
type health struct {
	Status      string `json:"status"`
	GraphStatus []struct {
		Name          string `json:"name"`
		ServedVersion uint64 `json:"served_version"`
	} `json:"graph_status"`
}

// waitHealthy polls /healthz until the daemon reports the graph at
// wantVersion and returns the time since exec. A child that exits first
// fails with its stderr.
func (d *daemon) waitHealthy(wantVersion uint64) (time.Duration, error) {
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := d.started.Add(60 * time.Second)
	for {
		select {
		case <-d.done:
			return 0, fmt.Errorf("daemon exited before serving: %s", strings.TrimSpace(d.stderr.String()))
		default:
		}
		if resp, err := client.Get(d.base + "/healthz"); err == nil {
			var h health
			err := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK && h.Status == "ok" &&
				len(h.GraphStatus) == 1 && h.GraphStatus[0].ServedVersion == wantVersion {
				return time.Since(d.started), nil
			}
			if err == nil && len(h.GraphStatus) == 1 && h.GraphStatus[0].ServedVersion != wantVersion {
				return 0, fmt.Errorf("daemon serves version %d, want %d", h.GraphStatus[0].ServedVersion, wantVersion)
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("daemon not healthy after 60s: %s", strings.TrimSpace(d.stderr.String()))
		}
		time.Sleep(time.Millisecond)
	}
}

// peakRSSMB reads the child's high-water resident set (VmHWM) from /proc.
func (d *daemon) peakRSSMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// graphInfo is the daemon's own description of the served graph
// (GET /v1/graphs), including its result-cache counters.
type graphInfo struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	Cache   struct {
		Hits           uint64 `json:"hits"`
		Misses         uint64 `json:"misses"`
		Coalesced      uint64 `json:"coalesced"`
		Evictions      uint64 `json:"evictions"`
		Advanced       uint64 `json:"advanced"`
		AdvanceEvicted uint64 `json:"advance_evicted"`
	} `json:"cache"`
}

func (d *daemon) graphInfo() (graphInfo, error) {
	resp, err := http.Get(d.base + "/v1/graphs")
	if err != nil {
		return graphInfo{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return graphInfo{}, err
	}
	var out struct {
		Graphs []graphInfo `json:"graphs"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return graphInfo{}, err
	}
	if len(out.Graphs) != 1 {
		return graphInfo{}, fmt.Errorf("/v1/graphs lists %d graphs, want 1", len(out.Graphs))
	}
	return out.Graphs[0], nil
}
