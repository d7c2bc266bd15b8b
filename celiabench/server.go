package main

import (
	"bytes"
	"encoding/json"
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
	"syscall"
	"time"
)

// server is one celia-server child process on loopback.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	log     *lineLog
	stopped bool
	// Setup is the time from exec until /readyz answered 200 and one
	// MinTime probe per app came back with X-Index: on.
	Setup time.Duration
}

// startServer launches a fresh server that restores its frontier
// indexes from snapDir, and waits until it is ready.
func startServer(bin, snapDir string, gctrace bool) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://127.0.0.1:" + strconv.Itoa(port), log: &lineLog{}}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:"+strconv.Itoa(port), "-snapshot-dir", snapDir)
	s.cmd.Env = os.Environ()
	if gctrace {
		s.cmd.Env = append(s.cmd.Env, "GODEBUG=gctrace=1")
	}
	s.cmd.Stdout = io.Discard
	s.cmd.Stderr = s.log
	// The server dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	if err := s.waitReady(start.Add(60 * time.Second)); err != nil {
		s.stop()
		return nil, fmt.Errorf("%w\nserver log:\n%s", err, s.log.String())
	}
	s.Setup = time.Since(start)
	return s, nil
}

// waitReady polls /readyz, then probes each app until its answer is
// served from the restored index.
func (s *server) waitReady(deadline time.Time) error {
	c := &http.Client{Timeout: 5 * time.Second}
	defer c.CloseIdleConnections()
	for {
		if time.Now().After(deadline) {
			return errors.New("server not ready within 60s")
		}
		resp, err := c.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	for _, spec := range appSpecs {
		body := fmt.Sprintf(`{"app":%q,"n":%v,"a":%v,"budget_usd":%v}`, spec.Name, spec.N, spec.A, probeBudget(spec))
		for {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: index not serving within 60s", spec.Name)
			}
			resp, err := c.Post(s.base+"/v1/mintime", "application/json", strings.NewReader(body))
			if err != nil {
				return fmt.Errorf("probe %s: %w", spec.Name, err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("probe %s: status %d", spec.Name, resp.StatusCode)
			}
			if resp.Header.Get("X-Index") == "on" {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited within ten seconds. Later calls do nothing.
func (s *server) stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

// serverMetrics is the part of /debug/metrics the trace reads.
type serverMetrics struct {
	Counters   map[string]int64 `json:"counters"`
	Histograms map[string]struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

// handlerMs is the summed handler time, in ms, over the per-route
// http.<route>.ms histograms.
func (m serverMetrics) handlerMs() float64 {
	var sum float64
	for name, h := range m.Histograms {
		if strings.HasPrefix(name, "http.") && strings.HasSuffix(name, ".ms") {
			sum += h.Sum
		}
	}
	return sum
}

// metrics reads the server's /debug/metrics.
func (s *server) metrics() (serverMetrics, error) {
	var m serverMetrics
	resp, err := http.Get(s.base + "/debug/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("decode /debug/metrics: %w", err)
	}
	return m, nil
}

// cpuTicks is the process's utime+stime in clock ticks (USER_HZ, 100
// on Linux).
func (s *server) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat times: %v %v", err1, err2)
	}
	return ut + st, nil
}

// ticksPerSecond is Linux's USER_HZ, the unit of /proc/<pid>/stat times.
const ticksPerSecond = 100

// peakRSSMiB is the process's VmHWM.
func (s *server) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// lineLog collects a child's stderr, stamping each line with its
// arrival time so the gctrace lines of a window can be picked out.
type lineLog struct {
	mu      sync.Mutex
	partial []byte
	lines   []stampedLine
}

type stampedLine struct {
	At   time.Time
	Text string
}

func (l *lineLog) Write(p []byte) (int, error) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.partial = append(l.partial, p...)
	for {
		i := bytes.IndexByte(l.partial, '\n')
		if i < 0 {
			break
		}
		l.lines = append(l.lines, stampedLine{At: now, Text: string(l.partial[:i])})
		l.partial = l.partial[i+1:]
	}
	return len(p), nil
}

func (l *lineLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var b strings.Builder
	for _, ln := range l.lines {
		b.WriteString(ln.Text)
		b.WriteByte('\n')
	}
	return b.String()
}

// gcStats counts the gctrace lines logged within [from, to] and
// returns the live heap, in MiB, that the last cycle up to to reports
// after marking.
func (l *lineLog) gcStats(from, to time.Time) (cycles int, liveMiB float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ln := range l.lines {
		if ln.At.After(to) || !strings.HasPrefix(ln.Text, "gc ") {
			continue
		}
		if !ln.At.Before(from) {
			cycles++
		}
		if mb, ok := parseLiveHeap(ln.Text); ok {
			liveMiB = mb
		}
	}
	return cycles, liveMiB
}

// parseLiveHeap extracts the live heap from a gctrace line's
// "start->end->live MB" field.
func parseLiveHeap(line string) (float64, bool) {
	for _, f := range strings.Fields(line) {
		if parts := strings.Split(f, "->"); len(parts) == 3 {
			v, err := strconv.ParseFloat(parts[2], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// hostSample is the host's CPU counters and load, read from /proc at
// the edges of a measured window, and the time a fixed loop of integer
// work took there: on a shared VM the same loop's time swings with the
// load on sibling hardware threads, which /proc does not show.
type hostSample struct {
	steal, total uint64
	load1        float64
	spinMs       float64
}

// spinSink keeps the calibration loop from being optimized away.
var spinSink uint64

func readHost() hostSample {
	var h hostSample
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 20_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink = x
	h.spinMs = float64(time.Since(t0)) / float64(time.Millisecond)
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		f := strings.Fields(line)
		for i := 1; i < len(f) && i <= 8; i++ { // user..steal
			v, _ := strconv.ParseUint(f[i], 10, 64)
			h.total += v
			if i == 8 {
				h.steal = v
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		f := strings.Fields(string(b))
		if len(f) > 0 {
			h.load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return h
}

// stealShare is the share of host CPU time stolen by the hypervisor
// between two samples.
func stealShare(a, b hostSample) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
