package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tdd/internal/server"
)

// child is a tddserve process started for one run.
type child struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	drained chan struct{} // closed once stdout reaches EOF
}

// startServer starts bin on an ephemeral port with the given extra flags
// and returns once it prints its listening address. The request log on
// stderr goes to logPath, a file as in production: a pipe the benchmark
// had to drain would let the benchmark's scheduling stall the server's
// logger.
func startServer(bin string, flags []string, logPath string) (*child, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	// The child holds its own descriptor once started.
	defer logFile.Close()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, flags...)...)
	cmd.Stderr = logFile
	// The server must not outlive the benchmark, even if the benchmark
	// itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	c := &child{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(c.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "tddserve: listening on "); ok {
				addr <- a
				break
			}
		}
		io.Copy(io.Discard, stdout) //nolint:errcheck // discarding output
	}()
	select {
	case a := <-addr:
		c.base = a
	case <-c.drained:
		c.stop()
		return nil, errors.New("tddserve exited before listening")
	case <-time.After(20 * time.Second):
		c.stop()
		return nil, errors.New("tddserve did not report its address within 20s")
	}
	c.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 8,
		DisableCompression:  true,
	}}
	return c, nil
}

// stop asks the server to shut down, kills it if it does not, and waits
// for it to exit.
func (c *child) stop() {
	c.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // an exited process is fine
	select {
	case <-c.drained:
	case <-time.After(15 * time.Second):
		c.cmd.Process.Kill() //nolint:errcheck // an exited process is fine
		<-c.drained
	}
	c.cmd.Wait() //nolint:errcheck // exit status after SIGTERM/SIGKILL carries no information
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// do sends one request and reads the whole response; d covers sending
// the request through reading the last body byte.
func (c *child) do(method, path string, body []byte) (status int, resp []byte, d time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	r, err := c.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	resp, err = io.ReadAll(r.Body)
	d = time.Since(start)
	r.Body.Close()
	return r.StatusCode, resp, d, err
}

func (c *child) getJSON(path string, v any) error {
	st, body, _, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, st, body)
	}
	return json.Unmarshal(body, v)
}

func (c *child) metrics() (server.MetricsSnapshot, error) {
	var m server.MetricsSnapshot
	err := c.getJSON("/metrics", &m)
	return m, err
}

// procSample is the child's CPU time and peak RSS from /proc.
type procSample struct {
	cpu    time.Duration // utime + stime
	hwmKiB int64         // VmHWM
}

// clockTicks is USER_HZ, which Linux fixes at 100 for /proc/<pid>/stat.
const clockTicks = 100

func (c *child) proc() (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.pid()))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name: state is field 3, so
	// utime (14) and stime (15) are at offsets 11 and 12.
	i := bytes.LastIndexByte(stat, ')')
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", c.pid())
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return s, err
	}
	s.cpu = time.Duration(ut+st) * time.Second / clockTicks
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.pid()))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return s, err
			}
			s.hwmKiB = kb
		}
	}
	return s, nil
}

// selfCPU is the benchmark process's own user + system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSample is the machine-wide CPU time from /proc/stat, in ticks.
type hostSample struct{ steal, total int64 }

// hostCPU reads the aggregate cpu line of /proc/stat. Steal is time the
// hypervisor ran something else while this machine's CPUs wanted to run:
// load from outside that no change to the program can explain.
func hostCPU() hostSample {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostSample{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var s hostSample
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		s.total += n
		if i == 7 { // user nice system idle iowait irq softirq steal
			s.steal = n
		}
	}
	return s
}

func (s hostSample) stealSince(prev hostSample) float64 {
	if d := s.total - prev.total; d > 0 {
		return float64(s.steal-prev.steal) / float64(d)
	}
	return 0
}
