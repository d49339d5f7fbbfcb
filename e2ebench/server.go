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
	"sync/atomic"
	"syscall"
	"time"
)

// server is one recmechd process and the single keep-alive connection the
// benchmark drives it over.
type server struct {
	cmd    *exec.Cmd
	done   chan struct{} // closed once the process has been waited for
	base   string
	client *http.Client
	tr     *http.Transport
	gc     *gcCounter // nil unless started with gcTrace
}

// gcCounter reads the server's GODEBUG=gctrace=1 output, one "gc N @..."
// line per finished collection, and keeps the last N: an exact count of GC
// cycles, which /v1/stats only reports from a snapshot up to a second old.
// Every other line on the server's standard error is dropped.
type gcCounter struct {
	cycles atomic.Uint64
	line   []byte // an unfinished line
}

func (g *gcCounter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			g.line = append(g.line, p...)
			break
		}
		line := append(g.line, p[:i]...)
		if rest, ok := bytes.CutPrefix(line, []byte("gc ")); ok {
			if f := bytes.Fields(rest); len(f) > 0 {
				if c, err := strconv.ParseUint(string(f[0]), 10, 64); err == nil {
					g.cycles.Store(c)
				}
			}
		}
		g.line = line[:0]
		p = p[i+1:]
	}
	return n, nil
}

// startServer launches bin with args on a free loopback port and returns
// once /healthz answers. The access log goes to /dev/null: written to a
// file it would share the filesystem journal with a durable server's WAL
// fsyncs, and add the host's I/O noise to every measurement. With gcTrace
// the server's standard error, the access log included, goes to a
// gcCounter instead.
func startServer(bin string, args []string, gcTrace bool) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	// The server must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var gc *gcCounter
	if gcTrace {
		gc = &gcCounter{}
		cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
		cmd.Stderr = gc
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	s := &server{cmd: cmd, done: make(chan struct{}), base: "http://" + addr,
		tr: tr, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, gc: gc}
	go func() {
		_ = cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-s.done:
			s.stop()
			return nil, fmt.Errorf("recmechd exited during start-up: %v", cmd.ProcessState)
		default:
		}
		if resp, err := s.client.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("recmechd not ready after 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop shuts the server down gracefully, killing it if it does not exit in
// time, and waits until it has exited.
func (s *server) stop() {
	s.tr.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// send issues one request on the keep-alive connection and reads the whole
// response.
func (s *server) send(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (s *server) getJSON(path string, v any) error {
	status, body, err := s.send(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return json.Unmarshal(body, v)
}

// cpuMillis is the server's user+sys CPU time so far, from /proc.
func (s *server) cpuMillis() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in USER_HZ (100/s) ticks.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) * 10, nil
}

// peakRSSMiB is the server's peak resident set (VmHWM).
func (s *server) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
