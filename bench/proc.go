package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// termGrace is how long a subprocess gets between SIGTERM and SIGKILL.
	termGrace = 5 * time.Second
	// readyTimeout bounds a server's start: printing its address and
	// answering /healthz.
	readyTimeout = 10 * time.Second
	// clockTicksPerSec is USER_HZ, the unit of /proc/<pid>/stat CPU times.
	clockTicksPerSec = 100
)

// command prepares a subprocess that is terminated politely when ctx ends:
// SIGTERM first, SIGKILL after termGrace, always reaped by Wait.
func command(ctx context.Context, bin string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = termGrace
	return cmd
}

// usage is what a finished subprocess cost.
type usage struct {
	Wall     time.Duration
	CPU      time.Duration // user + system
	MaxRSSMB float64
}

func usageOf(cmd *exec.Cmd, wall time.Duration) usage {
	u := usage{Wall: wall}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return u
}

// buildBinaries compiles the named cmd/ programs into dir and returns the
// build's wall time. The Go build cache makes a repeated build cheap; the
// time is reported as bench.build_s and never counted as set-up.
func buildBinaries(ctx context.Context, dir string, names ...string) (time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
	}
	start := time.Now()
	out, err := command(ctx, "go", args...).CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, out)
	}
	return time.Since(start), nil
}

// runBatch runs a batch program to completion and returns its cost. A
// non-zero exit is an error carrying the program's output.
func runBatch(ctx context.Context, bin string, args ...string) (usage, error) {
	cmd := command(ctx, bin, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return usage{}, fmt.Errorf("%s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), err, out.Bytes())
	}
	return usageOf(cmd, wall), nil
}

// server is a running queryd or streamd.
type server struct {
	cmd    *exec.Cmd
	name   string
	start  time.Time
	Ready  time.Duration     // start to first /healthz 200
	Addrs  map[string]string // address by scheme: "http", "tcp"
	stderr bytes.Buffer
	drain  sync.WaitGroup
}

// startServer starts bin, reads the bound addresses from its startup lines
// ("... on http://ADDR", "... on tcp://ADDR": one line per scheme in want)
// and waits until /healthz answers 200. A server that does neither within
// readyTimeout fails with its stderr.
func startServer(ctx context.Context, want []string, bin string, args ...string) (*server, error) {
	s := &server{name: filepath.Base(bin), Addrs: map[string]string{}}
	s.cmd = command(ctx, bin, args...)
	s.cmd.Stderr = &s.stderr
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.start = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", s.name, err)
	}
	// The reader goroutine owns stdout until EOF (process exit); it hands
	// over each startup line and then discards the rest so the server never
	// blocks on a full pipe.
	lines := make(chan string, 64) // startup banner: a handful of lines, never blocks the reader
	s.drain.Add(1)
	go func() {
		defer s.drain.Done()
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default:
			}
		}
		_, _ = io.Copy(io.Discard, stdout) // a line over the scanner's limit: keep draining
	}()
	deadline := time.NewTimer(readyTimeout)
	defer deadline.Stop()
	for len(s.Addrs) < len(want) {
		select {
		case line, ok := <-lines:
			if !ok {
				return nil, s.fail("exited before printing its address")
			}
			for _, scheme := range want {
				if i := strings.Index(line, scheme+"://"); i >= 0 {
					s.Addrs[scheme] = strings.TrimSpace(line[i+len(scheme)+3:])
				}
			}
		case <-deadline.C:
			return nil, s.fail("did not print its address within " + readyTimeout.String())
		case <-ctx.Done():
			return nil, s.fail(ctx.Err().Error())
		}
	}
	for {
		resp, err := http.Get("http://" + s.Addrs["http"] + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-deadline.C:
			return nil, s.fail("did not answer /healthz within " + readyTimeout.String())
		case <-ctx.Done():
			return nil, s.fail(ctx.Err().Error())
		case <-time.After(2 * time.Millisecond):
		}
	}
	s.Ready = time.Since(s.start)
	return s, nil
}

// fail stops the server and returns an error carrying its stderr.
func (s *server) fail(why string) error {
	_, _ = s.stop()
	return fmt.Errorf("%s %s\nstderr:\n%s", s.name, why, s.stderr.Bytes())
}

// stop sends SIGTERM, waits for the exit (SIGKILL after termGrace) and
// returns the process's lifetime cost. A server that does not exit cleanly
// on SIGTERM is an error.
func (s *server) stop() (usage, error) {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(termGrace, func() { _ = s.cmd.Process.Kill() })
	s.drain.Wait() // stdout EOF: the process is gone, Wait will not block on the pipe
	err := s.cmd.Wait()
	timer.Stop()
	u := usageOf(s.cmd, time.Since(s.start))
	if err != nil {
		return u, fmt.Errorf("%s did not shut down cleanly: %w\nstderr:\n%s", s.name, err, s.stderr.Bytes())
	}
	return u, nil
}

// cpuTime reads the server's user+system CPU time so far from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks).
func (s *server) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(raw))
}

// parseProcStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may contain spaces and parentheses, so fields are
// counted from the last ')'.
func parseProcStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("proc stat: short line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("proc stat: bad cpu fields")
	}
	return time.Duration(ut+st) * time.Second / clockTicksPerSec, nil
}
