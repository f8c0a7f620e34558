package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// harness carries what every workload needs: the built binaries, a scratch
// directory inside the checkout, the frozen sizes and the repetition count.
type harness struct {
	ctx    context.Context
	sz     sizes
	reps   int
	bin    string // directory holding the built cmd/ binaries
	work   string // scratch directory of this run, removed at exit
	traced bool
	// tracePath, when set, receives the span file of a traced run.
	tracePath string
	log       io.Writer // progress, on standard error
	buildS    float64
}

func (h *harness) binary(name string) string { return filepath.Join(h.bin, name) }

func (h *harness) logf(format string, args ...any) {
	fmt.Fprintf(h.log, format+"\n", args...)
}

// workloadBinaries names the cmd/ programs each workload drives.
var workloadBinaries = map[string][]string{
	wTwin:   {"summitsim"},
	wWhatif: {"optimize"},
	wScan:   {"summitsim", "queryd"},
	wDash:   {"summitsim", "queryd"},
	wLive:   {"streamd"},
}

// run executes one workload: the end-to-end phase against the built
// binaries and, on a traced run, the in-process layer replay.
func (h *harness) run(workload string, seed uint64) (*runResult, error) {
	res := newRunResult(workload, seed, h.traced, h.reps)
	var tr *tracer
	if h.traced {
		tr = newTracer()
	}
	var err error
	switch workload {
	case wTwin:
		err = h.runTwin(res, tr)
	case wWhatif:
		err = h.runWhatif(res, tr)
	case wScan, wDash:
		err = h.runQuery(res, tr)
	case wLive:
		err = h.runLive(res, tr)
	default:
		err = fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadOrder, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	for generic, alias := range aliasOf[workload] {
		m := res.Metrics[generic]
		res.set(alias, m.Value, m.Samples)
	}
	if h.traced {
		res.set("bench.build_s", h.buildS, 0)
		if gap := opSelfError(tr.spans); gap > 0.05 {
			res.fail("span self times miss an operation's wall time by %.1f%%", gap*100)
		}
		if h.tracePath != "" {
			if err := writeTrace(h.tracePath, workload, seed, tr.spans); err != nil {
				return nil, fmt.Errorf("write trace: %w", err)
			}
		}
	}
	return res, nil
}

// setupRepeats is how often the workloads with a cheap set-up repeat it.
const setupRepeats = 5

// setupRounds times a cheap set-up several times and returns the median in
// seconds, so one slow process start does not move setup_s.
func setupRounds(rounds int, fn func(round int) error) (float64, error) {
	var secs []float64
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return stats.Median(secs), nil
}

// overhead is (traced - untraced) / untraced, the cost of recording spans.
func overhead(untraced, traced time.Duration) float64 {
	if untraced <= 0 {
		return 0
	}
	return float64(traced-untraced) / float64(untraced)
}

// usPerMS converts a value in milliseconds to microseconds.
const usPerMS = float64(time.Millisecond / time.Microsecond)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// hashFiles returns a SHA-256 over the names and contents of the files in
// dir matching pattern, in name order, and their total size.
func hashFiles(dir, pattern string) (sum string, bytes int64, err error) {
	names, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		return "", 0, err
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		f, err := os.Open(name)
		if err != nil {
			return "", 0, err
		}
		fmt.Fprintf(h, "%s\n", filepath.Base(name))
		n, err := io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", 0, err
		}
		bytes += n
	}
	return hex.EncodeToString(h.Sum(nil)), bytes, nil
}

// relClose reports whether a and b agree to the relative tolerance tol
// (absolute below magnitude 1), treating two NaNs as equal.
func relClose(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}
