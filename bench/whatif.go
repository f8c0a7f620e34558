package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// whatifSpec is the seeded input of the whatif-sweep workload: the study's
// catalog base scenario, shortened to hours and re-seeded.
func whatifSpec(study whatif.Study, hours int, seed uint64) (scenario.Spec, error) {
	spec, err := scenario.ByName(study.Scenario)
	if err != nil {
		return scenario.Spec{}, err
	}
	spec.Name = fmt.Sprintf("%s-%dh-seed%d", spec.Name, hours, seed)
	spec.Description = ""
	spec.DurationSec = int64(hours) * units.SecondsPerHour
	spec.Seed = seed + 1 // 0 would mean "the calibrated default seed"
	return spec, nil
}

func writeSpec(path string, spec scenario.Spec) error {
	raw, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// runWhatif is the whatif-sweep workload: optimize running the study's full
// grid over the seeded base scenario, a fresh process per repetition.
func (h *harness) runWhatif(res *runResult, tr *tracer) error {
	sz, bin := h.sz, h.binary("optimize")
	study, err := whatif.StudyByName(sz.WhatifStudy)
	if err != nil {
		return err
	}
	args := func(spec, out string) []string {
		return []string{"-study", study.Name, "-strategy", sz.WhatifStrategy, "-scenario", spec, "-out", out}
	}
	// Set-up: write both spec files, then an untimed short sweep.
	inputs := time.Now()
	spec, err := whatifSpec(study, sz.WhatifHours, res.Seed)
	if err != nil {
		return err
	}
	warm, err := whatifSpec(study, sz.WhatifWarmHours, res.Seed)
	if err != nil {
		return err
	}
	specPath, warmPath := filepath.Join(h.work, "whatif-spec.json"), filepath.Join(h.work, "whatif-warm.json")
	if err := writeSpec(specPath, spec); err != nil {
		return err
	}
	if err := writeSpec(warmPath, warm); err != nil {
		return err
	}
	inputS := time.Since(inputs).Seconds()
	setup, err := setupRounds(setupRepeats, func(int) error {
		_, err := runBatch(h.ctx, bin, args(warmPath, filepath.Join(h.work, "whatif-warm-sweep.json"))...)
		return err
	})
	if err != nil {
		return err
	}
	res.set("setup_s", inputS+setup, setupRepeats)

	var rate, wallMS, cpuMS []float64
	var firstHash string
	for rep := 0; rep < h.reps; rep++ {
		dir := filepath.Join(h.work, fmt.Sprintf("whatif-rep-%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		out := filepath.Join(dir, "sweep.json")
		res.attempt(1)
		u, err := runBatch(h.ctx, bin, args(specPath, out)...)
		if err != nil {
			return err
		}
		// Correctness, outside the timed region.
		runs, err := sweepRuns(out)
		if err != nil {
			return err
		}
		if runs != sz.WhatifRuns {
			res.fail("rep %d: sweep log holds %d evaluated runs, want %d", rep, runs, sz.WhatifRuns)
		}
		sum, _, err := hashFiles(dir, "sweep.json")
		if err != nil {
			return err
		}
		if rep == 0 {
			firstHash = sum
		} else if sum != firstHash {
			res.fail("rep %d: sweep log differs from rep 0 for the same seed", rep)
		}
		rate = append(rate, float64(runs)/u.Wall.Seconds())
		wallMS = append(wallMS, ms(u.Wall))
		cpuMS = append(cpuMS, ms(u.CPU)/float64(runs))
	}
	res.set("ops_per_s", stats.Median(rate), len(rate))
	res.set("op_p50_ms", stats.Median(wallMS), len(wallMS))
	res.set("cpu_ms_per_op", stats.Median(cpuMS), len(cpuMS))
	if tr != nil {
		return traceWhatif(res, tr, study, spec)
	}
	return nil
}

// sweepRuns counts the evaluated entries of a sweep log.
func sweepRuns(path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var log struct {
		Evaluated []json.RawMessage `json:"evaluated"`
	}
	if err := json.Unmarshal(raw, &log); err != nil {
		return 0, fmt.Errorf("sweep log %s: %w", path, err)
	}
	return len(log.Evaluated), nil
}

// whatifReplayRuns is how many grid points the traced replay evaluates.
const whatifReplayRuns = 8

// traceWhatif evaluates a spread of the study's grid points in process the
// way whatif.Evaluate does — freeze the workload, apply the knobs, run the
// twin with the collector attached, assess — with a span per layer call.
// The time metrics are per evaluated run.
func traceWhatif(res *runResult, tr *tracer, study whatif.Study, spec scenario.Spec) error {
	resolved, err := scenario.Compile(spec, "")
	if err != nil {
		return err
	}
	base := resolved.Config
	grid := whatif.Grid(study.Axes)
	var scns []whatif.Scenario
	for i := 0; i < whatifReplayRuns; i++ {
		scns = append(scns, grid[i*len(grid)/whatifReplayRuns])
	}
	frozen := base
	if frozen.Workload, err = workload.Generate(genConfig(base)); err != nil {
		return err
	}
	steps := 0
	replay := func(tr *tracer) (time.Duration, error) {
		start := time.Now()
		for _, scn := range scns {
			cfg, err := scn.Apply(frozen)
			if err != nil {
				return 0, err
			}
			cfg.Workers = 1
			cfg.FailureRateScale = 1e-9
			root := tr.begin("bench.whatif-sweep.run")
			data, result, err := replaySim(tr, cfg, "")
			if err == nil {
				id := tr.begin(spanAssess)
				_, err = whatif.Assess(data, result, scn, whatif.Seed(frozen.Seed, scn), whatif.DefaultWeights())
				tr.end(id)
				steps = result.Steps
			}
			tr.end(root)
			if err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	untraced, err := replay(nil)
	if err != nil {
		return err
	}
	traced, err := replay(tr)
	if err != nil {
		return err
	}
	res.set("bench.trace_overhead_share", overhead(untraced, traced), 0)
	res.set("sim.windows", float64(steps), 0)

	tr.in("bench.whatif-sweep.probes", func() {
		if err = probeSimInputs(tr, base); err != nil {
			return
		}
		probeSteps(tr, res, base)
		start := time.Now()
		id := tr.begin("whatif.Evaluate")
		_, err = whatif.Evaluate(base, scns, whatif.Options{})
		tr.end(id)
		res.set("whatif.evaluate_ms_per_run", ms(time.Since(start))/float64(len(scns)), len(scns))
	})
	if err != nil {
		return err
	}
	self, n := selfByName(tr.spans), len(scns)
	setSpan(res, "workload.generate_ms", self, spanGenerate, time.Millisecond, 1)
	setSpan(res, "scheduler.schedule_ms", self, spanSchedule, time.Millisecond, 1)
	setSpan(res, "sim.new_ms", self, spanSimNew, time.Millisecond, n)
	setSpan(res, "sim.run_self_s", self, spanSimRun, time.Second, n)
	setSpan(res, "core.collector_observe_s", self, spanCollector, time.Second, n)
	setSpan(res, "whatif.assess_ms", self, spanAssess, time.Millisecond, n)
	return nil
}
