package whatif

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// Options configures a batch evaluation.
type Options struct {
	// Workers bounds the scenario-level parallelism (0 = all cores). The
	// reports are bit-identical for every worker count: each scenario's
	// evaluation is independent and writes only its own slot.
	Workers int
}

// Evaluate runs every scenario against the base configuration and
// returns one objective report per scenario, in scenario order.
//
// The workload is frozen once from the base seed, so every scenario
// schedules the same submitted job stream on the base config's weather
// (the paired-comparison design of the power-cap experiment: knob effects
// are not confounded with stream noise); the knobs may still change what
// starts and when. Failure injection is off, as in that experiment: the
// objective's failure term reads 0 and sweeps run faster. Evaluations fan
// out over runPaired and are bit-reproducible for any worker count.
//
//lint:detroot
func Evaluate(base sim.Config, scns []Scenario, opt Options) ([]Report, error) {
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("whatif: base config: %w", err)
	}
	if len(scns) == 0 {
		return nil, fmt.Errorf("whatif: no scenarios to evaluate")
	}
	if err := freeze(&base); err != nil {
		return nil, err
	}
	cfgs := make([]sim.Config, len(scns))
	seeds := make([]uint64, len(scns))
	for i, scn := range scns {
		cfg, err := scn.Apply(base)
		if err != nil {
			return nil, fmt.Errorf("whatif: scenario %q: %w", scn.Label(), err)
		}
		// The batch parallelizes across scenarios; each run stays serial so
		// worker slots map one-to-one onto evaluations.
		cfg.Workers = 1
		cfg.FailureRateScale = sim.FailureRateOff
		seeds[i] = Seed(base.Seed, scn)
		cfgs[i] = cfg
	}
	weights := DefaultWeights()
	return runPaired(cfgs, opt.Workers, func(i int, d *core.RunData, res *sim.Result) (Report, error) {
		return Assess(d, res, scns[i], seeds[i], weights)
	})
}

// freeze generates base's workload once (unless the caller supplied one),
// so every arm copied from base schedules the identical submitted jobs.
func freeze(base *sim.Config) error {
	if len(base.Workload) > 0 {
		return nil
	}
	jobs, err := base.GenerateWorkload()
	if err != nil {
		return fmt.Errorf("whatif: freeze workload: %w", err)
	}
	base.Workload = jobs
	return nil
}

// runPaired is the one paired-sweep runner, under Evaluate and
// PowerCapExperiment alike: it simulates every arm on up to workers slots
// (<= 0 = all cores) through core.CollectRun and reduces arm i's run with
// reduce. Results come back in arm order; each arm is an independent run
// writing only its own slot, so they are bit-identical for any worker
// count. Every arm runs even if one fails; the failures come back joined,
// each naming its arm index.
func runPaired[T any](arms []sim.Config, workers int, reduce func(i int, d *core.RunData, res *sim.Result) (T, error)) ([]T, error) {
	return parallel.MapErr(len(arms), workers, func(i int) (T, error) {
		d, res, err := core.CollectRun(arms[i])
		if err != nil {
			var zero T
			return zero, fmt.Errorf("whatif: arm %d: %w", i, err)
		}
		return reduce(i, d, res)
	})
}
