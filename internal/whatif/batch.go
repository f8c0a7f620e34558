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
// The workload is frozen once from the base seed (unless the base carries
// one), so every scenario schedules the same submitted job stream on the
// base config's weather (a paired comparison: knob effects are not
// confounded with stream noise); the knobs may still change what starts
// and when. Failure injection is off: the objective's failure term reads 0
// and sweeps run faster. The runs fan out over up to opt.Workers slots,
// each an independent run writing only its own slot, so the reports are
// bit-identical for any worker count. Every run goes ahead even if one
// fails; the failures come back joined, each naming its scenario.
//
//lint:detroot
func Evaluate(base sim.Config, scns []Scenario, opt Options) ([]Report, error) {
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("whatif: base config: %w", err)
	}
	if len(scns) == 0 {
		return nil, fmt.Errorf("whatif: no scenarios to evaluate")
	}
	if len(base.Workload) == 0 {
		jobs, err := base.GenerateWorkload()
		if err != nil {
			return nil, fmt.Errorf("whatif: freeze workload: %w", err)
		}
		base.Workload = jobs
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
	return parallel.MapErr(len(cfgs), opt.Workers, func(i int) (Report, error) {
		d, res, err := core.CollectRun(cfgs[i])
		if err != nil {
			return Report{}, fmt.Errorf("whatif: scenario %q: %w", scns[i].Label(), err)
		}
		return Assess(d, res, scns[i], seeds[i], weights)
	})
}
