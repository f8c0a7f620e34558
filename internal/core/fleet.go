package core

import (
	"errors"
	"fmt"

	"repro/internal/parallel"
	"repro/internal/sim"
)

// FleetRun is one cluster's outcome in a multi-cluster simulation.
type FleetRun struct {
	Data   *RunData
	Result *sim.Result
}

// CollectFleet simulates every cluster config concurrently through
// CollectRun. Each cluster is an independent simulation —
// own seed, own preset, own floor — so runs are embarrassingly parallel
// and each cluster's output is bit-identical to simulating it alone.
// extra, when non-nil, returns cluster i's extra observers, already built;
// however the fleet returns, each has been closed as CollectRun closes it.
// An error of a larger fleet names its cluster; a fleet of one returns
// CollectRun's error as it is. workers <= 0 uses one worker per cluster up
// to GOMAXPROCS.
func CollectFleet(cfgs []sim.Config, workers int, extra func(i int) []sim.Observer) ([]FleetRun, error) {
	if len(cfgs) == 0 {
		return nil, errors.New("core: fleet has no clusters")
	}
	observers := func(i int) []sim.Observer {
		if extra == nil {
			return nil
		}
		return extra(i)
	}
	named := func(i int, err error) error {
		if len(cfgs) == 1 {
			return err
		}
		return fmt.Errorf("core: cluster %d (%s): %w", i, cfgs[i].Cluster, err)
	}
	fail := func(err error) ([]FleetRun, error) {
		for i := range cfgs {
			err = errors.Join(err, closeObservers(observers(i)))
		}
		return nil, err
	}
	seen := map[string]bool{}
	for i := range cfgs {
		if err := cfgs[i].Validate(); err != nil {
			return fail(named(i, err))
		}
		if name := cfgs[i].Cluster; name != "" {
			if seen[name] {
				return fail(fmt.Errorf("core: duplicate cluster name %q", name))
			}
			seen[name] = true
		}
	}
	if workers > 0 {
		workers = min(workers, parallel.DefaultWorkers())
	}
	return parallel.MapErr(len(cfgs), workers, func(i int) (FleetRun, error) {
		d, res, err := CollectRun(cfgs[i], observers(i)...)
		if err != nil {
			return FleetRun{}, named(i, err)
		}
		return FleetRun{Data: d, Result: res}, nil
	})
}
