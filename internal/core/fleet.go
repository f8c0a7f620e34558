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
// nodeDataDir, when non-nil, names the directory that receives cluster i's
// per-node dataset ("" skips it for that cluster). workers <= 0 uses one
// worker per cluster up to GOMAXPROCS.
func CollectFleet(cfgs []sim.Config, workers int, nodeDataDir func(i int) string) ([]FleetRun, error) {
	if len(cfgs) == 0 {
		return nil, errors.New("core: fleet has no clusters")
	}
	seen := map[string]bool{}
	for i := range cfgs {
		if err := cfgs[i].Validate(); err != nil {
			return nil, fmt.Errorf("core: cluster %d (%s): %w", i, cfgs[i].Cluster, err)
		}
		if name := cfgs[i].Cluster; name != "" {
			if seen[name] {
				return nil, fmt.Errorf("core: duplicate cluster name %q", name)
			}
			seen[name] = true
		}
	}
	if workers > 0 {
		workers = min(workers, parallel.DefaultWorkers())
	}
	return parallel.MapErr(len(cfgs), workers, func(i int) (FleetRun, error) {
		var attach []Attach
		if nodeDataDir != nil {
			if dir := nodeDataDir(i); dir != "" {
				attach = append(attach, AttachNodeDataset(dir))
			}
		}
		d, res, err := CollectRun(cfgs[i], attach...)
		if err != nil {
			return FleetRun{}, fmt.Errorf("core: cluster %d (%s): %w", i, cfgs[i].Cluster, err)
		}
		return FleetRun{Data: d, Result: res}, nil
	})
}
