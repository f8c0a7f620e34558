package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/facility"
	"repro/internal/failures"
	"repro/internal/nodesim"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/workload"
)

// Span names of the simulate and archive-write planes. The layer metrics
// are sums of these spans' self times.
const (
	spanGenerate  = "workload.Generate"
	spanSchedule  = "scheduler.ScheduleWithPolicy"
	spanSimNew    = "sim.New"
	spanSimRun    = "sim.Sim.Run"
	spanCollector = "core.Collector.Observe"
	spanNodeObs   = "core.NodeDatasetWriter.Observe"
	spanNodeClose = "core.NodeDatasetWriter.Close"
	spanWriteSets = "core.WriteDatasets"
	spanAssess    = "whatif.Assess"
	spanStepNode  = "nodesim.Fleet.StepNode"
	spanCEPStep   = "facility.CEP.Step"
	spanSample    = "failures.Injector.SampleInto"
)

// observe wraps an observer so each Observe call is a span under sim.Run.
func observe(tr *tracer, name string, o sim.Observer) sim.Observer {
	return sim.ObserverFunc(func(s *sim.Snapshot) {
		id := tr.begin(name)
		o.Observe(s)
		tr.end(id)
	})
}

// replaySim runs cfg in process the way summitsim (nodeDir != "") or a
// what-if evaluation (nodeDir == "") does, one span per call into a layer.
func replaySim(tr *tracer, cfg sim.Config, nodeDir string) (*core.RunData, *sim.Result, error) {
	id := tr.begin(spanSimNew)
	s, err := sim.New(cfg)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	if err := cfg.Validate(); err != nil { // applies the defaults the collector sizes by
		return nil, nil, err
	}
	col := core.NewCollector(s, cfg)
	obs := []sim.Observer{observe(tr, spanCollector, col)}
	var nw *core.NodeDatasetWriter
	if nodeDir != "" {
		if nw, err = core.NewNodeDatasetWriter(nodeDir, cfg.Nodes, cfg.Site); err != nil {
			return nil, nil, err
		}
		obs = append(obs, observe(tr, spanNodeObs, nw))
	}
	id = tr.begin(spanSimRun)
	res, err := s.Run(obs...)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	if nw != nil {
		id = tr.begin(spanNodeClose)
		err = nw.Close()
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
	}
	col.SetFailures(res.Failures)
	return col.Data(), res, nil
}

// genConfig is the job-stream request sim.New and whatif.Evaluate derive
// from a run configuration.
func genConfig(cfg sim.Config) workload.GenConfig {
	nodes := cfg.Nodes
	if nodes > 4608 {
		nodes = 4608
	}
	return workload.GenConfig{
		Seed: cfg.Seed, StartTime: cfg.StartTime, SpanSec: cfg.DurationSec,
		Jobs: cfg.Jobs, MaxNodes: nodes, ProjectsPerDomain: 6,
	}
}

// probeSimInputs times the two stages sim.New runs before the first
// window: generating the job stream and scheduling it.
func probeSimInputs(tr *tracer, cfg sim.Config) error {
	id := tr.begin(spanGenerate)
	jobs, err := workload.Generate(genConfig(cfg))
	tr.end(id)
	if err != nil {
		return err
	}
	placement, err := scheduler.ParsePlacement(cfg.Placement)
	if err != nil {
		return err
	}
	id = tr.begin(spanSchedule)
	_, err = scheduler.ScheduleWithPolicy(jobs, cfg.Nodes, scheduler.Policy{PowerCap: cfg.PowerCap, Placement: placement})
	tr.end(id)
	return err
}

// stepProbeRounds is how many sweeps over the fleet the step probes time.
const stepProbeRounds = 200

// probeSteps times the three per-window kernels of the simulator at the
// workload's node count and records ns per call; multiplied by the calls a
// run makes they give each kernel's share of sim.run_self_s.
func probeSteps(tr *tracer, res *runResult, cfg sim.Config) {
	root := rng.New(cfg.Seed)
	vars := make([]nodesim.Variation, cfg.Nodes)
	for i := range vars {
		vars[i] = nodesim.NewVariation(root.SplitN("node", i))
	}
	supply := units.Celsius(21)
	fleet := nodesim.NewFleet(vars, float64(cfg.StepSec), supply)
	power := workload.IdleNodePower()
	start := time.Now()
	tr.in(spanStepNode, func() {
		for r := 0; r < stepProbeRounds; r++ {
			for i := 0; i < cfg.Nodes; i++ {
				fleet.StepNode(i, &power, supply)
			}
		}
	})
	res.set("nodesim.step_ns", float64(time.Since(start))/float64(stepProbeRounds*cfg.Nodes), stepProbeRounds*cfg.Nodes)

	cep := facility.NewCEP(facility.NewWeather(cfg.Seed))
	load := units.Watts(float64(cfg.Nodes) * 1500)
	calls := stepProbeRounds * 50
	start = time.Now()
	tr.in(spanCEPStep, func() {
		for k := 0; k < calls; k++ {
			cep.Step(cfg.StartTime+int64(k)*cfg.StepSec, float64(cfg.StepSec), load)
		}
	})
	res.set("facility.step_ns", float64(time.Since(start))/float64(calls), calls)

	inj := failures.NewInjector(failures.DefaultConfig(cfg.Seed+1, cfg.Nodes))
	fctx := failures.Context{JobID: 1, Project: "BIO001", Active: true, TempC: 55, TempZ: 0.5}
	var buf []failures.Event
	calls = 0
	start = time.Now()
	tr.in(spanSample, func() {
		for r := 0; r < stepProbeRounds/10; r++ {
			for i := 0; i < cfg.Nodes; i++ {
				for g := 0; g < units.GPUsPerNode; g++ {
					buf = inj.SampleInto(buf[:0], cfg.StartTime, 300, topology.NodeID(i), topology.GPUSlot(g), fctx)
					calls++
				}
			}
		}
	})
	res.set("failures.sample_ns", float64(time.Since(start))/float64(calls), calls)
}

// setSpan records a layer metric as the summed self time of the named
// spans, in the given unit (time.Millisecond, time.Second), divided by runs
// (1 for a single replay).
func setSpan(res *runResult, metric string, self map[string]int64, name string, unit time.Duration, runs int) {
	res.set(metric, float64(self[name])/float64(unit)/float64(runs), runs)
}
