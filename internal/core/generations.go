package core

import (
	"fmt"
	"math"

	"repro/internal/failures"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/units"
)

// GenerationComparison is the §6-summary experiment: the same thermal
// context drives a Summit-calibrated failure model and a Titan-mode model
// (the air-cooled predecessor where heat WAS the driver), and the
// resulting thermal-extremity skews are compared. The paper's claim —
// "while high-temperature was a reason for the major errors in the case
// of Titan, its direct effect on GPU failures in the current system is
// not significant" — becomes a measurable sign flip.
type GenerationComparison struct {
	// Per hardware failure type: mean z-score at failure under each mode.
	Types        []failures.Type
	SummitZMean  []float64
	TitanZMean   []float64
	SummitEvents int
	TitanEvents  int
}

// CompareGenerations drives both injector modes over an identical
// synthetic thermal workload: GPUs with a spread of within-job z-scores
// under load. rateScale accelerates event accumulation.
func CompareGenerations(seed uint64, nodes, steps int, rateScale float64) (*GenerationComparison, error) {
	if nodes <= 0 || steps <= 0 {
		return nil, fmt.Errorf("core: non-positive dimensions %d x %d", nodes, steps)
	}
	mkInjector := func(titan bool) *failures.Injector {
		cfg := failures.DefaultConfig(seed, nodes)
		cfg.RateScale = rateScale
		cfg.MissingTempFrac = 0
		cfg.SuperOffenderNVLink = -1
		cfg.TitanMode = titan
		return failures.NewInjector(cfg)
	}
	// One shared deterministic thermal trajectory.
	rs := rng.New(seed).Split("thermal-context")
	type slotCtx struct {
		temp, z float64
	}
	ctxs := make([][]slotCtx, steps)
	for s := range ctxs {
		ctxs[s] = make([]slotCtx, nodes*units.GPUsPerNode)
		for g := range ctxs[s] {
			z := rs.Normal(0, 1)
			ctxs[s][g] = slotCtx{temp: 42 + 5*z, z: z}
		}
	}
	collect := func(in *failures.Injector) (map[failures.Type][]float64, int) {
		zs := map[failures.Type][]float64{}
		total := 0
		for s := 0; s < steps; s++ {
			for g := 0; g < nodes*units.GPUsPerNode; g++ {
				c := ctxs[s][g]
				evs := in.Sample(int64(s)*300, 300,
					topology.NodeID(g/units.GPUsPerNode), topology.GPUSlot(g%units.GPUsPerNode),
					failures.Context{
						JobID: 1, Project: "GEN01", Active: true,
						TempC: c.temp, TempZ: c.z,
					})
				for _, e := range evs {
					if !e.Type.Hardware() {
						continue
					}
					zs[e.Type] = append(zs[e.Type], e.TempZ)
					total++
				}
			}
		}
		return zs, total
	}
	summitZ, summitN := collect(mkInjector(false))
	titanZ, titanN := collect(mkInjector(true))
	cmp := &GenerationComparison{SummitEvents: summitN, TitanEvents: titanN}
	for t := failures.Type(0); t < failures.NumTypes; t++ {
		if !t.Hardware() {
			continue
		}
		s, okS := summitZ[t]
		ti, okT := titanZ[t]
		if !okS || !okT || len(s) < 5 || len(ti) < 5 {
			continue
		}
		cmp.Types = append(cmp.Types, t)
		cmp.SummitZMean = append(cmp.SummitZMean, mean(s))
		cmp.TitanZMean = append(cmp.TitanZMean, mean(ti))
	}
	if len(cmp.Types) == 0 {
		return nil, fmt.Errorf("core: too few hardware events for comparison (summit %d, titan %d)", summitN, titanN)
	}
	return cmp, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
