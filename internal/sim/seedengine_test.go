package sim

// This file pins the optimized engine (structure-of-arrays fleet, block-
// sharded roll-up, memoized profile bases, reused scratch, worker pool)
// against a deliberately naive reference implementation: serial node loop,
// pointer-based nodesim.State thermal model, direct Profile.Power calls,
// map-based per-job temperature moments, and an allocating failure sweep.
// The two engines share only the numerical DEFINITIONS of the model —
// window means are raw sums scaled by 1/samples, and the ground-truth
// roll-up is reduced over fixed rollupBlockNodes blocks in block order —
// so every float64 they produce must agree bit for bit, tolerance zero.

import (
	"math"
	"testing"

	"repro/internal/failures"
	"repro/internal/nodesim"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tsagg"
	"repro/internal/units"
	"repro/internal/workload"
)

func parityConfig() Config {
	return Config{
		Seed:              11,
		Nodes:             150, // three partial roll-up blocks, 9 cabinets
		StartTime:         1_577_836_800,
		DurationSec:       1800,
		StepSec:           10,
		SamplesPerWindow:  2,
		Jobs:              200,
		FailureRateScale:  50_000,
		FailureCheckSec:   60,
		TelemetryLossFrac: 0.05, // exercises blanking and the dark cabinet
	}
}

func eqBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// cloneSnap deep-copies the reused per-window buffers.
func cloneSnap(s *Snapshot) *Snapshot {
	c := *s
	c.NodeStat = append([]tsagg.WindowStat(nil), s.NodeStat...)
	c.TruePower = append([]float64(nil), s.TruePower...)
	c.AllocIdx = append([]int(nil), s.AllocIdx...)
	c.CPUPower = append([]float64(nil), s.CPUPower...)
	c.GPUPower = append([]float64(nil), s.GPUPower...)
	c.GPUPowerEach = append([][units.GPUsPerNode]float64(nil), s.GPUPowerEach...)
	c.GPUCoreTemp = append([][units.GPUsPerNode]float64(nil), s.GPUCoreTemp...)
	c.GPUMemTemp = append([][units.GPUsPerNode]float64(nil), s.GPUMemTemp...)
	c.CPUTemp = append([][units.CPUsPerNode]float64(nil), s.CPUTemp...)
	c.MeterPower = append([]units.Watts(nil), s.MeterPower...)
	c.Failures = append([]failures.Event(nil), s.Failures...)
	return &c
}

// runRecorded executes the production engine and returns every window.
func runRecorded(t *testing.T, cfg Config) ([]*Snapshot, *Result) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rec []*Snapshot
	res, err := s.Run(ObserverFunc(func(snap *Snapshot) {
		rec = append(rec, cloneSnap(snap))
	}))
	if err != nil {
		t.Fatal(err)
	}
	return rec, res
}

// refTelemetryLost duplicates the engine's loss hash so the reference does
// not depend on the code under test.
func refTelemetryLost(i int, t int64, seed uint64, frac float64) bool {
	z := uint64(i)*0x9e3779b97f4a7c15 + uint64(t)*0x94d049bb133111eb + seed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z ^= z >> 31
	return float64(z>>11)/float64(1<<53) < frac
}

// refRun executes cfg with the naive reference engine.
func refRun(t *testing.T, cfg Config) ([]*Snapshot, *Result) {
	t.Helper()
	s, err := New(cfg) // identical workload, schedule, plant, meters, injector
	if err != nil {
		t.Fatal(err)
	}
	cfg = s.cfg // defaults applied
	n := cfg.Nodes
	// Pointer-based thermal states from the same variation streams the
	// fleet consumed (rng splits are hash-derived, so re-deriving them
	// yields identical sources).
	varRS := rng.New(cfg.Seed).Split("node-variation")
	states := make([]*nodesim.State, n)
	for i := range states {
		states[i] = nodesim.NewState(nodesim.NewVariation(varRS.SplitN("node", i)), s.cep.SupplyC())
	}
	snap := &Snapshot{
		NodeStat:     make([]tsagg.WindowStat, n),
		TruePower:    make([]float64, n),
		AllocIdx:     make([]int, n),
		CPUPower:     make([]float64, n),
		GPUPower:     make([]float64, n),
		GPUPowerEach: make([][units.GPUsPerNode]float64, n),
		GPUCoreTemp:  make([][units.GPUsPerNode]float64, n),
		GPUMemTemp:   make([][units.GPUsPerNode]float64, n),
		CPUTemp:      make([][units.CPUsPerNode]float64, n),
		MeterPower:   make([]units.Watts, s.floor.MSBs()),
	}
	starts := make([]int, len(s.allocs))
	for i := range starts {
		starts[i] = i
	}
	ends := append([]int(nil), starts...)
	for i := 1; i < len(ends); i++ { // insertion sort by EndTime
		for j := i; j > 0 && s.allocs[ends[j]].EndTime < s.allocs[ends[j-1]].EndTime; j-- {
			ends[j], ends[j-1] = ends[j-1], ends[j]
		}
	}
	nodeAlloc := make([]int, n)
	for i := range nodeAlloc {
		nodeAlloc[i] = -1
	}
	nextStart, nextEnd := 0, 0
	result := &Result{Allocations: s.allocs, Skipped: s.skipped}
	sub := cfg.SamplesPerWindow
	step := float64(cfg.StepSec) / float64(sub)
	invSub := 1 / float64(sub)
	darkCab := -1
	if s.floor.Cabinets() > 1 {
		darkCab = int(cfg.Seed) % s.floor.Cabinets()
	}
	var rec []*Snapshot
	for tw := cfg.StartTime; tw < cfg.StartTime+cfg.DurationSec; tw += cfg.StepSec {
		for nextEnd < len(ends) && s.allocs[ends[nextEnd]].EndTime <= tw {
			idx := ends[nextEnd]
			for _, id := range s.allocs[idx].NodeIDs {
				if nodeAlloc[id] == idx {
					nodeAlloc[id] = -1
				}
			}
			nextEnd++
		}
		for nextStart < len(starts) && s.allocs[starts[nextStart]].StartTime <= tw {
			idx := starts[nextStart]
			for _, id := range s.allocs[idx].NodeIDs {
				nodeAlloc[id] = idx
			}
			nextStart++
		}
		copy(snap.AllocIdx, nodeAlloc)
		snap.T = tw
		supply := s.cep.SupplyC()
		for i := 0; i < n; i++ {
			id := topology.NodeID(i)
			allocIdx := nodeAlloc[i]
			var stat stats.Moments
			var cpuW [units.CPUsPerNode]float64
			var gpuW [units.GPUsPerNode]float64
			var otherW float64
			for k := 0; k < sub; k++ {
				var np workload.NodePower
				if allocIdx >= 0 {
					a := &s.allocs[allocIdx]
					nodeRank := int(id) - int(a.NodeIDs[0])
					dt := float64(tw-a.StartTime) + float64(k)*step
					np = a.Job.Profile.Power(uint64(a.Job.ID), nodeRank, dt)
				} else {
					np = workload.IdleNodePower()
				}
				stat.Add(float64(s.meters.NodeSensor(id, units.Watts(float64(np.Total())))))
				for c := range np.CPU {
					cpuW[c] += float64(np.CPU[c])
				}
				for g := range np.GPU {
					gpuW[g] += float64(np.GPU[g])
				}
				otherW += float64(np.Other)
			}
			var meanPower workload.NodePower
			var cpuSum, gpuSum float64
			for c := range cpuW {
				m := cpuW[c] * invSub
				meanPower.CPU[c] = units.Watts(m)
				cpuSum += m
			}
			for g := range gpuW {
				m := gpuW[g] * invSub
				meanPower.GPU[g] = units.Watts(m)
				gpuSum += m
			}
			meanPower.Other = units.Watts(otherW * invSub)
			snap.NodeStat[i] = tsagg.WindowStat{
				T: tw, Count: stat.N, Min: stat.Min, Max: stat.Max,
				Mean: stat.Mean(), Std: stat.Std(),
			}
			snap.TruePower[i] = float64(meanPower.Total())
			snap.CPUPower[i] = cpuSum
			snap.GPUPower[i] = gpuSum
			states[i].Step(float64(cfg.StepSec), meanPower, supply)
			for g := 0; g < units.GPUsPerNode; g++ {
				snap.GPUPowerEach[i][g] = float64(meanPower.GPU[g])
				snap.GPUCoreTemp[i][g] = float64(states[i].GPUCoreTemp(topology.GPUSlot(g)))
				snap.GPUMemTemp[i][g] = float64(states[i].GPUMemTemp(topology.GPUSlot(g)))
			}
			for c := 0; c < units.CPUsPerNode; c++ {
				snap.CPUTemp[i][c] = float64(states[i].CPUTemp(topology.CPUSocket(c)))
			}
			if cfg.TelemetryLossFrac > 0 &&
				(s.floor.Cabinet(id) == darkCab ||
					refTelemetryLost(i, tw, cfg.Seed, cfg.TelemetryLossFrac)) {
				nan := math.NaN()
				snap.NodeStat[i] = tsagg.WindowStat{T: tw, Count: 0, Min: nan, Max: nan, Mean: nan, Std: nan}
				snap.CPUPower[i] = nan
				snap.GPUPower[i] = nan
				for g := 0; g < units.GPUsPerNode; g++ {
					snap.GPUPowerEach[i][g] = nan
					snap.GPUCoreTemp[i][g] = nan
					snap.GPUMemTemp[i][g] = nan
				}
				for c := 0; c < units.CPUsPerNode; c++ {
					snap.CPUTemp[i][c] = nan
				}
			}
		}
		// Shared numerical definition: serial node-order sensor sum;
		// ground truth reduced over fixed blocks in block order.
		var sensorSum, trueSum float64
		for i := range snap.NodeStat {
			if snap.NodeStat[i].Count > 0 {
				sensorSum += snap.NodeStat[i].Mean
			}
		}
		msbTrue := make([]float64, s.floor.MSBs())
		for b := 0; b*rollupBlockNodes < n; b++ {
			var bt float64
			bm := make([]float64, len(msbTrue))
			for i := b * rollupBlockNodes; i < (b+1)*rollupBlockNodes && i < n; i++ {
				bt += snap.TruePower[i]
				bm[s.floor.MSBOf(topology.NodeID(i))] += snap.TruePower[i]
			}
			trueSum += bt
			for m := range msbTrue {
				msbTrue[m] += bm[m]
			}
		}
		snap.ClusterSensorPower = units.Watts(sensorSum)
		snap.ClusterTruePower = units.Watts(trueSum)
		for m := range msbTrue {
			snap.MeterPower[m] = s.meters.MeterPower(topology.MSB(m), units.Watts(msbTrue[m]))
		}
		s.cep.Step(tw, float64(cfg.StepSec), units.Watts(trueSum))
		cond := s.weather.At(tw)
		snap.SupplyC = s.cep.SupplyC()
		snap.ReturnC = s.cep.ReturnC()
		snap.TowerTons = s.cep.TowerTons()
		snap.ChillerTons = s.cep.ChillerTons()
		snap.ActiveTowers = s.cep.ActiveTowers()
		snap.ActiveChillers = s.cep.ActiveChillers()
		snap.PUE = s.cep.PUE()
		snap.WetBulbC = cond.WetBulbC
		snap.DryBulbC = cond.DryBulbC
		snap.Failures = snap.Failures[:0]
		if (tw-cfg.StartTime)%cfg.FailureCheckSec == 0 {
			jobTemp := map[int]*stats.Moments{}
			for i, a := range nodeAlloc {
				if a < 0 {
					continue
				}
				m := jobTemp[a]
				if m == nil {
					m = &stats.Moments{}
					jobTemp[a] = m
				}
				for g := 0; g < units.GPUsPerNode; g++ {
					if v := snap.GPUCoreTemp[i][g]; !math.IsNaN(v) {
						m.Add(v)
					}
				}
			}
			window := float64(cfg.FailureCheckSec)
			for i := 0; i < n; i++ {
				aIdx := nodeAlloc[i]
				var ctx failures.Context
				var mean, sd float64
				if aIdx >= 0 {
					a := &s.allocs[aIdx]
					ctx.JobID = a.Job.ID
					ctx.Project = a.Job.Project
					ctx.Active = true
					m := jobTemp[aIdx]
					mean, sd = m.Mean(), m.Std()
				}
				for g := 0; g < units.GPUsPerNode; g++ {
					ctx.TempC = snap.GPUCoreTemp[i][g]
					if ctx.Active && sd > 0 {
						ctx.TempZ = (ctx.TempC - mean) / sd
					} else {
						ctx.TempZ = math.NaN()
						if !ctx.Active {
							ctx.TempZ = 0
						}
					}
					snap.Failures = s.injector.SampleInto(snap.Failures,
						tw, window, topology.NodeID(i), topology.GPUSlot(g), ctx)
				}
			}
			result.Failures = append(result.Failures, snap.Failures...)
		}
		rec = append(rec, cloneSnap(snap))
		result.Steps++
	}
	return rec, result
}

func diffEvents(t *testing.T, where string, got, want []failures.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", where, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		same := g.Time == w.Time && g.Node == w.Node && g.Slot == w.Slot &&
			g.Type == w.Type && g.JobID == w.JobID &&
			eqBits(g.TempC, w.TempC) && eqBits(g.TempZ, w.TempZ)
		if !same {
			t.Fatalf("%s: event %d diverged:\n got %+v\nwant %+v", where, i, g, w)
		}
	}
}

// diffSnap compares every field of two windows at zero tolerance.
func diffSnap(t *testing.T, k int, got, want *Snapshot) {
	t.Helper()
	if got.T != want.T {
		t.Fatalf("window %d: T %d != %d", k, got.T, want.T)
	}
	for i := range want.NodeStat {
		g, w := got.NodeStat[i], want.NodeStat[i]
		if g.T != w.T || g.Count != w.Count || !eqBits(g.Min, w.Min) ||
			!eqBits(g.Max, w.Max) || !eqBits(g.Mean, w.Mean) || !eqBits(g.Std, w.Std) {
			t.Fatalf("window %d node %d stat: %+v != %+v", k, i, g, w)
		}
		if got.AllocIdx[i] != want.AllocIdx[i] {
			t.Fatalf("window %d node %d alloc: %d != %d", k, i, got.AllocIdx[i], want.AllocIdx[i])
		}
		if !eqBits(got.TruePower[i], want.TruePower[i]) {
			t.Fatalf("window %d node %d true power: %v != %v", k, i, got.TruePower[i], want.TruePower[i])
		}
		if !eqBits(got.CPUPower[i], want.CPUPower[i]) || !eqBits(got.GPUPower[i], want.GPUPower[i]) {
			t.Fatalf("window %d node %d component power diverged", k, i)
		}
		for g := 0; g < units.GPUsPerNode; g++ {
			if !eqBits(got.GPUPowerEach[i][g], want.GPUPowerEach[i][g]) ||
				!eqBits(got.GPUCoreTemp[i][g], want.GPUCoreTemp[i][g]) ||
				!eqBits(got.GPUMemTemp[i][g], want.GPUMemTemp[i][g]) {
				t.Fatalf("window %d node %d gpu %d diverged", k, i, g)
			}
		}
		for c := 0; c < units.CPUsPerNode; c++ {
			if !eqBits(got.CPUTemp[i][c], want.CPUTemp[i][c]) {
				t.Fatalf("window %d node %d cpu %d temp diverged", k, i, c)
			}
		}
	}
	if !eqBits(float64(got.ClusterSensorPower), float64(want.ClusterSensorPower)) {
		t.Fatalf("window %d cluster sensor: %v != %v", k, got.ClusterSensorPower, want.ClusterSensorPower)
	}
	if !eqBits(float64(got.ClusterTruePower), float64(want.ClusterTruePower)) {
		t.Fatalf("window %d cluster true: %v != %v", k, got.ClusterTruePower, want.ClusterTruePower)
	}
	for m := range want.MeterPower {
		if !eqBits(float64(got.MeterPower[m]), float64(want.MeterPower[m])) {
			t.Fatalf("window %d meter %d: %v != %v", k, m, got.MeterPower[m], want.MeterPower[m])
		}
	}
	if !eqBits(float64(got.SupplyC), float64(want.SupplyC)) ||
		!eqBits(float64(got.ReturnC), float64(want.ReturnC)) ||
		!eqBits(float64(got.TowerTons), float64(want.TowerTons)) ||
		!eqBits(float64(got.ChillerTons), float64(want.ChillerTons)) ||
		got.ActiveTowers != want.ActiveTowers ||
		got.ActiveChillers != want.ActiveChillers ||
		!eqBits(got.PUE, want.PUE) ||
		!eqBits(got.WetBulbC, want.WetBulbC) ||
		!eqBits(got.DryBulbC, want.DryBulbC) {
		t.Fatalf("window %d facility state diverged:\n got %+v\nwant %+v", k, got, want)
	}
	diffEvents(t, "window failures", got.Failures, want.Failures)
}

// TestSeedEngineParity is the correctness anchor of the hot-loop overhaul:
// the optimized parallel engine must reproduce the naive serial reference
// bit for bit across every window, node, meter, facility reading and
// injected failure.
func TestSeedEngineParity(t *testing.T) {
	cfg := parityConfig()
	want, wantRes := refRun(t, cfg)
	cfg.Workers = 4
	got, gotRes := runRecorded(t, cfg)
	if len(got) != len(want) {
		t.Fatalf("engine produced %d windows, reference %d", len(got), len(want))
	}
	for k := range want {
		diffSnap(t, k, got[k], want[k])
	}
	if gotRes.Steps != wantRes.Steps || gotRes.Skipped != wantRes.Skipped {
		t.Fatalf("result mismatch: steps %d/%d skipped %d/%d",
			gotRes.Steps, wantRes.Steps, gotRes.Skipped, wantRes.Skipped)
	}
	diffEvents(t, "result failures", gotRes.Failures, wantRes.Failures)
}

// TestRunWorkerCountInvariance verifies the engine's central determinism
// claim: the block-sharded reduction makes results independent of Workers.
func TestRunWorkerCountInvariance(t *testing.T) {
	cfg := parityConfig()
	cfg.Workers = 1
	one, oneRes := runRecorded(t, cfg)
	cfg.Workers = 5
	many, manyRes := runRecorded(t, cfg)
	if len(one) != len(many) {
		t.Fatalf("window counts differ: %d vs %d", len(one), len(many))
	}
	for k := range one {
		diffSnap(t, k, many[k], one[k])
	}
	diffEvents(t, "result failures", manyRes.Failures, oneRes.Failures)
	if oneRes.Steps != manyRes.Steps {
		t.Fatalf("steps differ: %d vs %d", oneRes.Steps, manyRes.Steps)
	}
}
