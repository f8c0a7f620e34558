// Package sim is the closed-loop Summit digital twin: it advances simulated
// time, driving the scheduler's allocations onto nodes, evaluating each
// node's component power from its job's profile, stepping per-node thermal
// state and the central energy plant, reading the biased node sensors and
// the MSB meters, and injecting GPU XID failures with live thermal context.
//
// Analyses consume the run through Observer callbacks. Observe runs on
// Run's consumer goroutine, one call at a time, in window order. The
// Snapshot it is handed lives in a slot of a ring Run reuses: the slot is
// recycled once Observe returns, so an observer copies what it keeps. An
// observer must not read the Sim — its live state is windows ahead of the
// snapshot; what an observer needs beyond the snapshot it takes before Run.
//
// # Hot-loop design
//
// Run is the throughput ceiling of the whole reproduction (every analysis,
// the queryd archive, and the streamd live plane are fed by it), so its
// steady state is engineered to be allocation-free and cache-friendly:
//
//   - Per-node thermal state lives in a structure-of-arrays nodesim.Fleet
//     (flat float64 slices indexed by node) with per-component decay
//     factors and water-flow denominators precomputed for the fixed step,
//     instead of a []*State pointer chase with math.Exp per component.
//   - The node sweep runs over fixed blocks of rollupBlockNodes nodes on a
//     persistent parallel.Pool. Each block owns a padded accumulator for
//     the cluster roll-up (sensor sum, true sum, per-MSB sums); the
//     partials are reduced once per window in block order, so the O(n)
//     roll-up scales with workers AND the reduction order — hence every
//     float64 bit of the result — is independent of the worker count.
//   - workload.Profile evaluation is memoized per (allocation, sample
//     offset) each window: the K nodes of a wide job share the
//     deterministic base waveform (SampleBase) and apply only per-node
//     noise.
//   - An idle node's window (every sample is the idle draw) is computed
//     once per run: only its sensor reading, one multiply by the node's
//     gain, and the thermal step remain per node-window.
//   - Run is a two-stage pipeline. The calling goroutine produces windows
//     (allocation events, the memo, the block sweep, the roll-up, meters
//     and plant); one consumer goroutine runs the failure sweep and then
//     the observers, in window order. The failure sweep is one-way —
//     nothing in the physics reads its events or the injector — so the
//     stages overlap without changing a bit. Windows pass between them in
//     a fixed ring of ringSlots slots of max(1, slotNodeWindows/Nodes)
//     windows each.
//   - All per-window scratch (roll-up accumulators, per-job temperature
//     moments, the failure event buffer, the memo table, the ring) is
//     reused across windows.
//
// The engine's outputs are pinned bit-for-bit by TestSeedEngineParity
// against a plain serial reference implementation (seedengine_test.go),
// by the Workers=1-vs-N determinism test, and — for the ring — by
// TestSlowObserverSeesEveryWindowIntact, whose lagging observer must see
// what a prompt one sees.
package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"

	"repro/internal/facility"
	"repro/internal/failures"
	"repro/internal/nodesim"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tsagg"
	"repro/internal/units"
	"repro/internal/workload"
)

// Config sizes and seeds a simulation run.
type Config struct {
	Seed uint64
	// Cluster names this run's cluster identity. It is carried end to end
	// — run-meta manifest, archive metadata, analysis outputs, the query
	// plane's ?cluster= selection — and never interpreted by the engine.
	// Empty means the anonymous single-cluster run every earlier build
	// produced.
	Cluster string
	// Site selects the floor/plant preset the cluster is an instance of:
	// "" or "summit" (hybrid air-water, the historical default) or
	// "frontier" (direct-liquid). See topology.Preset.
	Site      string
	Nodes     int   // system size
	StartTime int64 // unix seconds
	// DurationSec is the simulated span; Validate cuts it down to whole
	// windows of StepSec.
	DurationSec int64
	// StepSec is the coarsening window the run advances by (the paper's
	// analyses operate on 10-second windows).
	StepSec int64
	// SamplesPerWindow emulates the 1 Hz sampling inside each window:
	// component power is evaluated this many times per window and the
	// window statistics (min/max/mean/std) computed from those samples.
	SamplesPerWindow int
	// Jobs is the number of jobs generated for the span. Ignored when
	// Workload is provided.
	Jobs int
	// Workload optionally supplies a pre-built job population (sorted by
	// submit time).
	Workload []workload.Job
	// FailureRateScale accelerates XID rates for scaled-down runs
	// (non-positive means 1); FailureRateOff suppresses injection.
	FailureRateScale float64
	// FailureOffenders reshapes the NVLink super-offender population:
	// 0 keeps the default single offender, -1 disables it, and N ≥ 1 spreads
	// the offender volume over N nodes spaced evenly across the fleet (the
	// "bad batch" epidemic regime). Must not exceed Nodes.
	FailureOffenders int
	// FailureCheckSec is the failure-injection interval (coarser than the
	// power step for efficiency). Defaults to 300 s.
	FailureCheckSec int64
	// Workers bounds the node-update parallelism (0 = GOMAXPROCS). The
	// results are bit-identical for every worker count.
	Workers int
	// PowerCap, when positive, enables power-aware admission in the
	// scheduler (the paper's conclusion what-if): jobs are held back when
	// the estimated aggregate power would exceed the cap.
	PowerCap units.Watts
	// PowerCapSchedule makes the cap a step function over the run: from
	// AfterSec seconds after StartTime the admission ceiling becomes CapW
	// (zero lifts the cap). Steps must be time-ascending. PowerCap is the
	// ceiling before the first step.
	PowerCapSchedule []CapStep
	// Placement names the scheduler's node-placement strategy:
	// "" or "contiguous" (Summit default), "packed", or "scatter".
	Placement string
	// Plant tunes the central energy plant (supply setpoint, staging
	// thresholds, efficiencies). The zero value keeps the
	// Summit-calibrated defaults.
	Plant facility.Tuning
	// TelemetryLossFrac models the paper's missing-data reality: this
	// fraction of node-windows is dropped from the telemetry view
	// (Count 0, NaN statistics), and one fixed cabinet goes completely
	// dark for the whole run (the "bright green cabinet" of Figure 17).
	// Ground truth (TruePower, meters, facility) is unaffected — only
	// what the out-of-band pipeline would have delivered.
	TelemetryLossFrac float64
}

// FailureRateOff is the FailureRateScale of a run without failures: a
// rate too small to ever fire, since Validate reads zero as the default.
// Power-only sweeps use it for throughput.
const FailureRateOff = 1e-9

// CapStep is one step of a power-cap schedule expressed in run-relative
// time: from AfterSec seconds after StartTime the cap is CapW watts
// (zero lifts the cap).
type CapStep struct {
	AfterSec int64       `json:"after_sec"`
	CapW     units.Watts `json:"cap_w"`
}

// ErrConfig marks an out-of-bounds simulation configuration; specific
// violations wrap it.
var ErrConfig = errors.New("sim: invalid config")

// Validate checks the configuration and applies defaults.
func (c *Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("sim: non-positive node count %d", c.Nodes)
	}
	if c.DurationSec <= 0 {
		return fmt.Errorf("sim: non-positive duration %d", c.DurationSec)
	}
	if c.StepSec <= 0 {
		c.StepSec = units.CoarsenWindowSec
	}
	// A run is a whole number of windows: Run steps while t < end and the
	// collector and run-meta count DurationSec/StepSec windows, which agree
	// only on a span cut down to the grid.
	if c.DurationSec -= c.DurationSec % c.StepSec; c.DurationSec == 0 {
		return fmt.Errorf("sim: duration shorter than one %d s window", c.StepSec)
	}
	if c.SamplesPerWindow <= 0 {
		c.SamplesPerWindow = 1
	}
	if c.FailureCheckSec <= 0 {
		c.FailureCheckSec = 300
	}
	if c.FailureCheckSec%c.StepSec != 0 {
		c.FailureCheckSec = (c.FailureCheckSec/c.StepSec + 1) * c.StepSec
	}
	if c.Jobs <= 0 && len(c.Workload) == 0 {
		return fmt.Errorf("sim: no workload (set Jobs or Workload)")
	}
	// A job ID keys the job's power series, allocation and project in
	// every analysis: two jobs sharing one would be merged.
	if len(c.Workload) > 0 {
		at := make(map[int64]int, len(c.Workload))
		for i, j := range c.Workload {
			if first, dup := at[j.ID]; dup {
				return fmt.Errorf("%w: workload jobs %d and %d share job ID %d", ErrConfig, first, i, j.ID)
			}
			at[j.ID] = i
		}
	}
	if !units.Finite(c.FailureRateScale) {
		return fmt.Errorf("%w: non-finite failure rate scale %v", ErrConfig, c.FailureRateScale)
	}
	if c.FailureRateScale <= 0 {
		c.FailureRateScale = 1
	}
	if !(c.TelemetryLossFrac >= 0 && c.TelemetryLossFrac < 1) { // also rejects NaN
		return fmt.Errorf("%w: telemetry loss fraction %v outside [0, 1)", ErrConfig, c.TelemetryLossFrac)
	}
	if !units.Finite(float64(c.PowerCap)) || c.PowerCap < 0 {
		return fmt.Errorf("%w: negative or non-finite power cap %v", ErrConfig, c.PowerCap)
	}
	for i, st := range c.PowerCapSchedule {
		if st.AfterSec < 0 {
			return fmt.Errorf("%w: cap schedule step %d at negative offset %d",
				ErrConfig, i, st.AfterSec)
		}
		if !units.Finite(float64(st.CapW)) || st.CapW < 0 {
			return fmt.Errorf("%w: negative or non-finite cap %v at schedule step %d", ErrConfig, st.CapW, i)
		}
		if i > 0 && st.AfterSec <= c.PowerCapSchedule[i-1].AfterSec {
			return fmt.Errorf("%w: cap schedule offsets not strictly increasing at step %d (%d after %d)",
				ErrConfig, i, st.AfterSec, c.PowerCapSchedule[i-1].AfterSec)
		}
	}
	if c.FailureOffenders < -1 || c.FailureOffenders > c.Nodes {
		return fmt.Errorf("%w: failure offenders %d outside [-1, %d]",
			ErrConfig, c.FailureOffenders, c.Nodes)
	}
	if _, err := scheduler.ParsePlacement(c.Placement); err != nil {
		return fmt.Errorf("%w: %w", ErrConfig, err)
	}
	if _, err := topology.Preset(c.Site); err != nil {
		return fmt.Errorf("%w: %w", ErrConfig, err)
	}
	if err := c.Plant.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrConfig, err)
	}
	return nil
}

// MinScaledSpanSec is the shortest span Scaled runs.
const MinScaledSpanSec = 600

// Scaled returns a deterministic configuration for a scaled system of the
// given node count over the given span in seconds, with workload volume
// proportional to Summit's ~840k jobs/year and failure rates accelerated
// so the error population stays analyzable. A span under MinScaledSpanSec
// is raised to it.
func Scaled(nodes int, spanSec int64) Config {
	if spanSec < MinScaledSpanSec {
		spanSec = MinScaledSpanSec
	}
	// Summit saw ~840k jobs in 2020 on 4,626 nodes; scale by node-time.
	jobs := int(840_000 * float64(nodes) / float64(units.SummitNodes) *
		float64(spanSec) / (365 * 86400))
	if jobs < 20 {
		jobs = 20
	}
	return Config{
		Seed:             2020,
		Nodes:            nodes,
		StartTime:        1_577_836_800, // 2020-01-01 UTC
		DurationSec:      spanSec,
		StepSec:          units.CoarsenWindowSec,
		SamplesPerWindow: 2,
		Jobs:             jobs,
		FailureRateScale: failureScale(nodes, spanSec),
	}
}

// failureScale accelerates XID rates inversely with simulated GPU-time so
// a scaled run still accumulates an analyzable error population.
func failureScale(nodes int, spanSec int64) float64 {
	full := float64(units.SummitNodes) * (365 * 86400)
	frac := float64(nodes) * float64(spanSec) / full
	if frac <= 0 {
		return 1
	}
	scale := 0.05 / frac // target ≈ 5 % of the yearly error volume
	if scale < 1 {
		scale = 1
	}
	if scale > 50_000 {
		scale = 50_000
	}
	return scale
}

// Snapshot is the per-window view delivered to observers. All slices are
// indexed by dense NodeID and belong to a ring slot Run reuses once every
// observer has returned.
type Snapshot struct {
	T int64 // window start

	// NodeStat is the window statistic of each node's *sensor-read* input
	// power (the biased BMC reading the paper's analyses consume).
	NodeStat []tsagg.WindowStat
	// TruePower is the ground-truth mean input power per node over the
	// window, used only for meter validation (Figure 4).
	TruePower []float64
	// AllocIdx is the index into Allocations of the job running on each
	// node, or -1 when idle.
	AllocIdx []int

	// Component means over the window, per node.
	CPUPower []float64 // sum of both sockets
	GPUPower []float64 // sum of all six GPUs
	// GPUPowerEach is the per-GPU window-mean power (W), for the
	// variability analysis (Figure 17).
	GPUPowerEach [][units.GPUsPerNode]float64

	// Thermal state at window end.
	GPUCoreTemp [][units.GPUsPerNode]float64
	GPUMemTemp  [][units.GPUsPerNode]float64
	CPUTemp     [][units.CPUsPerNode]float64

	// Cluster-level facility state.
	ClusterSensorPower units.Watts // Σ sensor power
	ClusterTruePower   units.Watts // Σ true power
	MeterPower         []units.Watts
	SupplyC            units.Celsius
	ReturnC            units.Celsius
	TowerTons          units.TonsRefrigeration
	ChillerTons        units.TonsRefrigeration
	ActiveTowers       int
	ActiveChillers     int
	PUE                float64
	WetBulbC           float64
	DryBulbC           float64

	// Failures injected during this window (usually empty; populated on
	// failure-check boundaries).
	Failures []failures.Event
}

// Observer receives every window of a run. Observe is called on Run's
// consumer goroutine, one call at a time, in window order; the snapshot's
// slot is recycled once it returns, so it must copy what it keeps. It must
// not read the Sim, whose live state runs ahead of the snapshot. A panic in
// Observe stops the run and is raised again on Run's caller.
type Observer interface {
	Observe(s *Snapshot)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(s *Snapshot)

// Observe implements Observer.
func (f ObserverFunc) Observe(s *Snapshot) { f(s) }

// Result summarizes a completed run.
type Result struct {
	Allocations []scheduler.Allocation
	Skipped     int
	Failures    []failures.Event
	Steps       int
}

// Sim is a configured simulation. Create with New, execute with Run.
type Sim struct {
	cfg      Config
	floor    *topology.Floor
	allocs   []scheduler.Allocation
	skipped  int
	injector *failures.Injector
	weather  *facility.Weather
	cep      *facility.CEP
	meters   *facility.MSBMeters
	fleet    *nodesim.Fleet
	util     float64 // the scheduler's makespan utilization; sizes the failure log

	// Hot-loop invariants precomputed at construction.
	nodeMSB []int32 // dense NodeID -> MSB index (avoids per-window division)
	dark    []bool  // node sits in the run's dark cabinet
}

// New builds the system: generates (or accepts) the workload, schedules it,
// and initializes node, facility, and failure state.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tcfg, err := topology.PresetScaled(cfg.Site, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	floor, err := topology.New(tcfg)
	if err != nil {
		return nil, err
	}
	jobs := cfg.Workload
	if len(jobs) == 0 {
		if jobs, err = cfg.GenerateWorkload(); err != nil {
			return nil, err
		}
	}
	placement, err := scheduler.ParsePlacement(cfg.Placement)
	if err != nil {
		return nil, err
	}
	pol := scheduler.Policy{PowerCap: cfg.PowerCap, Placement: placement}
	for _, st := range cfg.PowerCapSchedule {
		pol.CapSchedule = append(pol.CapSchedule, scheduler.CapStep{
			AtSec: cfg.StartTime + st.AfterSec, Cap: st.CapW,
		})
	}
	sched, err := scheduler.ScheduleWithPolicy(jobs, cfg.Nodes, pol)
	if err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	fcfg := failures.DefaultConfig(cfg.Seed+1, cfg.Nodes)
	fcfg.RateScale = cfg.FailureRateScale
	switch {
	case cfg.FailureOffenders < 0:
		fcfg.SuperOffenderNVLink = -1
	case cfg.FailureOffenders == 1:
		// A single explicit offender keeps the default node choice.
	case cfg.FailureOffenders > 1:
		// Space the offender epidemic evenly across the fleet.
		offs := make([]int, cfg.FailureOffenders)
		for i := range offs {
			offs[i] = (i*cfg.Nodes + cfg.Nodes/2) / cfg.FailureOffenders % cfg.Nodes
		}
		fcfg.SuperOffenders = offs
	}
	s := &Sim{
		cfg:      cfg,
		floor:    floor,
		allocs:   sched.Allocations,
		skipped:  len(sched.Skipped),
		injector: failures.NewInjector(fcfg),
		weather:  facility.NewWeather(cfg.Seed),
		meters:   facility.NewMSBMeters(floor, root.Split("meters")),
		util:     sched.Utilization(cfg.Nodes),
	}
	s.cep = facility.NewCEP(s.weather)
	// The site's cooling architecture sets the plant's base parameters;
	// explicit Tuning then overrides on top, exactly as it overrides the
	// Summit defaults on the historical path.
	if err := s.cep.ApplyProfile(facility.Profile(tcfg.Cooling)); err != nil {
		return nil, err
	}
	if err := s.cep.Tune(cfg.Plant); err != nil {
		return nil, err
	}
	// Scale the plant to the system: fixed overhead, loop flow and loop
	// thermal mass are sized for the site's full-scale floor; a scaled run
	// gets a proportionally smaller plant so PUE stays meaningful.
	full, err := topology.Preset(cfg.Site)
	if err != nil {
		return nil, err
	}
	frac := float64(cfg.Nodes) / float64(full.Nodes)
	s.cep.FixedOverheadW *= frac
	s.cep.LoopFlowGPM *= frac
	s.cep.LoopMassKg *= frac
	varRS := root.Split("node-variation")
	vars := make([]nodesim.Variation, cfg.Nodes)
	for i := range vars {
		vars[i] = nodesim.NewVariation(varRS.SplitN("node", i))
	}
	s.fleet = nodesim.NewFleet(vars, float64(cfg.StepSec), s.cep.SupplyC())
	s.nodeMSB = make([]int32, cfg.Nodes)
	s.dark = make([]bool, cfg.Nodes)
	darkCab := s.darkCabinet()
	for i := 0; i < cfg.Nodes; i++ {
		s.nodeMSB[i] = int32(floor.MSBOf(topology.NodeID(i)))
		s.dark[i] = floor.Cabinet(topology.NodeID(i)) == darkCab
	}
	return s, nil
}

// GenerateWorkload draws the calibrated job population New schedules when
// Workload is empty: a pure function of (Seed, StartTime, DurationSec,
// Jobs, Nodes). Paired sweeps call it once and hand every arm the result,
// so all arms schedule the identical submitted job stream.
func (c Config) GenerateWorkload() ([]workload.Job, error) {
	return workload.Generate(workload.GenConfig{
		Seed:              c.Seed,
		StartTime:         c.StartTime,
		SpanSec:           c.DurationSec,
		Jobs:              c.Jobs,
		MaxNodes:          min(c.Nodes, 4608),
		ProjectsPerDomain: 6,
	})
}

// Allocations exposes the scheduled job placements.
func (s *Sim) Allocations() []scheduler.Allocation { return s.allocs }

// Config returns the validated run configuration.
func (s *Sim) Config() Config { return s.cfg }

// Floor exposes the floor layout the run was built on (the site preset
// scaled to the configured node count).
func (s *Sim) Floor() *topology.Floor { return s.floor }

// DeriveSeed derives the i-th cluster's seed from a fleet base seed via a
// splitmix64 step: statistically independent streams, deterministic in
// (base, i), and stable across fleet sizes so adding a cluster never
// reseeds the existing ones.
func DeriveSeed(base uint64, i int) uint64 {
	return rng.Mix64(base + 0x9e3779b97f4a7c15*uint64(i+1))
}

// rollupBlockNodes is the fixed node-block granularity of the parallel
// sweep and the sharded cluster roll-up. It is a structural constant of
// the engine's floating-point semantics: partial sums are formed per block
// and reduced in block order, so results depend on this value but NOT on
// the worker count. 64 nodes ≈ tens of microseconds of work per claim,
// and a full 4,608-node floor yields 72 blocks of parallelism.
const rollupBlockNodes = 64

// blockAcc is one block's roll-up accumulator, padded to a cache line so
// adjacent blocks written by different workers never false-share. Only the
// ground-truth sums are sharded: the cluster *sensor* sum is reduced
// serially in node order because the streaming plane's rollup operator
// sums the same per-node means in node order, and that cross-plane parity
// contract is bit-exact (see internal/stream's TestBatchStreamParity).
type blockAcc struct {
	truth float64   // Σ ground-truth node power
	msb   []float64 // per-MSB Σ ground-truth power
	_     [4]float64
}

// idlePower is the constant power draw of an unallocated node, and
// idleTotal the ground-truth input power of each of its samples.
var (
	idlePower = workload.IdleNodePower()
	idleTotal = float64(idlePower.Total())
)

// ringSlots is how many snapshot slots circulate between Run's two stages,
// and slotNodeWindows how many node-windows one slot carries: a slot holds
// max(1, slotNodeWindows/Nodes) consecutive windows, so a small fleet is
// handed over a batch of windows at a time and a large one a window at a
// time. Like rollupBlockNodes they are structural constants, not options;
// unlike it they shape only the hand-off, never a bit of the output.
const (
	ringSlots       = 8
	slotNodeWindows = 1024
)

// slot is one hand-off unit of the ring: the first n of snaps are
// consecutive windows.
type slot struct {
	snaps []Snapshot
	n     int
}

// newRing allocates the ring's slots, perSlot snapshots each; every field
// of every snapshot is cut from one backing array per field.
func newRing(perSlot, nodes, msbs int) []slot {
	total := ringSlots * perSlot
	stat := make([]tsagg.WindowStat, total*nodes)
	truth := make([]float64, total*nodes)
	alloc := make([]int, total*nodes)
	cpu := make([]float64, total*nodes)
	gpu := make([]float64, total*nodes)
	gpuEach := make([][units.GPUsPerNode]float64, total*nodes)
	gpuCore := make([][units.GPUsPerNode]float64, total*nodes)
	gpuMem := make([][units.GPUsPerNode]float64, total*nodes)
	cpuTemp := make([][units.CPUsPerNode]float64, total*nodes)
	meter := make([]units.Watts, total*msbs)
	snaps := make([]Snapshot, total)
	for k := range snaps {
		snaps[k] = Snapshot{
			NodeStat:     part(stat, k, nodes),
			TruePower:    part(truth, k, nodes),
			AllocIdx:     part(alloc, k, nodes),
			CPUPower:     part(cpu, k, nodes),
			GPUPower:     part(gpu, k, nodes),
			GPUPowerEach: part(gpuEach, k, nodes),
			GPUCoreTemp:  part(gpuCore, k, nodes),
			GPUMemTemp:   part(gpuMem, k, nodes),
			CPUTemp:      part(cpuTemp, k, nodes),
			MeterPower:   part(meter, k, msbs),
		}
	}
	ring := make([]slot, ringSlots)
	for b := range ring {
		ring[b].snaps = part(snaps, b, perSlot)
	}
	return ring
}

// part is the k-th length-n piece of a, capped so it cannot grow into the
// next.
func part[T any](a []T, k, n int) []T { return a[k*n : (k+1)*n : (k+1)*n] }

// windowPower is one node-window's component power: the per-component
// means, the CPU and GPU sums and the ground-truth total.
type windowPower struct {
	mean           workload.NodePower
	cpuSum, gpuSum float64
	truth          float64
}

// runState is the producer's per-Run scratch reused across every window,
// plus the per-window values the parallel block sweep reads.
type runState struct {
	snap      *Snapshot // the window being produced
	nodeAlloc []int
	sub       int
	step      float64 // StepSec / SamplesPerWindow
	invSub    float64 // 1 / SamplesPerWindow
	lossOn    bool
	// idle is the window of an unallocated node. Every one of its samples
	// is idlePower, so it is the same for every node and computed once.
	idle windowPower

	t      int64
	supply units.Celsius

	// Allocation start/end event walkers. Allocations come sorted by start
	// time, so nextStart is the next allocation to start; ends holds the
	// allocation indices in end order and nextEnd the next of them to end.
	ends               []int
	nextStart, nextEnd int

	// Sharded roll-up.
	blocks  []blockAcc
	msbTrue []float64

	// Active-allocation tracking and the per-window profile memo.
	active    []int
	allocSlot []int32
	memo      []workload.SampleBase
}

// newRunState builds the producer's scratch for one run.
func (s *Sim) newRunState() *runState {
	cfg := s.cfg
	n := cfg.Nodes
	sub := cfg.SamplesPerWindow
	nBlocks := (n + rollupBlockNodes - 1) / rollupBlockNodes
	msbs := s.floor.MSBs()
	rs := &runState{
		nodeAlloc: make([]int, n),
		sub:       sub,
		step:      float64(cfg.StepSec) / float64(sub),
		invSub:    1 / float64(sub),
		lossOn:    cfg.TelemetryLossFrac > 0,
		blocks:    make([]blockAcc, nBlocks),
		msbTrue:   make([]float64, msbs),
		allocSlot: make([]int32, len(s.allocs)),
	}
	for i := range rs.nodeAlloc {
		rs.nodeAlloc[i] = -1
	}
	rs.ends = make([]int, len(s.allocs))
	for i := range rs.ends {
		rs.ends[i] = i
	}
	sort.Slice(rs.ends, func(a, b int) bool {
		return s.allocs[rs.ends[a]].EndTime < s.allocs[rs.ends[b]].EndTime
	})
	// Back the per-block MSB partials with one slab, striding each block
	// to a cache-line multiple so neighbours never share a line.
	msbStride := (msbs + 7) &^ 7
	msbSlab := make([]float64, nBlocks*msbStride)
	for b := range rs.blocks {
		rs.blocks[b].msb = msbSlab[b*msbStride:][:msbs:msbs]
	}
	// The idle window is the sample loop's, run once; its sensor statistic
	// is per node (idleStat).
	_, rs.idle = s.sampleWindow(0, rs, nil, nil)
	return rs
}

// consumer is Run's second stage. On its own goroutine it runs, window by
// window in order, the failure sweep and then every observer. It alone
// touches the injector and the run's failure log, and the physics never
// reads either, so the producer runs ahead of it.
type consumer struct {
	s        *Sim
	obs      []Observer
	result   *Result
	endTime  int64
	maxYield int // largest failure-sweep yield so far

	// Failure-sweep scratch: per-allocation GPU temperature moments.
	jobMoments []stats.Moments
	jobSeen    []bool
	jobTouched []int

	// stopped is set once an observer panicked or exited its goroutine; the
	// producer reads it at every hand-off. failure is the panic value (nil
	// after runtime.Goexit, which a test's t.FailNow calls).
	stopped atomic.Bool
	failure any
}

// newConsumer builds Run's second stage over obs, with the run's result and
// its event log pre-sized.
func (s *Sim) newConsumer(obs []Observer, endTime int64) *consumer {
	cfg := s.cfg
	c := &consumer{
		s:          s,
		obs:        obs,
		result:     &Result{Allocations: s.allocs, Skipped: s.skipped},
		endTime:    endTime,
		jobMoments: make([]stats.Moments, len(s.allocs)),
		jobSeen:    make([]bool, len(s.allocs)),
	}
	// Pre-size the event log from the injector's a-priori expectation so a
	// typical run never regrows it. The estimate ignores thermal
	// acceleration and cascade secondaries (together ~1.5× in practice),
	// hence the 2× pad; the adaptive re-reserve in window remains the
	// backstop when a run still outgrows it.
	totalSweeps := int(cfg.DurationSec/cfg.FailureCheckSec) + 1
	expect := s.injector.ExpectedEventsPerSweep(float64(cfg.FailureCheckSec), s.util)
	if want := int(expect * float64(totalSweeps) * 2); want > 0 {
		c.result.Failures = make([]failures.Event, 0, want)
	}
	return c
}

// Run executes the simulation, invoking every observer once per window.
//
// It runs in two stages. The calling goroutine produces the windows:
// allocation events, the profile memo, the node block sweep, the roll-up,
// the meters and the plant. One consumer goroutine then runs, in window
// order, the failure sweep and the observers. Snapshots pass between them
// over a fixed ring of ringSlots slots; a slot goes back to the producer
// only once every observer has returned from each of its windows. An
// observer's panic stops the producer at its next hand-off and is raised
// again, with the same value, on the caller's goroutine.
//
//lint:detroot
func (s *Sim) Run(obs ...Observer) (*Result, error) {
	cfg := s.cfg
	n := cfg.Nodes
	endTime := cfg.StartTime + cfg.DurationSec
	rs := s.newRunState()
	workers := cfg.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	if workers > len(rs.blocks) {
		workers = len(rs.blocks)
	}
	pool := parallel.NewPool(workers)
	defer pool.Close()
	blockFn := func(b int) { s.runBlock(b, rs) } // one closure for the whole run

	c := s.newConsumer(obs, endTime)
	ring := newRing(max(1, slotNodeWindows/n), n, s.floor.MSBs())
	full := make(chan int, ringSlots)
	free := make(chan int, ringSlots)
	for b := range ring {
		free <- b
	}
	done := make(chan struct{})
	go c.run(ring, full, free, done)
	for t := cfg.StartTime; t < endTime; {
		b := <-free
		if c.stopped.Load() {
			break
		}
		sl := &ring[b]
		for sl.n = 0; sl.n < len(sl.snaps) && t < endTime; sl.n++ {
			rs.snap = &sl.snaps[sl.n]
			s.advance(t, rs, pool, blockFn)
			t += cfg.StepSec
		}
		full <- b
	}
	close(full)
	<-done
	if c.stopped.Load() {
		if c.failure != nil {
			panic(c.failure)
		}
		runtime.Goexit()
	}
	return c.result, nil
}

// advance produces window t into rs.snap: it applies the allocation starts
// and ends effective by t, memoizes the profile bases, sweeps the node
// blocks, reduces the roll-up and steps the meters and the plant.
func (s *Sim) advance(t int64, rs *runState, pool *parallel.Pool, blockFn func(int)) {
	snap := rs.snap
	for rs.nextEnd < len(rs.ends) && s.allocs[rs.ends[rs.nextEnd]].EndTime <= t {
		idx := rs.ends[rs.nextEnd]
		for _, id := range s.allocs[idx].NodeIDs {
			if rs.nodeAlloc[id] == idx {
				rs.nodeAlloc[id] = -1
			}
		}
		rs.removeActive(idx)
		rs.nextEnd++
	}
	for rs.nextStart < len(s.allocs) && s.allocs[rs.nextStart].StartTime <= t {
		idx := rs.nextStart
		for _, id := range s.allocs[idx].NodeIDs {
			rs.nodeAlloc[id] = idx
		}
		rs.active = append(rs.active, idx)
		rs.nextStart++
	}
	copy(snap.AllocIdx, rs.nodeAlloc)
	snap.T = t
	rs.t = t
	rs.supply = s.cep.SupplyC()
	// Memoize the shared profile waveform per (allocation, sample): every
	// node of an allocation reuses the same SampleBase row.
	sub := rs.sub
	if need := len(rs.active) * sub; cap(rs.memo) < need {
		rs.memo = make([]workload.SampleBase, need)
	}
	for slot, aIdx := range rs.active {
		rs.allocSlot[aIdx] = int32(slot)
		a := &s.allocs[aIdx]
		dtBase := float64(t - a.StartTime)
		row := rs.memo[slot*sub : (slot+1)*sub]
		for k := range row {
			row[k] = a.Job.Profile.BaseAt(dtBase + float64(k)*rs.step)
		}
	}
	// Parallel per-node power evaluation, thermal stepping, and
	// block-sharded roll-up accumulation.
	pool.ForEach(len(rs.blocks), blockFn)
	// Reduce the block partials once, in fixed block order. The sensor sum
	// runs serially in node order to honour the streaming plane's bit-exact
	// rollup contract; lost node-windows (Count 0) are absent from the
	// telemetry view while ground truth still flows to the meters and the
	// facility.
	var sensorSum, trueSum float64
	for i := range snap.NodeStat {
		if st := &snap.NodeStat[i]; st.Count > 0 {
			sensorSum += st.Mean
		}
	}
	msbTrue := rs.msbTrue
	for m := range msbTrue {
		msbTrue[m] = 0
	}
	for b := range rs.blocks {
		acc := &rs.blocks[b]
		trueSum += acc.truth
		for m := range msbTrue {
			msbTrue[m] += acc.msb[m]
		}
	}
	snap.ClusterSensorPower = units.Watts(sensorSum)
	snap.ClusterTruePower = units.Watts(trueSum)
	for m := range msbTrue {
		snap.MeterPower[m] = s.meters.MeterPower(topology.MSB(m), units.Watts(msbTrue[m]))
	}
	// Facility responds to the true heat load.
	s.cep.Step(t, float64(s.cfg.StepSec), units.Watts(trueSum))
	cond := s.weather.At(t)
	snap.SupplyC = s.cep.SupplyC()
	snap.ReturnC = s.cep.ReturnC()
	snap.TowerTons = s.cep.TowerTons()
	snap.ChillerTons = s.cep.ChillerTons()
	snap.ActiveTowers = s.cep.ActiveTowers()
	snap.ActiveChillers = s.cep.ActiveChillers()
	snap.PUE = s.cep.PUE()
	snap.WetBulbC = cond.WetBulbC
	snap.DryBulbC = cond.DryBulbC
}

// run consumes the slots the producer sends on full, handing each back on
// free once its windows are observed, until full is closed. Should an
// observer panic or exit the goroutine, it records why, sets stopped and
// hands every later slot back unread, so the producer never blocks and
// stops at its next hand-off.
func (c *consumer) run(ring []slot, full <-chan int, free chan<- int, done chan<- struct{}) {
	defer close(done)
	finished := false
	defer func() {
		if finished {
			return
		}
		c.failure = recover()
		c.stopped.Store(true)
		for b := range full {
			free <- b
		}
	}()
	for b := range full {
		sl := &ring[b]
		for k := 0; k < sl.n; k++ {
			c.window(&sl.snaps[k])
		}
		free <- b
	}
	finished = true
}

// window runs the failure sweep on snap if it falls on the failure-check
// grid, then every observer.
func (c *consumer) window(snap *Snapshot) {
	cfg := &c.s.cfg
	res := c.result
	// Events append straight into the run-level slice; the window's view is
	// a capped sub-slice of it, so nothing is ever copied twice. Before each
	// sweep the slice is re-reserved to carry the remaining sweeps at the
	// largest per-sweep yield seen so far — yields grow as the fleet heats
	// up, so a one-shot reservation after the first sweep would leave append
	// regrowing a multi-thousand-event slice in the middle of the run.
	snap.Failures = nil
	if (snap.T-cfg.StartTime)%cfg.FailureCheckSec == 0 {
		base := len(res.Failures)
		remaining := int((c.endTime-snap.T)/cfg.FailureCheckSec) + 1
		if want := base + c.maxYield*remaining*9/8; c.maxYield > 0 &&
			cap(res.Failures) < want {
			// Grow at least geometrically: the per-sweep max creeps upward
			// as the fleet heats, and without the floor every small creep
			// would re-reserve the full slice again.
			if floor := cap(res.Failures) + cap(res.Failures)/2; want < floor {
				want = floor
			}
			grown := make([]failures.Event, base, want)
			copy(grown, res.Failures)
			res.Failures = grown
		}
		res.Failures = c.injectFailures(snap, res.Failures)
		n := len(res.Failures)
		snap.Failures = res.Failures[base:n:n]
		if y := n - base; y > c.maxYield {
			c.maxYield = y
		}
	}
	for _, o := range c.obs {
		o.Observe(snap)
	}
	res.Steps++
}

// removeActive drops allocation idx from the active list.
func (rs *runState) removeActive(idx int) {
	for j, a := range rs.active {
		if a == idx {
			rs.active = append(rs.active[:j], rs.active[j+1:]...)
			return
		}
	}
}

// runBlock steps every node of block b and accumulates the block's share
// of the cluster roll-up. Distinct blocks touch disjoint state, so blocks
// run concurrently; within a block, nodes run in index order.
//
//lint:allocfree
func (s *Sim) runBlock(b int, rs *runState) {
	start := b * rollupBlockNodes
	end := start + rollupBlockNodes
	if end > s.cfg.Nodes {
		end = s.cfg.Nodes
	}
	acc := &rs.blocks[b]
	acc.truth = 0
	for m := range acc.msb {
		acc.msb[m] = 0
	}
	snap := rs.snap
	for i := start; i < end; i++ {
		s.stepNode(i, rs)
		if rs.lossOn && s.telemetryLost(i, rs.t) {
			s.blankNode(snap, i, rs.t)
		}
		tp := snap.TruePower[i]
		acc.truth += tp
		acc.msb[s.nodeMSB[i]] += tp
	}
}

// stepNode evaluates one node's window — its power statistics, from the
// memoized job profile bases or the run's idle window, then the thermal
// step.
//
//lint:allocfree
func (s *Sim) stepNode(i int, rs *runState) {
	snap := rs.snap
	id := topology.NodeID(i)
	w := &rs.idle
	var active windowPower
	if allocIdx := rs.nodeAlloc[i]; allocIdx >= 0 {
		slot := int(rs.allocSlot[allocIdx])
		var stat stats.Moments
		stat, active = s.sampleWindow(id, rs, &s.allocs[allocIdx], rs.memo[slot*rs.sub:(slot+1)*rs.sub])
		snap.NodeStat[i] = tsagg.WindowStat{
			T: rs.t, Count: stat.N, Min: stat.Min, Max: stat.Max,
			Mean: stat.Mean(), Std: stat.Std(),
		}
		w = &active
	} else {
		snap.NodeStat[i] = s.idleStat(id, rs)
	}
	snap.TruePower[i] = w.truth
	snap.CPUPower[i] = w.cpuSum
	snap.GPUPower[i] = w.gpuSum
	for g := 0; g < units.GPUsPerNode; g++ {
		snap.GPUPowerEach[i][g] = float64(w.mean.GPU[g])
	}
	// Thermal step under the window-mean power.
	s.fleet.StepNode(i, &w.mean, rs.supply)
	for g := 0; g < units.GPUsPerNode; g++ {
		snap.GPUCoreTemp[i][g] = s.fleet.GPUCoreTemp(i, g)
		snap.GPUMemTemp[i][g] = s.fleet.GPUMemTemp(i, g)
	}
	for c := 0; c < units.CPUsPerNode; c++ {
		snap.CPUTemp[i][c] = s.fleet.CPUTemp(i, c)
	}
}

// sampleWindow runs node id's window through its rs.sub samples — each one
// from allocation a's memoized bases, or idlePower when a is nil — and
// returns the sensor-read statistic and the component means.
//
//lint:allocfree
func (s *Sim) sampleWindow(id topology.NodeID, rs *runState, a *scheduler.Allocation, bases []workload.SampleBase) (stats.Moments, windowPower) {
	var key uint64
	var nodeRank int
	if a != nil {
		key = uint64(a.Job.ID)
		// Rank of the node within the allocation individualizes noise.
		nodeRank = int(id) - int(a.NodeIDs[0])
	}
	var stat stats.Moments
	var cpuW [units.CPUsPerNode]float64
	var gpuW [units.GPUsPerNode]float64
	var otherW float64
	for k := 0; k < rs.sub; k++ {
		np := idlePower
		if a != nil {
			np = a.Job.Profile.PowerFromBase(bases[k], key, nodeRank)
		}
		truePower := float64(np.Total())
		stat.Add(float64(s.meters.NodeSensor(id, units.Watts(truePower))))
		// Accumulate raw component sums; the mean is one reciprocal
		// multiply per component after the loop.
		for c := range np.CPU {
			cpuW[c] += float64(np.CPU[c])
		}
		for g := range np.GPU {
			gpuW[g] += float64(np.GPU[g])
		}
		otherW += float64(np.Other)
	}
	var w windowPower
	for c := range cpuW {
		m := cpuW[c] * rs.invSub
		w.mean.CPU[c] = units.Watts(m)
		w.cpuSum += m
	}
	for g := range gpuW {
		m := gpuW[g] * rs.invSub
		w.mean.GPU[g] = units.Watts(m)
		w.gpuSum += m
	}
	w.mean.Other = units.Watts(otherW * rs.invSub)
	w.truth = float64(w.mean.Total())
	return stat, w
}

// idleStat is node id's sensor statistic over an idle window: rs.sub
// samples of one reading x, whose Welford moments are exactly min = max =
// mean = x and spread 0 — the sample loop's bits without the loop.
//
//lint:allocfree
func (s *Sim) idleStat(id topology.NodeID, rs *runState) tsagg.WindowStat {
	x := float64(s.meters.NodeSensor(id, units.Watts(idleTotal)))
	return tsagg.WindowStat{T: rs.t, Count: int64(rs.sub), Min: x, Max: x, Mean: x}
}

// injectFailures samples XID events for every GPU of snap's window with
// its job and thermal context, computing the within-job temperature
// z-scores the reliability analysis needs, appending into dst and
// returning the extended slice. It reads the job of each node from
// snap.AllocIdx — the producer's live allocation table is windows ahead.
// The per-allocation moment scratch is reused across sweeps.
func (c *consumer) injectFailures(snap *Snapshot, dst []failures.Event) []failures.Event {
	s := c.s
	// Reset only the moments touched by the previous sweep.
	for _, aIdx := range c.jobTouched {
		c.jobMoments[aIdx].Reset()
		c.jobSeen[aIdx] = false
	}
	c.jobTouched = c.jobTouched[:0]
	nodeAlloc := snap.AllocIdx
	// Per-allocation GPU temperature moments for z-scores.
	for i, a := range nodeAlloc {
		if a < 0 {
			continue
		}
		if !c.jobSeen[a] {
			c.jobSeen[a] = true
			c.jobTouched = append(c.jobTouched, a)
		}
		m := &c.jobMoments[a]
		for g := 0; g < units.GPUsPerNode; g++ {
			if v := snap.GPUCoreTemp[i][g]; !math.IsNaN(v) {
				m.Add(v)
			}
		}
	}
	out := dst
	window := float64(s.cfg.FailureCheckSec)
	for i := 0; i < s.cfg.Nodes; i++ {
		aIdx := nodeAlloc[i]
		var ctx failures.Context
		var mean, sd float64
		if aIdx >= 0 {
			a := &s.allocs[aIdx]
			ctx.JobID = a.Job.ID
			ctx.Project = a.Job.Project
			ctx.Active = true
			m := &c.jobMoments[aIdx]
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
			out = s.injector.SampleInto(out, snap.T, window, topology.NodeID(i),
				topology.GPUSlot(g), ctx)
		}
	}
	return out
}

// telemetryLost reports whether node i's telemetry is missing at window t:
// either the node sits in the run's dark cabinet, or the per-window hash
// falls under the configured loss fraction.
func (s *Sim) telemetryLost(i int, t int64) bool {
	frac := s.cfg.TelemetryLossFrac
	if frac <= 0 {
		return false
	}
	if s.dark[i] {
		return true
	}
	z := lossMix(uint64(i)*0x9e3779b97f4a7c15 + uint64(t)*0x94d049bb133111eb + s.cfg.Seed)
	return float64(z>>11)/float64(1<<53) < frac
}

// lossMix is the dropout hash's mixer: the splitmix64 finalizer without its
// second multiply round. It is deliberately not rng.Mix64 — which
// node-windows go missing, and every dropout test pinned to that pattern,
// are these bits.
func lossMix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	return z ^ (z >> 31)
}

// darkCabinet returns the index of the fully-dark cabinet (the "bright
// green cabinet"): a fixed mid-floor cabinet derived from the seed. A floor
// of one cabinet keeps it: darkening it would leave no telemetry at all.
func (s *Sim) darkCabinet() int {
	if s.floor.Cabinets() < 2 {
		return -1
	}
	return int(s.cfg.Seed) % s.floor.Cabinets()
}

// blankNode erases node i's telemetry view for window t.
func (s *Sim) blankNode(snap *Snapshot, i int, t int64) {
	nan := math.NaN()
	snap.NodeStat[i] = tsagg.WindowStat{T: t, Count: 0, Min: nan, Max: nan, Mean: nan, Std: nan}
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
