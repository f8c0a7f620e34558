// Package scenario defines the declarative scenario layer above the twin:
// a versioned JSON spec naming everything a run needs — topology/site
// preset, workload source (calibrated generator, replayed trace, or a mix),
// weather regime, failure regime, plant tuning and cap schedules, span and
// seed — plus a checked-in catalog of named scenarios pinned by golden
// regression tests. Every scenario compiles to a canonical FNV-1a content
// hash (trace content included) and a splitmix64-derived run identity, the
// same shape the what-if plane uses; the run itself is simulated on the
// spec's seed. So a scenario is a named, bit-reproducible artifact: the
// same spec produces byte-identical archives for any worker count, and the
// catalog names are stable inputs for studies, demos and benchmarks
// (ExaDigiT's versioned-scenario practice).
//
// The dependency order is scenario → whatif → sim: whatif studies
// reference scenarios by catalog name and callers resolve them here.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/facility"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/whatif"
)

// ErrScenario marks an invalid scenario spec; violations wrap it.
var ErrScenario = errors.New("scenario: invalid scenario")

// Version is the current spec schema version.
const Version = 1

// Weather regime names: seasonal placements of the run inside the weather
// model's year. "summer-heatwave" is the mid-July afternoon wet-bulb peak
// the historical what-if studies run under.
const (
	WeatherWinter         = "winter"
	WeatherSpring         = "spring"
	WeatherSummer         = "summer"
	WeatherSummerHeatwave = "summer-heatwave"
	WeatherAutumn         = "autumn"
)

// Workload source names.
const (
	SourceGenerator = "generator"
	SourceTrace     = "trace"
	SourceMixed     = "mixed"
)

// Failure regime names.
const (
	FailureNominal  = "nominal"
	FailureOff      = "off"
	FailureEpidemic = "epidemic"
)

// WorkloadSpec selects what drives the machine.
type WorkloadSpec struct {
	// Source is generator (default), trace, or mixed.
	Source string `json:"source,omitempty"`
	// Jobs overrides the generated job count (0 = node-time scaled).
	Jobs int `json:"jobs,omitempty"`
	// TracePath names the trace for trace/mixed sources: a CSV or JSON
	// file path, or the reserved trace.BuiltinSampleName.
	TracePath string `json:"trace_path,omitempty"`
}

// FailureSpec selects the failure-injection regime.
type FailureSpec struct {
	// Regime is nominal (default), off, or epidemic.
	Regime string `json:"regime,omitempty"`
	// Offenders sizes the epidemic regime's super-offender population
	// (0 = 6). Ignored outside the epidemic regime.
	Offenders int `json:"offenders,omitempty"`
	// RateScale overrides the scaled-run XID acceleration (0 = keep the
	// node-time-derived default).
	RateScale float64 `json:"rate_scale,omitempty"`
}

// CapStep is one step of a power-cap schedule, in run-relative seconds and
// megawatts (0 MW lifts the cap) — the human-writable form of sim.CapStep.
type CapStep struct {
	AfterSec int64   `json:"after_sec"`
	CapMW    float64 `json:"cap_mw"`
}

// Spec is the declarative scenario config. The zero value of every
// optional field means "the calibrated default"; Name and Description are
// cosmetic and excluded from the content hash.
type Spec struct {
	Version     int    `json:"version"`
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Topology/site preset.
	Nodes int    `json:"nodes"`
	Site  string `json:"site,omitempty"` // "" or summit, frontier

	// Span and identity.
	DurationSec int64  `json:"duration_sec"`
	Seed        uint64 `json:"seed,omitempty"` // 0 = the calibrated 2020 seed

	Weather  string       `json:"weather,omitempty"`
	Workload WorkloadSpec `json:"workload,omitempty"`
	Failures FailureSpec  `json:"failures,omitempty"`

	// Operating-point knobs.
	Tuning      facility.Tuning `json:"tuning,omitempty"`
	PowerCapMW  float64         `json:"power_cap_mw,omitempty"`
	CapSchedule []CapStep       `json:"cap_schedule,omitempty"`
	Placement   string          `json:"placement,omitempty"`
}

// weatherOffsetSec maps a weather regime onto the run's start-time offset
// inside the weather model's year (weather derives deterministically from
// seed and absolute time, so regimes need no extra simulator knobs).
func weatherOffsetSec(regime string) (int64, error) {
	switch regime {
	case "", WeatherWinter:
		return 0, nil
	case WeatherSpring:
		return 91 * 24 * units.SecondsPerHour, nil
	case WeatherSummer:
		return 182 * 24 * units.SecondsPerHour, nil
	case WeatherSummerHeatwave:
		return whatif.MidJulyOffsetSec, nil
	case WeatherAutumn:
		return 274 * 24 * units.SecondsPerHour, nil
	}
	return 0, fmt.Errorf("%w: unknown weather regime %q", ErrScenario, regime)
}

// Validate checks the spec's own surface; cross-field physics (tuning
// bounds, placement names, site presets) is checked again when the
// compiled sim.Config validates.
func (s Spec) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("%w: unsupported version %d (want %d)", ErrScenario, s.Version, Version)
	}
	if s.Name == "" {
		return fmt.Errorf("%w: missing name", ErrScenario)
	}
	if s.Nodes <= 0 {
		return fmt.Errorf("%w: non-positive nodes %d", ErrScenario, s.Nodes)
	}
	// An archive's readers refuse a run-meta that claims more.
	if s.Nodes > source.MaxManifestNodes {
		return fmt.Errorf("%w: nodes %d above the %d an archive may record", ErrScenario, s.Nodes, source.MaxManifestNodes)
	}
	// sim.Scaled would silently run a shorter span as the minimum.
	if s.DurationSec < sim.MinScaledSpanSec {
		return fmt.Errorf("%w: duration_sec %d below the %d s minimum", ErrScenario, s.DurationSec, sim.MinScaledSpanSec)
	}
	if _, err := weatherOffsetSec(s.Weather); err != nil {
		return err
	}
	switch s.Workload.Source {
	case "", SourceGenerator:
		if s.Workload.TracePath != "" {
			return fmt.Errorf("%w: trace_path set with generator source", ErrScenario)
		}
	case SourceTrace, SourceMixed:
		if s.Workload.TracePath == "" {
			return fmt.Errorf("%w: %s source needs trace_path", ErrScenario, s.Workload.Source)
		}
	default:
		return fmt.Errorf("%w: unknown workload source %q", ErrScenario, s.Workload.Source)
	}
	if s.Workload.Jobs < 0 {
		return fmt.Errorf("%w: negative job count %d", ErrScenario, s.Workload.Jobs)
	}
	if limit := maxJobs(s.Nodes, s.DurationSec); float64(s.Workload.Jobs) > limit {
		return fmt.Errorf("%w: workload.jobs %d above the %.0f a %d-node, %d s run may ask for",
			ErrScenario, s.Workload.Jobs, limit, s.Nodes, s.DurationSec)
	}
	switch s.Failures.Regime {
	case "", FailureNominal, FailureOff, FailureEpidemic:
	default:
		return fmt.Errorf("%w: unknown failure regime %q", ErrScenario, s.Failures.Regime)
	}
	if s.Failures.Offenders < 0 || s.Failures.Offenders > s.Nodes {
		return fmt.Errorf("%w: offenders %d outside [0, %d]", ErrScenario, s.Failures.Offenders, s.Nodes)
	}
	if !units.Finite(s.Failures.RateScale) || s.Failures.RateScale < 0 {
		return fmt.Errorf("%w: negative or non-finite failure rate scale %g", ErrScenario, s.Failures.RateScale)
	}
	if !units.Finite(s.PowerCapMW) || s.PowerCapMW < 0 {
		return fmt.Errorf("%w: negative or non-finite power cap %g MW", ErrScenario, s.PowerCapMW)
	}
	for i, st := range s.CapSchedule {
		if !units.Finite(st.CapMW) || st.CapMW < 0 {
			return fmt.Errorf("%w: negative or non-finite cap %g MW at schedule step %d", ErrScenario, st.CapMW, i)
		}
		if st.AfterSec < 0 {
			return fmt.Errorf("%w: negative after_sec %d at schedule step %d", ErrScenario, st.AfterSec, i)
		}
	}
	return nil
}

// maxJobs bounds workload.jobs by the run's node-time. The paper's year ran
// 840 k jobs on Summit's 4 626 nodes, about half a job per node-day; a spec
// may ask for a hundred times that density, and for 1 000 jobs on any span,
// but no more: a mixed workload is generated in full at compile time, before
// any run or archive check, and 1 M jobs peaked at 431 MB there.
func maxJobs(nodes int, durationSec int64) float64 {
	const paperYearJobs, density, floor = 840_000, 100, 1000
	perNodeSec := float64(density*paperYearJobs) / (units.SummitNodes * 365 * 24 * units.SecondsPerHour)
	return max(floor, math.Ceil(perNodeSec*float64(nodes)*float64(durationSec)))
}

// Resolved is a compiled scenario: the spec, its canonical identity, the
// fully built simulator configuration, and the trace-conversion stats when
// the workload replays a trace.
type Resolved struct {
	Spec Spec
	// Hash is the canonical FNV-1a content hash over every semantic field
	// (name and description excluded; trace content included).
	Hash uint64
	// Seed is the derived run identity: splitmix64 over the base seed and
	// the hash, the same shape as whatif.Seed. It names the run (the
	// manifest's run_seed, the report's seed); the run itself is simulated
	// on Config.Seed, the spec's seed or the calibrated 2020.
	Seed uint64
	// Config is the ready-to-run simulator configuration.
	Config sim.Config
	// TraceStats reports the trace → workload conversion (zero when the
	// workload is purely generated).
	TraceStats trace.Stats
}

// Identity returns the scenario's hex content hash.
func (r *Resolved) Identity() string { return fmt.Sprintf("%016x", r.Hash) }

// baseSeed is the calibrated default run seed (the sim.Scaled seed).
const baseSeed = 2020

// Compile validates the spec, resolves and hashes any trace, and builds
// the simulator configuration. Relative trace paths resolve against
// baseDir ("" = the working directory).
func Compile(s Spec, baseDir string) (*Resolved, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var traceRaw []byte
	if s.Workload.TracePath != "" {
		var err error
		if traceRaw, err = loadTrace(s.Workload.TracePath, baseDir); err != nil {
			return nil, err
		}
	}
	r := &Resolved{Spec: s, Hash: hashSpec(s, traceRaw)}
	seed := s.Seed
	if seed == 0 {
		seed = baseSeed
	}
	r.Seed = rng.DeriveSeed(seed, r.Hash)

	cfg := sim.Scaled(s.Nodes, s.DurationSec)
	cfg.Seed = seed
	cfg.Site = s.Site
	off, err := weatherOffsetSec(s.Weather)
	if err != nil {
		return nil, err
	}
	cfg.StartTime += off
	if s.Workload.Jobs > 0 {
		cfg.Jobs = s.Workload.Jobs
	}
	if err := buildWorkload(r, &cfg, traceRaw); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrScenario, err)
	}
	switch s.Failures.Regime {
	case FailureOff:
		cfg.FailureRateScale = sim.FailureRateOff
		cfg.FailureOffenders = -1
	case FailureEpidemic:
		n := s.Failures.Offenders
		if n == 0 {
			n = 6
		}
		if n > cfg.Nodes {
			n = cfg.Nodes
		}
		cfg.FailureOffenders = n
	}
	if s.Failures.RateScale > 0 {
		cfg.FailureRateScale = s.Failures.RateScale
	}
	cfg.Plant = s.Tuning
	if s.PowerCapMW > 0 {
		cfg.PowerCap = units.Watts(s.PowerCapMW * units.WattsPerMW)
	}
	for _, st := range s.CapSchedule {
		cfg.PowerCapSchedule = append(cfg.PowerCapSchedule, sim.CapStep{
			AfterSec: st.AfterSec, CapW: units.Watts(st.CapMW * units.WattsPerMW),
		})
	}
	cfg.Placement = s.Placement
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrScenario, err)
	}
	r.Config = cfg
	return r, nil
}

// loadTrace resolves a trace path to its raw bytes: the builtin name maps
// to the bundled sample; anything else reads from disk (relative to
// baseDir when set).
func loadTrace(path, baseDir string) ([]byte, error) {
	if path == trace.BuiltinSampleName {
		return trace.BuiltinSampleBytes(), nil
	}
	if baseDir != "" && !filepath.IsAbs(path) {
		path = filepath.Join(baseDir, path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: trace: %w", ErrScenario, err)
	}
	return raw, nil
}

// parseTrace decodes raw trace bytes, sniffing JSON (leading '[') vs CSV.
func parseTrace(raw []byte) ([]trace.Row, error) {
	trimmed := bytes.TrimLeft(raw, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		return trace.ParseJSON(bytes.NewReader(raw))
	}
	return trace.ParseCSV(bytes.NewReader(raw))
}

// mixedTraceIDOffset keeps replayed job identities disjoint from the
// generated population in mixed workloads.
const mixedTraceIDOffset = 1 << 20

// buildWorkload materializes the spec's workload source into the config:
// generator leaves the simulator's own generation path untouched, trace
// replaces it with the rebased replay, mixed merges both populations.
func buildWorkload(r *Resolved, cfg *sim.Config, traceRaw []byte) error {
	src := r.Spec.Workload.Source
	if src == "" || src == SourceGenerator {
		return nil
	}
	rows, err := parseTrace(traceRaw)
	if err != nil {
		return err
	}
	opt := trace.Options{
		MaxNodes:   cfg.Nodes,
		StartTime:  cfg.StartTime,
		HorizonSec: cfg.DurationSec,
		Seed:       cfg.Seed,
	}
	if src == SourceMixed {
		opt.IDOffset = mixedTraceIDOffset
	}
	jobs, stats, err := trace.Jobs(rows, opt)
	if err != nil {
		return err
	}
	r.TraceStats = stats
	if src == SourceMixed {
		gen, err := cfg.GenerateWorkload()
		if err != nil {
			return err
		}
		jobs = append(jobs, gen...)
		sort.SliceStable(jobs, func(a, b int) bool {
			if jobs[a].SubmitTime != jobs[b].SubmitTime {
				return jobs[a].SubmitTime < jobs[b].SubmitTime
			}
			return jobs[a].ID < jobs[b].ID
		})
	}
	cfg.Workload = jobs
	return nil
}

// hashSpec computes the canonical FNV-1a content hash: every semantic
// field in fixed order, floats in shortest-roundtrip form, trace content
// (not path) hashed in, name and description excluded — two specs that
// run the same physics share an identity regardless of labeling.
func hashSpec(s Spec, traceRaw []byte) uint64 {
	h := rng.NewContentHash()
	h.Int("version", int64(s.Version))
	h.Int("nodes", int64(s.Nodes))
	h.Str("site", s.Site)
	h.Int("duration_sec", s.DurationSec)
	h.Str("seed", strconv.FormatUint(s.Seed, 10))
	h.Str("weather", s.Weather)
	h.Str("workload.source", s.Workload.Source)
	h.Int("workload.jobs", int64(s.Workload.Jobs))
	if s.Workload.TracePath != "" {
		h.Str("workload.trace", strconv.FormatUint(rng.HashString(string(traceRaw)), 16))
	}
	h.Str("failures.regime", s.Failures.Regime)
	h.Int("failures.offenders", int64(s.Failures.Offenders))
	h.Float("failures.rate_scale", s.Failures.RateScale)
	h.Float("tuning.supply_setpoint_c", s.Tuning.SupplySetpointC)
	h.Float("tuning.tower_kw_per_ton", s.Tuning.TowerKWPerTon)
	h.Float("tuning.chiller_kw_per_ton", s.Tuning.ChillerKWPerTon)
	h.Float("tuning.tower_unit_tons", s.Tuning.TowerUnitTons)
	h.Float("tuning.chiller_unit_tons", s.Tuning.ChillerUnitTons)
	h.Float("tuning.stage_up_frac", s.Tuning.StageUpFrac)
	h.Float("tuning.stage_down_frac", s.Tuning.StageDownFrac)
	h.Float("power_cap_mw", s.PowerCapMW)
	for _, st := range s.CapSchedule {
		h.Float("cap@"+strconv.FormatInt(st.AfterSec, 10), st.CapMW)
	}
	h.Str("placement", s.Placement)
	return h.Sum64()
}

// Load reads a spec from a JSON file, rejecting unknown fields so typos in
// hand-written scenarios fail loudly.
func Load(path string) (Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("%w: %s: %v", ErrScenario, path, err)
	}
	return s, nil
}

// Lookup finds a spec given a catalog name or a spec-file path: names
// containing a path separator or a .json suffix load from disk and return
// the file's directory, against which trace paths inside resolve; anything
// else looks up the catalog.
func Lookup(nameOrPath string) (Spec, string, error) {
	if filepath.Ext(nameOrPath) == ".json" || filepath.Dir(nameOrPath) != "." {
		spec, err := Load(nameOrPath)
		return spec, filepath.Dir(nameOrPath), err
	}
	spec, err := ByName(nameOrPath)
	return spec, "", err
}

// Resolve compiles the spec Lookup finds.
func Resolve(nameOrPath string) (*Resolved, error) {
	spec, dir, err := Lookup(nameOrPath)
	if err != nil {
		return nil, err
	}
	return Compile(spec, dir)
}
