package whatif

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Axis is one dimension of the search space: the knob and the candidate
// values the strategies may assign to it. Values must be ascending.
type Axis struct {
	Param  Param     `json:"param"`
	Values []float64 `json:"values"`
}

// validateAxes checks the axes are well-formed.
func validateAxes(axes []Axis) error {
	if len(axes) == 0 {
		return fmt.Errorf("%w: no axes", ErrScenario)
	}
	seen := map[Param]bool{}
	for _, ax := range axes {
		if len(ax.Values) == 0 {
			return fmt.Errorf("%w: axis %q has no values", ErrScenario, ax.Param)
		}
		if seen[ax.Param] {
			return fmt.Errorf("%w: duplicate axis %q", ErrScenario, ax.Param)
		}
		seen[ax.Param] = true
		for i := 1; i < len(ax.Values); i++ {
			if ax.Values[i] <= ax.Values[i-1] {
				return fmt.Errorf("%w: axis %q values not ascending at %d", ErrScenario, ax.Param, i)
			}
		}
	}
	return nil
}

// Grid expands the axes into their full cartesian product, first axis
// slowest, in deterministic order.
func Grid(axes []Axis) []Scenario {
	total := 1
	for _, ax := range axes {
		total *= len(ax.Values)
	}
	out := make([]Scenario, 0, total)
	idx := make([]int, len(axes))
	for {
		p := make(map[Param]float64, len(axes))
		for a, ax := range axes {
			p[ax.Param] = ax.Values[idx[a]]
		}
		out = append(out, Scenario{Params: p})
		a := len(axes) - 1
		for a >= 0 {
			idx[a]++
			if idx[a] < len(axes[a].Values) {
				break
			}
			idx[a] = 0
			a--
		}
		if a < 0 {
			return out
		}
	}
}

// Sensitivity is the score range a single knob commands with every other
// knob pinned at the best point — the per-knob lever arm of the sweep.
type Sensitivity struct {
	Param Param `json:"param"`
	// BestValue is the knob's value at the best point, nil when the best
	// point sets no value for it (the nominal arm sets none).
	BestValue *float64 `json:"best_value,omitempty"`
	// MinScore/MaxScore bound the score along the knob's axis line
	// through the best point (only over evaluated points).
	MinScore float64 `json:"min_score"`
	MaxScore float64 `json:"max_score"`
	// Swing = MaxScore - MinScore.
	Swing float64 `json:"swing"`
}

// SweepResult is one strategy's complete output: the machine-readable
// sweep log (Evaluated), the chosen operating point, the baseline, the
// energy/violation Pareto frontier, and per-knob sensitivities.
type SweepResult struct {
	Strategy string `json:"strategy"`
	BaseSeed uint64 `json:"base_seed"`
	// Evaluated lists every distinct evaluated scenario in evaluation
	// order — the sweep log. Bit-identical for any worker count.
	Evaluated []Report `json:"evaluated"`
	// Baseline is the nominal (no-knob) operating point's report.
	Baseline Report `json:"baseline"`
	// Best is the lowest-score evaluated report (ties: first evaluated).
	Best Report `json:"best"`
	// Pareto is the non-dominated frontier over (TotalEnergyMWh,
	// ViolationSec), ascending by energy.
	Pareto []Report `json:"pareto"`
	// Sensitivity ranks the knobs by their score swing at the best point.
	Sensitivity []Sensitivity `json:"sensitivity,omitempty"`
}

// WriteJSON emits the sweep log as indented JSON. Map keys serialize in
// sorted order, so the bytes are deterministic.
func (r *SweepResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Summary renders the human-readable digest: best point, baseline
// comparison, knob sensitivities and the frontier.
func (r *SweepResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy %s: %d evaluations\n", r.Strategy, len(r.Evaluated))
	fmt.Fprintf(&b, "baseline  %-28s score %10.3f  energy %8.3f MWh  PUE %.4f  violations %6.0fs\n",
		r.Baseline.Label, r.Baseline.Score, r.Baseline.TotalEnergyMWh, r.Baseline.MeanPUE, r.Baseline.ViolationSec)
	fmt.Fprintf(&b, "best      %-28s score %10.3f  energy %8.3f MWh  PUE %.4f  violations %6.0fs\n",
		r.Best.Label, r.Best.Score, r.Best.TotalEnergyMWh, r.Best.MeanPUE, r.Best.ViolationSec)
	if r.Baseline.Score > 0 {
		fmt.Fprintf(&b, "improvement over baseline: %+.2f%%\n",
			100*(r.Baseline.Score-r.Best.Score)/r.Baseline.Score)
	}
	if len(r.Sensitivity) > 0 {
		b.WriteString("knob sensitivity (score swing along each axis through the best point):\n")
		for _, s := range r.Sensitivity {
			best := "nominal"
			if s.BestValue != nil {
				best = strconv.FormatFloat(*s.BestValue, 'g', 4, 64)
			}
			fmt.Fprintf(&b, "  %-22s best %-10s swing %10.3f\n", s.Param, best, s.Swing)
		}
	}
	fmt.Fprintf(&b, "pareto frontier (energy MWh, violation s): %d points\n", len(r.Pareto))
	for _, p := range r.Pareto {
		fmt.Fprintf(&b, "  %8.3f MWh  %6.0fs  %s\n", p.TotalEnergyMWh, p.ViolationSec, p.Label)
	}
	return b.String()
}

// ParetoFront filters the non-dominated reports over (TotalEnergyMWh,
// ViolationSec), minimizing both, ascending by energy.
func ParetoFront(reports []Report) []Report {
	idx := make([]int, len(reports))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ra, rb := &reports[idx[a]], &reports[idx[b]]
		if ra.TotalEnergyMWh != rb.TotalEnergyMWh {
			return ra.TotalEnergyMWh < rb.TotalEnergyMWh
		}
		return ra.ViolationSec < rb.ViolationSec
	})
	var out []Report
	bestViol := math.Inf(1)
	for _, i := range idx {
		r := reports[i]
		if r.ViolationSec < bestViol {
			out = append(out, r)
			bestViol = r.ViolationSec
		}
	}
	return out
}

// bestOf returns the index of the lowest-score report (first wins ties).
func bestOf(reports []Report) int {
	best := 0
	for i := 1; i < len(reports); i++ {
		if reports[i].Score < reports[best].Score {
			best = i
		}
	}
	return best
}

// sensitivities computes the per-knob score swing along each axis line
// through the best point, using only already-evaluated reports.
func sensitivities(axes []Axis, evaluated []Report, best Report) []Sensitivity {
	out := make([]Sensitivity, 0, len(axes))
	for _, ax := range axes {
		s := Sensitivity{
			Param:    ax.Param,
			MinScore: math.Inf(1),
			MaxScore: math.Inf(-1),
		}
		if v, ok := best.Scenario.Params[ax.Param]; ok {
			s.BestValue = &v
		}
		for i := range evaluated {
			if !onAxisLine(&evaluated[i].Scenario, &best.Scenario, ax.Param) {
				continue
			}
			if v := evaluated[i].Score; v < s.MinScore {
				s.MinScore = v
			}
			if v := evaluated[i].Score; v > s.MaxScore {
				s.MaxScore = v
			}
		}
		if s.MaxScore >= s.MinScore {
			s.Swing = s.MaxScore - s.MinScore
		}
		out = append(out, s)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Swing > out[b].Swing })
	return out
}

// onAxisLine reports whether scenario s differs from ref on at most the
// given parameter (identical everywhere else), by comparing canonical
// signatures with that parameter masked out.
func onAxisLine(s, ref *Scenario, p Param) bool {
	return signatureWithout(s, p) == signatureWithout(ref, p)
}

// signatureWithout renders the scenario's canonical form with one
// parameter removed — exact float identity via the formatted value.
func signatureWithout(s *Scenario, p Param) string {
	var b strings.Builder
	for _, pv := range s.sorted() {
		if pv.Param == p {
			continue
		}
		b.WriteString(string(pv.Param))
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(pv.Value, 'g', -1, 64))
		b.WriteByte('\n')
	}
	return b.String()
}

// evalCache runs batches while memoizing per-scenario reports by
// canonical hash, so iterative strategies never pay for a revisit.
type evalCache struct {
	base   sim.Config
	opt    Options
	byHash map[uint64]Report
	sweep  []Report // every distinct evaluation, in order
}

func newEvalCache(base sim.Config, opt Options) *evalCache {
	return &evalCache{base: base, opt: opt, byHash: map[uint64]Report{}}
}

// run evaluates the scenarios (skipping cached ones) and returns the
// reports in argument order.
func (c *evalCache) run(scns []Scenario) ([]Report, error) {
	var misses []Scenario
	for _, s := range scns {
		h := s.Hash()
		if _, ok := c.byHash[h]; !ok {
			c.byHash[h] = Report{} // reserve to dedup within this call
			misses = append(misses, s)
		}
	}
	if len(misses) > 0 {
		reports, err := Evaluate(c.base, misses, c.opt)
		if err != nil {
			return nil, err
		}
		for i, s := range misses {
			c.byHash[s.Hash()] = reports[i]
			c.sweep = append(c.sweep, reports[i])
		}
	}
	out := make([]Report, len(scns))
	for i, s := range scns {
		out[i] = c.byHash[s.Hash()]
	}
	return out, nil
}

// finish assembles the common SweepResult fields from the cache state.
func (c *evalCache) finish(strategy string, axes []Axis) *SweepResult {
	r := &SweepResult{
		Strategy:  strategy,
		BaseSeed:  c.base.Seed,
		Evaluated: c.sweep,
	}
	r.Baseline = c.byHash[Scenario{}.Hash()]
	r.Best = c.sweep[bestOf(c.sweep)]
	r.Pareto = ParetoFront(c.sweep)
	if axes != nil {
		r.Sensitivity = sensitivities(axes, c.sweep, r.Best)
	}
	return r
}

// RunGrid exhaustively evaluates the axes' cartesian product plus the
// nominal baseline.
func RunGrid(base sim.Config, axes []Axis, opt Options) (*SweepResult, error) {
	if err := validateAxes(axes); err != nil {
		return nil, err
	}
	cache := newEvalCache(base, opt)
	if _, err := cache.run(append([]Scenario{{Name: "nominal"}}, Grid(axes)...)); err != nil {
		return nil, err
	}
	return cache.finish("grid", axes), nil
}

// cdRounds bounds coordinate descent's rounds of line minimizations.
const cdRounds = 2

// RunCoordinateDescent starts from the nominal point and sweeps one axis
// at a time, pinning each knob at its line minimum, for cdRounds rounds
// (or until a round changes nothing). Revisited points hit the evaluation
// cache.
func RunCoordinateDescent(base sim.Config, axes []Axis, opt Options) (*SweepResult, error) {
	if err := validateAxes(axes); err != nil {
		return nil, err
	}
	cache := newEvalCache(base, opt)
	if _, err := cache.run([]Scenario{{Name: "nominal"}}); err != nil {
		return nil, err
	}
	// current holds each knob's chosen value index into its axis.
	current := map[Param]int{}
	valueOf := map[Param][]float64{}
	for _, ax := range axes {
		valueOf[ax.Param] = ax.Values
	}
	for round := 0; round < cdRounds; round++ {
		changed := false
		for _, ax := range axes {
			line := make([]Scenario, 0, len(ax.Values))
			for _, v := range ax.Values {
				p := make(map[Param]float64, len(current)+1)
				for _, ap := range axes {
					if ci, ok := current[ap.Param]; ok {
						p[ap.Param] = valueOf[ap.Param][ci]
					}
				}
				p[ax.Param] = v
				line = append(line, Scenario{Params: p})
			}
			reports, err := cache.run(line)
			if err != nil {
				return nil, err
			}
			best := bestOf(reports)
			if cur, ok := current[ax.Param]; !ok || cur != best {
				current[ax.Param] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return cache.finish("cd", axes), nil
}

// The cross-entropy search's sizes.
const (
	cemPopulation = 16 // samples per iteration
	cemElite      = 4  // elites refitting the distribution
	cemIterations = 4  // refinement rounds
)

// RunCEM searches the axes with a small cross-entropy method: sample
// knob vectors from per-axis truncated normals quantized to the axis
// values, score them, refit mean/std on the elite fraction, and repeat.
// All randomness derives from the base seed, so the sweep is exactly
// reproducible.
func RunCEM(base sim.Config, axes []Axis, opt Options) (*SweepResult, error) {
	if err := validateAxes(axes); err != nil {
		return nil, err
	}
	cache := newEvalCache(base, opt)
	if _, err := cache.run([]Scenario{{Name: "nominal"}}); err != nil {
		return nil, err
	}
	src := rng.New(base.Seed).Split("whatif-cem")
	// Distribution state per axis: mean and std over the value range.
	mean := make([]float64, len(axes))
	std := make([]float64, len(axes))
	for a, ax := range axes {
		lo, hi := ax.Values[0], ax.Values[len(ax.Values)-1]
		mean[a] = (lo + hi) / 2
		std[a] = (hi - lo) / 2
		if std[a] <= 0 {
			std[a] = 1
		}
	}
	for iter := 0; iter < cemIterations; iter++ {
		batch := make([]Scenario, cemPopulation)
		for s := range batch {
			p := make(map[Param]float64, len(axes))
			for a, ax := range axes {
				lo, hi := ax.Values[0], ax.Values[len(ax.Values)-1]
				v := src.TruncNormal(mean[a], std[a], lo, hi)
				p[ax.Param] = snap(ax.Values, v)
			}
			batch[s] = Scenario{Params: p}
		}
		reports, err := cache.run(batch)
		if err != nil {
			return nil, err
		}
		order := make([]int, len(reports))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return reports[order[a]].Score < reports[order[b]].Score
		})
		// Refit on the elites, with a floor keeping exploration alive.
		for a, ax := range axes {
			var m, m2 float64
			for e := 0; e < cemElite; e++ {
				v := reports[order[e]].Scenario.Params[ax.Param]
				m += v
				m2 += v * v
			}
			n := float64(cemElite)
			m /= n
			variance := m2/n - m*m
			if variance < 0 {
				variance = 0
			}
			mean[a] = m
			std[a] = math.Sqrt(variance)
			if floor := axisStepFloor(ax.Values); std[a] < floor {
				std[a] = floor
			}
		}
	}
	return cache.finish("cem", axes), nil
}

// axisStepFloor returns half the smallest gap between axis values — the
// exploration floor that keeps CEM from collapsing onto one quantized
// point.
func axisStepFloor(values []float64) float64 {
	if len(values) < 2 {
		return 1e-6
	}
	minGap := math.Inf(1)
	for i := 1; i < len(values); i++ {
		if g := values[i] - values[i-1]; g < minGap {
			minGap = g
		}
	}
	return minGap / 2
}

// snap quantizes v to the nearest axis value (ties toward the lower).
func snap(values []float64, v float64) float64 {
	best := values[0]
	bestD := math.Abs(v - best)
	for _, c := range values[1:] {
		if d := math.Abs(v - c); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}
