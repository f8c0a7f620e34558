package workload

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/units"
)

// Job is one batch job request plus its (simulated) application behaviour.
// Scheduling fields (start time, node list) are assigned by the scheduler.
type Job struct {
	ID          int64
	User        string
	Project     string
	Domain      Domain
	Class       units.SchedulingClass
	Nodes       int
	SubmitTime  int64 // unix seconds
	WalltimeReq int64 // requested walltime, seconds
	Duration    int64 // actual runtime, seconds (<= WalltimeReq)
	Profile     Profile
}

// Archetype couples a name with a power profile; domains mix archetypes.
type Archetype struct {
	Name    string
	Profile Profile
}

// Archetypes returns the application archetype catalogue. The deep-swing
// GPU archetypes are what generate the paper's 1–7 MW edges; they are rare
// (assigned mostly to leadership-class jobs), matching the finding that
// 96.9 % of jobs show no edges at all.
func Archetypes() []Archetype {
	return []Archetype{
		{"gpu_steady", Profile{ // dense GPU solver, near-flat envelope
			GPUUtil: 0.92, CPUUtil: 0.30, PeriodSec: 240, Duty: 0.9,
			SwingFrac: 0.08, RampSec: 45, NoiseFrac: 0.03}},
		{"gpu_phasic", Profile{ // synchronous GPU bursts: deep 200 s swings
			GPUUtil: 0.97, CPUUtil: 0.35, PeriodSec: 200, Duty: 0.55,
			SwingFrac: 0.9, RampSec: 60, NoiseFrac: 0.04}},
		{"gpu_shortcycle", Profile{ // checkpoint-heavy, ~60 s spikes
			GPUUtil: 0.9, CPUUtil: 0.3, PeriodSec: 60, Duty: 0.5,
			SwingFrac: 0.55, RampSec: 30, NoiseFrac: 0.05}},
		{"cpu_heavy", Profile{ // legacy CPU simulation, GPUs near idle
			GPUUtil: 0.04, CPUUtil: 0.88, PeriodSec: 300, Duty: 0.85,
			SwingFrac: 0.15, RampSec: 20, NoiseFrac: 0.03}},
		{"mixed_moderate", Profile{ // balanced ports, moderate dynamics
			GPUUtil: 0.55, CPUUtil: 0.55, PeriodSec: 180, Duty: 0.7,
			SwingFrac: 0.3, RampSec: 30, NoiseFrac: 0.04}},
		{"ml_training", Profile{ // data-parallel training, fast shallow cycles
			GPUUtil: 0.95, CPUUtil: 0.25, PeriodSec: 90, Duty: 0.8,
			SwingFrac: 0.25, RampSec: 90, NoiseFrac: 0.06}},
		{"io_bound", Profile{ // analysis/IO jobs, low draw
			GPUUtil: 0.15, CPUUtil: 0.45, PeriodSec: 150, Duty: 0.6,
			SwingFrac: 0.35, RampSec: 10, NoiseFrac: 0.08}},
		{"debug_idleish", Profile{ // interactive/debug, barely loaded
			GPUUtil: 0.1, CPUUtil: 0.2, PeriodSec: 120, Duty: 0.5,
			SwingFrac: 0.4, RampSec: 5, NoiseFrac: 0.1}},
	}
}

// ArchetypeByName looks an archetype up in the catalogue by name.
func ArchetypeByName(name string) (Archetype, bool) {
	for _, a := range Archetypes() {
		if a.Name == name {
			return a, true
		}
	}
	return Archetype{}, false
}

// archetype mixing weights per domain, indexed as [domain][archetype].
// Rows follow the Domain constant order; columns follow Archetypes().
var domainArchetypeWeights = [NumDomains][8]float64{
	Astrophysics:      {4, 3, 1, 1, 2, 0.5, 0.5, 0.5},
	Biology:           {3, 1, 1, 2, 3, 1, 1, 0.5},
	Chemistry:         {5, 2, 1, 1, 2, 0.5, 0.5, 0.5},
	ClimateScience:    {1, 0.5, 0.5, 5, 3, 0.5, 1, 0.5},
	ComputerScience:   {2, 2, 2, 2, 2, 2, 2, 3},
	Engineering:       {2, 1, 1, 3, 3, 0.5, 1, 1},
	FusionEnergy:      {3, 3, 1, 2, 2, 0.5, 0.5, 0.5},
	Geoscience:        {1, 0.5, 0.5, 4, 2, 0.5, 1.5, 0.5},
	HighEnergyPhysics: {3, 2, 2, 2, 2, 1, 1, 0.5},
	Materials:         {6, 3, 1, 1, 1, 0.5, 0.5, 0.5},
	NuclearPhysics:    {2, 1, 1, 4, 2, 0.5, 0.5, 0.5},
	MachineLearning:   {1, 0.5, 1, 0.5, 1, 6, 1, 1},
}

// class mix: relative frequency of job classes in the 2020 population.
// Small jobs dominate counts; leadership jobs dominate peak power.
var classWeights = [5]float64{
	0.008, // Class 1
	0.022, // Class 2
	0.10,  // Class 3
	0.17,  // Class 4
	0.70,  // Class 5
}

// domain mix per class: leadership classes are dominated by a handful of
// flagship domains; small classes are broad.
func domainWeights(class units.SchedulingClass) []float64 {
	w := make([]float64, NumDomains)
	for d := Domain(0); d < NumDomains; d++ {
		w[d] = 1
	}
	switch class {
	case units.Class1:
		w[Materials] = 6
		w[Chemistry] = 4
		w[Astrophysics] = 4
		w[FusionEnergy] = 3
		w[HighEnergyPhysics] = 2
		w[MachineLearning] = 2
	case units.Class2:
		w[Materials] = 4
		w[ClimateScience] = 3
		w[Astrophysics] = 3
		w[Biology] = 2
		w[MachineLearning] = 2
	default:
		w[ComputerScience] = 2
		w[Biology] = 2
	}
	return w
}

// GenConfig parameterizes the job-stream generator.
type GenConfig struct {
	Seed      uint64
	StartTime int64 // unix seconds of the first possible submit
	SpanSec   int64 // submit-time horizon
	Jobs      int   // number of jobs to generate
	// MaxNodes caps node counts (the system size). Classes whose ranges
	// exceed it are clipped, which keeps the generator usable for scaled
	// systems in tests.
	MaxNodes int
	// Projects per domain (used to build project labels).
	ProjectsPerDomain int
}

// Validate checks the configuration.
func (c GenConfig) Validate() error {
	if c.SpanSec <= 0 {
		return fmt.Errorf("workload: non-positive span %d", c.SpanSec)
	}
	if c.Jobs <= 0 {
		return fmt.Errorf("workload: non-positive job count %d", c.Jobs)
	}
	if c.MaxNodes <= 0 {
		return fmt.Errorf("workload: non-positive max nodes %d", c.MaxNodes)
	}
	if c.ProjectsPerDomain <= 0 {
		return fmt.Errorf("workload: non-positive projects per domain %d", c.ProjectsPerDomain)
	}
	return nil
}

// Generate produces a deterministic job population sorted by submit time.
func Generate(cfg GenConfig) ([]Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	rs := root.Split("jobgen")
	arch := Archetypes()
	jobs := make([]Job, cfg.Jobs)
	// Uniform order statistics over the span give Poisson-like arrivals.
	submits := make([]int64, cfg.Jobs)
	for i := range submits {
		submits[i] = cfg.StartTime + int64(rs.Float64()*float64(cfg.SpanSec))
	}
	sortInt64(submits)
	for i := range jobs {
		class := units.SchedulingClass(rs.Categorical(classWeights[:]) + 1)
		nodes := sampleNodes(rs, class, cfg.MaxNodes)
		// Clipping the node count must not silently violate the class
		// policy at scaled sizes: reclassify after clipping.
		class = units.ClassForNodes(nodes)
		domain := Domain(rs.Categorical(domainWeights(class)))
		a := pickArchetype(rs, domain, class, arch)
		walltime, duration := sampleTimes(rs, class)
		proj := 1 + rs.IntN(cfg.ProjectsPerDomain)
		jobs[i] = Job{
			ID:          int64(i + 1),
			User:        fmt.Sprintf("user%03d", rs.IntN(400)),
			Project:     fmt.Sprintf("%s%02d", domainCode(domain), proj),
			Domain:      domain,
			Class:       class,
			Nodes:       nodes,
			SubmitTime:  submits[i],
			WalltimeReq: walltime,
			Duration:    duration,
			Profile:     jitterProfile(rs, a.Profile),
		}
	}
	return jobs, nil
}

func sortInt64(xs []int64) {
	// Insertion-free: simple in-place quicksort via sort.Slice would pull
	// in reflection; use a small custom sort for int64.
	quicksort64(xs, 0, len(xs)-1)
}

func quicksort64(xs []int64, lo, hi int) {
	for lo < hi {
		p := xs[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for xs[j] > p {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half to bound stack depth.
		if j-lo < hi-i {
			quicksort64(xs, lo, j)
			lo = i
		} else {
			quicksort64(xs, i, hi)
			hi = j
		}
	}
}

func domainCode(d Domain) string {
	codes := [...]string{"AST", "BIO", "CHM", "CLI", "CSC", "ENG",
		"FUS", "GEO", "HEP", "MAT", "NPH", "MLA"}
	if d < 0 || int(d) >= len(codes) {
		return "UNK"
	}
	return codes[d]
}

// sampleNodes draws a node count for the class, reproducing the paper's
// observations: Class 1 concentrates above 4,000 nodes with a spike at
// 4,096; Class 2 concentrates at 1,000/1,024.
func sampleNodes(rs *rng.Source, class units.SchedulingClass, maxNodes int) int {
	p := class.Policy()
	lo, hi := p.MinNodes, p.MaxNodes
	if hi > maxNodes {
		hi = maxNodes
	}
	if lo > hi {
		lo = hi
	}
	var n int
	switch class {
	case units.Class1:
		switch rs.Categorical([]float64{0.45, 0.15, 0.12, 0.28}) {
		case 0:
			n = 4096
		case 1:
			n = 4608
		case 2:
			n = 4000
		default:
			n = rs.IntRange(lo, hi)
		}
	case units.Class2:
		switch rs.Categorical([]float64{0.3, 0.25, 0.1, 0.35}) {
		case 0:
			n = 1024
		case 1:
			n = 1000
		case 2:
			n = 2048
		default:
			// Skewed toward the low end (80 % below 1,500 nodes).
			n = lo + int(math.Pow(rs.Float64(), 2.2)*float64(hi-lo))
		}
	default:
		// Small classes favour powers of two and tiny allocations.
		if rs.Bool(0.35) {
			choices := []int{}
			for v := 1; v <= hi; v *= 2 {
				if v >= lo {
					choices = append(choices, v)
				}
			}
			if len(choices) > 0 {
				n = choices[rs.IntN(len(choices))]
			} else {
				n = lo
			}
		} else {
			n = lo + int(math.Pow(rs.Float64(), 1.8)*float64(hi-lo))
		}
	}
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	return n
}

// sampleTimes draws requested walltime and actual duration (seconds).
// Calibration targets: 80 % of Class 1 jobs under ~43 min, 80 % of Class 2
// under ~3 h, Class 5 hard-capped at 2 h (the non-differentiable CDF point
// the paper notes).
func sampleTimes(rs *rng.Source, class units.SchedulingClass) (walltime, duration int64) {
	p := class.Policy()
	capSec := int64(p.MaxWallHour * units.SecondsPerHour)
	var medianSec float64
	switch class {
	case units.Class1:
		medianSec = 17 * 60
	case units.Class2:
		medianSec = 75 * 60
	case units.Class3:
		medianSec = 55 * 60
	case units.Class4:
		medianSec = 35 * 60
	default:
		medianSec = 25 * 60
	}
	d := rs.LogNormal(math.Log(medianSec), 0.85)
	if d < 60 {
		d = 60
	}
	if int64(d) > capSec {
		d = float64(capSec)
	}
	duration = int64(d)
	// Users request more than they use, rounded up to 30-minute steps.
	req := int64(d * rs.Uniform(1.1, 2.5))
	req = ((req + 1799) / 1800) * 1800
	if req > capSec {
		req = capSec
	}
	if req < duration {
		req = duration
	}
	return req, duration
}

// pickArchetype selects an archetype for the domain, then adjusts the pick
// by class: the deep-swing archetypes are boosted for leadership classes
// and suppressed for the small classes so that system-scale edges come from
// big allocations (paper §4.2).
func pickArchetype(rs *rng.Source, d Domain, class units.SchedulingClass, arch []Archetype) Archetype {
	w := make([]float64, len(arch))
	copy(w, domainArchetypeWeights[d][:])
	switch class {
	case units.Class1, units.Class2:
		w[1] *= 3 // gpu_phasic
		w[7] *= 0.05
		w[6] *= 0.3
	case units.Class3:
		w[1] *= 0.6
	default:
		w[1] *= 0.25
		w[2] *= 1.5
		w[7] *= 2
	}
	return arch[rs.Categorical(w)]
}

// jitterProfile individualizes a job's profile around its archetype.
func jitterProfile(rs *rng.Source, p Profile) Profile {
	p.GPUUtil = clamp01(rs.Jitter(p.GPUUtil, 0.08))
	p.CPUUtil = clamp01(rs.Jitter(p.CPUUtil, 0.08))
	p.PeriodSec = rs.Jitter(p.PeriodSec, 0.2)
	p.Duty = clamp(rs.Jitter(p.Duty, 0.1), 0.05, 1)
	p.SwingFrac = clamp01(rs.Jitter(p.SwingFrac, 0.15))
	p.RampSec = rs.Jitter(p.RampSec, 0.3)
	return p
}

func clamp01(v float64) float64 { return clamp(v, 0, 1) }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
