package repro

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/failures"
	"repro/internal/render"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/tsagg"
	"repro/internal/units"
)

// Report is a rendered experiment: an identifier, the paper's reference
// observation, and the measured text body.
type Report struct {
	ID       string // e.g. figure-4
	Title    string
	PaperRef string // what the paper reports at full scale
	Body     string
}

// String renders the report with a header block.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	if r.PaperRef != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.PaperRef)
	}
	b.WriteString(r.Body)
	if !strings.HasSuffix(r.Body, "\n") {
		b.WriteByte('\n')
	}
	return b.String()
}

// Figure is one CSV file of the plot-ready data behind a report, so the
// paper's plots can be regenerated with any external plotting tool.
type Figure struct {
	Name    string
	Header  []string
	Columns [][]float64
}

// SourceReport is a report that prints from a run: its identity, written
// here once, and the one function that reads the run for its text body and
// its figure files alike. It reads a source.RunSource, so it renders the
// same text and files from a run in memory and from that run's archive.
type SourceReport struct {
	ID       string
	Title    string
	PaperRef string // what the paper reports at full scale
	render   func(source.RunSource) (body string, figs []Figure, err error)
	// figures marks a report that exports figure data: its failure on a
	// read, not on data the run lacks, fails the export.
	figures bool
}

// SourceReports lists the reports that print from a run, in the order
// cmd/repro prints them.
var SourceReports = []SourceReport{
	{ID: "table-3", Title: "Summit scheduling classes",
		PaperRef: "verbatim policy table",
		render:   table3},
	{ID: "dataset-c", Title: "Scheduling summary by class",
		PaperRef: "allocation-history view: class mix, waits, node-hours (Dataset C)",
		render:   scheduling},
	{ID: "figure-4", Title: "Power meter vs per-node sensor summation",
		PaperRef: "mean diff −128.83 kW across MSBs; summation ≈11% above meters; oscillation in phase",
		render:   figure4, figures: true},
	{ID: "figure-5", Title: "System power and energy trends",
		PaperRef: "avg power 5–6 MW (idle 2.5, peak 13); PUE 1.11 annual, 1.22 summer; chilled water ~20% of year",
		render:   figure5, figures: true},
	{ID: "figure-6", Title: "Energy vs max input power by scheduling class (KDE)",
		PaperRef: "classes separate cleanly on max power; small classes multi-modal; energy ranges overlap",
		render:   figure6, figures: true},
	{ID: "figure-7", Title: "Job feature CDFs (leadership classes)",
		PaperRef: "80% of Class 1 < 43 min; Class 2 < ~3 h; p80 max power 6.6 MW (C1) / 1.6 MW (C2)",
		render:   figure7, figures: true},
	{ID: "figure-8", Title: "Job power and energy by science domain",
		PaperRef: "peak power and energy vary widely across domains; a few flagship codes dominate",
		render:   figure8},
	{ID: "figure-9", Title: "Per-node CPU vs GPU power distributions",
		PaperRef: "density hugs the axes: jobs are CPU- or GPU-focused, rarely both at once",
		render:   figure9},
	{ID: "figure-10", Title: "Power consumption dynamics",
		PaperRef: "96.9% of jobs have no edges; ~0.005 Hz (200 s) swings dominate; steepest ±5.8/−5.9 MW per 10 s",
		render:   figure10, figures: true},
	{ID: "figure-11", Title: "Rising edge time-series snapshots",
		PaperRef: "power/PUE symmetric and inversely proportional; transitions complete within tens of seconds",
		render:   figure11},
	{ID: "figure-12", Title: "Thermal response of the cooling system",
		PaperRef: "GPU temps track power tightly; CPU temps comparatively flat; ~1 min cooling lag; de-staging slower than staging",
		render:   figure12, figures: true},
	{ID: "section-2-bands", Title: "GPU temperature band occupancy (operator dashboard)",
		PaperRef: "operators cross-check MTW set points against the 27,756-GPU temperature histogram; ≥60°C stays ~empty",
		render:   thermalBands},
	{ID: "section-5-overcooling", Title: "Overcooling quantification",
		PaperRef: "safety margins overcool the system; slow de-staging after falls is the tunable cost",
		render:   overcooling},
	{ID: "table-4", Title: "GPU failure composition",
		PaperRef: "251,859 errors in 2020; memory page faults dominate; one node holds 96.9% of NVLink errors",
		render:   table4},
	{ID: "figure-13", Title: "GPU failure co-occurrence (Bonferroni @ 0.05)",
		PaperRef: "strongest pair: microcontroller warnings ↔ driver error-handling exceptions; DBE ↔ retirements/cleanups",
		render:   figure13},
	{ID: "figure-14", Title: "GPU failures per node-hour by project",
		PaperRef: "failure frequency varies strongly with project/domain; distinct workloads stress GPUs differently",
		render:   figure14},
	{ID: "figure-15", Title: "Failure thermal extremity (z-scores)",
		PaperRef: "no left skew anywhere; DBE/off-bus/µC-warning/retirement-failure right-skewed (colder GPUs); DBE max 46.1 °C",
		render:   figure15, figures: true},
	{ID: "figure-16", Title: "GPU failures by physical slot",
		PaperRef: "no increase along the water path (reverse, if anything); GPU0 high (single-GPU jobs); GPU4 DBE anomaly",
		render:   figure16, figures: true},
	{ID: "figure-17", Title: "GPU power/temperature variability at peak load",
		PaperRef: "62 W power spread vs 15.8 °C temp spread; most GPUs < 60 °C; even spatial heat with slight locality",
		render:   figure17, figures: true},
	{ID: "section-9", Title: "Job power-profile fingerprinting (future work)",
		PaperRef: "proposed: fingerprint jobs, cluster into user portraits, predict queued-job power from portraits",
		render:   fingerprints},
}

// Rendered is one report of SourceReports rendered from a run: the report,
// its figure files, or the error that stopped it.
type Rendered struct {
	Report  Report // its identity, and its body unless Err
	Figures []Figure
	Err     error
	figures bool
}

// Render renders every report of SourceReports from src, in order, each
// from one reading of the run.
func Render(src source.RunSource) []Rendered {
	out := make([]Rendered, len(SourceReports))
	for i, r := range SourceReports {
		body, figs, err := r.render(src)
		out[i] = Rendered{
			Report:  Report{ID: r.ID, Title: r.Title, PaperRef: r.PaperRef, Body: body},
			Figures: figs,
			Err:     err,
			figures: r.figures,
		}
	}
	return out
}

// WriteFigureData writes the figure files of reports, in order, as CSV files
// in dir, and returns the files written. A report that failed on data its
// run lacks (source.ErrUnavailable) writes no files; one that exports
// figure data and failed otherwise fails the export, named as the paper
// names it ("figure 4").
func WriteFigureData(dir string, reports []Rendered) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	for _, r := range reports {
		if r.Err != nil {
			if r.figures && !errors.Is(r.Err, source.ErrUnavailable) {
				return written, fmt.Errorf("%s: %w", strings.Replace(r.Report.ID, "-", " ", 1), r.Err)
			}
			continue
		}
		for _, fig := range r.Figures {
			path := filepath.Join(dir, fig.Name)
			if err := writeCSV(path, fig); err != nil {
				return written, err
			}
			written = append(written, path)
		}
	}
	return written, nil
}

// writeCSV writes fig to path.
func writeCSV(path string, fig Figure) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render.CSV(f, fig.Header, fig.Columns...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// table3 renders the scheduling class policy table.
func table3(source.RunSource) (string, []Figure, error) {
	tab := render.NewTable("class", "node range", "max walltime (h)")
	for _, p := range units.ClassPolicies {
		tab.Row(p.Class.String(), fmt.Sprintf("%d–%d", p.MinNodes, p.MaxNodes), p.MaxWallHour)
	}
	return tab.String(), nil, nil
}

// scheduling renders the per-class queueing summary (Dataset C view).
func scheduling(src source.RunSource) (string, []Figure, error) {
	rows, err := core.SchedulingByClass(src)
	if err != nil {
		return "", nil, err
	}
	tab := render.NewTable("class", "jobs", "mean wait (min)", "p90 wait (min)",
		"mean runtime (min)", "node-hours")
	for _, r := range rows {
		tab.Row(r.Class.String(), r.Jobs, r.MeanWaitSec/60, r.P90WaitSec/60,
			r.MeanDuration/60, r.NodeHours)
	}
	return tab.String(), nil, nil
}

// figure4 renders the meter-validation experiment, and per-window
// meter-vs-summation differences.
func figure4(src source.RunSource) (string, []Figure, error) {
	rep, err := core.ValidationFromSource(src)
	if err != nil {
		return "", nil, err
	}
	tab := render.NewTable("msb", "windows", "mean diff (kW)", "std (kW)", "corr", "meter mean (kW)", "sum mean (kW)")
	for _, m := range rep.PerMSB {
		tab.Row(fmt.Sprintf("MSB %c", 'A'+m.MSB), m.N, m.MeanDiffW/units.WattsPerKW,
			m.StdDiffW/units.WattsPerKW, m.Corr, m.MeanMeterW/units.WattsPerKW, m.MeanSumW/units.WattsPerKW)
	}
	body := tab.String() + fmt.Sprintf(
		"mean diff (all MSBs): %.2f kW\nrelative error: %.1f%%\n",
		rep.MeanDiffAllW/units.WattsPerKW, rep.RelativeError*100)
	return body, []Figure{{"fig4_diff_samples.csv",
		[]string{"meter_minus_summation_w"}, [][]float64{rep.DiffSamples}}}, nil
}

// figure5 renders the power/energy/PUE trend experiment, and the cluster
// power / PUE time series.
func figure5(src source.RunSource) (string, []Figure, error) {
	rep, err := core.Figure5Trends(src)
	if err != nil {
		return "", nil, err
	}
	tab := render.NewTable("week", "power med (MW)", "power max (MW)", "energy (MWh)", "PUE med")
	for i, w := range rep.PowerWeekly {
		pueMed := math.NaN()
		if i < len(rep.PUEWeekly) {
			pueMed = rep.PUEWeekly[i].Box.Median
		}
		energy := math.NaN()
		if i < len(rep.EnergyWeekly) {
			energy = rep.EnergyWeekly[i] / units.JoulesPerMWh
		}
		tab.Row(w.Week, w.Box.Median/units.WattsPerMW, w.Max/units.WattsPerMW, energy, pueMed)
	}
	summer := "n/a" // no window ran on chilled water
	if !math.IsNaN(rep.SummerPUE) {
		summer = fmt.Sprintf("%.3f", rep.SummerPUE)
	}
	body := tab.String() + fmt.Sprintf(
		"mean PUE: %.3f   chilled-water PUE: %s   chilled-water fraction: %.1f%%\n",
		rep.MeanPUE, summer, rep.ChillerFrac*100)

	var series [4]*tsagg.Series
	for i, name := range []string{source.SeriesClusterPower, source.SeriesPUE, source.SeriesTowerTons, source.SeriesChillerTons} {
		if series[i], err = src.Series(name); err != nil {
			return "", nil, err
		}
	}
	times := make([]float64, series[0].Len())
	for i := range times {
		times[i] = float64(series[0].TimeAt(i))
	}
	return body, []Figure{{"fig5_cluster_series.csv",
		[]string{"timestamp", "power_w", "pue", "tower_tons", "chiller_tons"},
		[][]float64{times, series[0].Vals, series[1].Vals, series[2].Vals, series[3].Vals}}}, nil
}

// figure6 renders the per-class energy/power joint distribution, and the
// per-job (energy, max power) scatter with class labels.
func figure6(src source.RunSource) (string, []Figure, error) {
	recs, err := src.JobRecords()
	if err != nil {
		return "", nil, err
	}
	kdes := core.Figure6EnergyPower(recs, 40)
	tab := render.NewTable("class", "jobs", "modes", "log10E range", "log10P range")
	for _, k := range kdes {
		tab.Row(k.Class.String(), k.N, k.Modes,
			fmt.Sprintf("[%.1f, %.1f]", k.Grid.X0, k.Grid.X1),
			fmt.Sprintf("[%.1f, %.1f]", k.Grid.Y0, k.Grid.Y1))
	}
	var b strings.Builder
	b.WriteString(tab.String())
	// Density map of the most populous class, downsampled for text.
	var best *core.EnergyPowerKDE
	for i := range kdes {
		if best == nil || kdes[i].N > best.N {
			best = &kdes[i]
		}
	}
	if best != nil {
		small := core.Figure6EnergyPower(recs, 24)
		for i := range small {
			if small[i].Class == best.Class {
				fmt.Fprintf(&b, "density map (%s, log10 energy → x, log10 max power → y):\n", best.Class)
				if err := render.DensityGrid(&b, small[i].Grid.Z,
					small[i].Grid.X0, small[i].Grid.X1,
					small[i].Grid.Y0, small[i].Grid.Y1); err != nil {
					return "", nil, err
				}
			}
		}
	}
	var e6, p6, c6 []float64
	for _, r := range recs {
		if r.EnergyJ <= 0 || r.MaxPowerW <= 0 {
			continue
		}
		e6 = append(e6, math.Log10(r.EnergyJ))
		p6 = append(p6, math.Log10(r.MaxPowerW))
		c6 = append(c6, float64(r.Class))
	}
	return b.String(), []Figure{{"fig6_energy_power.csv",
		[]string{"log10_energy_j", "log10_max_power_w", "class"}, [][]float64{e6, p6, c6}}}, nil
}

// figure7 renders the job feature CDFs, and their curves per leadership
// class.
func figure7(src source.RunSource) (string, []Figure, error) {
	recs, err := src.JobRecords()
	if err != nil {
		return "", nil, err
	}
	cdfs := core.Figure7JobCDFs(recs)
	tab := render.NewTable("class", "jobs", "p80 nodes", "p80 wall (h)", "p80 mean (MW)", "p80 max (MW)", "p80 diff (MW)")
	var figs []Figure
	for _, c := range cdfs {
		tab.Row(c.Class.String(), c.N, c.P80Nodes, c.P80Wall, c.P80Mean, c.P80Max, c.P80Diff)
		xs, ys := c.MaxMW.Curve(100)
		wx, wy := c.WallHrs.Curve(100)
		n := max(len(xs), len(wx))
		figs = append(figs, Figure{fmt.Sprintf("fig7_cdf_%s.csv", c.Class),
			[]string{"max_power_mw", "cdf_max_power", "wall_hours", "cdf_wall"},
			[][]float64{padTo(xs, n), padTo(ys, n), padTo(wx, n), padTo(wy, n)}})
	}
	return tab.String(), figs, nil
}

// padTo NaN-pads xs to length n >= len(xs) so CSV columns align.
func padTo(xs []float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if i < len(xs) {
			out[i] = xs[i]
		} else {
			out[i] = math.NaN()
		}
	}
	return out
}

// figure8 renders the domain breakdown.
func figure8(src source.RunSource) (string, []Figure, error) {
	recs, err := src.JobRecords()
	if err != nil {
		return "", nil, err
	}
	rows := core.Figure8DomainBreakdown(recs)
	tab := render.NewTable("class", "domain", "jobs", "max power median (MW)", "energy median (GJ)")
	for _, r := range rows {
		tab.Row(r.Class.String(), r.Domain.String(), r.N,
			r.MaxPower.Median/units.WattsPerMW, r.Energy.Median/units.JoulesPerGJ)
	}
	return tab.String(), nil, nil
}

// figure9 renders the component power distribution.
func figure9(src source.RunSource) (string, []Figure, error) {
	recs, err := src.JobRecords()
	if err != nil {
		return "", nil, err
	}
	kdes := core.Figure9ComponentKDE(recs, 40)
	tab := render.NewTable("classes", "jobs", "view", "CPU range (W)", "GPU range (W)")
	for _, k := range kdes {
		var cls []string
		for _, c := range k.Classes {
			cls = append(cls, c.String())
		}
		name := strings.Join(cls, "+")
		tab.Row(name, k.N, "mean",
			fmt.Sprintf("[%.0f, %.0f]", k.Mean.X0, k.Mean.X1),
			fmt.Sprintf("[%.0f, %.0f]", k.Mean.Y0, k.Mean.Y1))
		tab.Row(name, k.N, "max",
			fmt.Sprintf("[%.0f, %.0f]", k.Max.X0, k.Max.X1),
			fmt.Sprintf("[%.0f, %.0f]", k.Max.Y0, k.Max.Y1))
	}
	return tab.String(), nil, nil
}

// figure10 renders the power dynamics overview, and the per-job dynamics
// scatter.
func figure10(src source.RunSource) (string, []Figure, error) {
	rep, err := core.Figure10Dynamics(src)
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "jobs with no edges: %.1f%%\n", rep.FracNoEdges*100)
	tab := render.NewTable("class", "jobs w/ edges", "median edges", "median duration (min)", "median freq (Hz)", "median amp (W)")
	for c := units.Class1; c <= units.Class5; c++ {
		e, ok := rep.EdgeCountCDF[c]
		if !ok {
			continue
		}
		durMed := math.NaN()
		if dc, ok := rep.DurationCDF[c]; ok {
			durMed = dc.Quantile(0.5)
		}
		freqMed, ampMed := math.NaN(), math.NaN()
		if fs := rep.Freqs[c]; len(fs) > 0 {
			freqMed = median(fs)
		}
		if as := rep.Amps[c]; len(as) > 0 {
			ampMed = median(as)
		}
		tab.Row(c.String(), e.N(), e.Quantile(0.5), durMed, freqMed, ampMed)
	}
	b.WriteString(tab.String())
	sw, err := core.SwingsFromSource(src)
	if err != nil {
		return "", nil, err
	}
	fmt.Fprintf(&b, "steepest 10s rise: %.2f MW, fall: %.2f MW\n", sw.MaxRiseW/units.WattsPerMW, sw.MaxFallW/units.WattsPerMW)
	var edges, freq, amp, class []float64
	for _, j := range rep.PerJob {
		if j.EdgeCount == 0 {
			continue
		}
		edges = append(edges, float64(j.EdgeCount))
		class = append(class, float64(j.Class))
		if j.HasFFT {
			freq = append(freq, j.FreqHz)
			amp = append(amp, j.AmpW)
		} else {
			freq = append(freq, math.NaN())
			amp = append(amp, math.NaN())
		}
	}
	return b.String(), []Figure{{"fig10_job_dynamics.csv",
		[]string{"edges", "dominant_freq_hz", "dominant_amp_w", "class"},
		[][]float64{edges, freq, amp, class}}}, nil
}

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}

// figure11 renders the edge snapshot superposition.
func figure11(src source.RunSource) (string, []Figure, error) {
	sets, err := core.Figure11EdgeSnapshots(src, snapshotBeforeSec, snapshotAfterSec)
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	if len(sets) == 0 {
		b.WriteString("no >=1 MW rising edges in this run\n")
	}
	for _, s := range sets {
		fmt.Fprintf(&b, "%d MW rising edges - %d snapshots\n", s.AmplitudeMW, s.Count)
		fmt.Fprintf(&b, "  power (MW): %s\n", render.Sparkline(scale(s.Power.Mean, 1e-6)))
		fmt.Fprintf(&b, "  PUE:        %s\n", render.Sparkline(s.PUE.Mean))
	}
	return b.String(), nil, nil
}

// The window Figures 11 and 12 superimpose around each edge.
const snapshotBeforeSec, snapshotAfterSec = 60, 240

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = v * k
	}
	return out
}

// figure12 renders the thermal response superposition, and the snapshot
// stacks behind Figures 11 and 12, one file per amplitude bin.
func figure12(src source.RunSource) (string, []Figure, error) {
	sets, err := core.Figure12ThermalResponse(src, snapshotBeforeSec, snapshotAfterSec)
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	if len(sets) == 0 {
		b.WriteString("no >=1 MW edges in this run\n")
	}
	var figs []Figure
	for _, s := range sets {
		dir := "rise"
		if !s.Rising {
			dir = "fall"
		}
		fmt.Fprintf(&b, "%d MW %s - %d snapshots\n", s.AmplitudeMW, dir, s.Count)
		fmt.Fprintf(&b, "  power:     %s\n", render.Sparkline(s.Power.Mean))
		fmt.Fprintf(&b, "  GPU Tmean: %s\n", render.Sparkline(s.GPUTempMean.Mean))
		fmt.Fprintf(&b, "  GPU Tmax:  %s\n", render.Sparkline(s.GPUTempMax.Mean))
		fmt.Fprintf(&b, "  CPU Tmean: %s\n", render.Sparkline(s.CPUTempMean.Mean))
		fmt.Fprintf(&b, "  MTW ret:   %s\n", render.Sparkline(s.ReturnC.Mean))
		fmt.Fprintf(&b, "  MTW sup:   %s\n", render.Sparkline(s.SupplyC.Mean))
		fmt.Fprintf(&b, "  tower ton: %s\n", render.Sparkline(s.TowerTons.Mean))
		fmt.Fprintf(&b, "  chill ton: %s\n", render.Sparkline(s.ChillerTons.Mean))
		if lag := core.CoolingLagSec(s); lag >= 0 {
			fmt.Fprintf(&b, "  cooling half-response lag: %d s\n", lag)
		}
		off := make([]float64, len(s.Power.OffsetSec))
		for i, o := range s.Power.OffsetSec {
			off[i] = float64(o)
		}
		figs = append(figs, Figure{fmt.Sprintf("fig12_%dmw_%s.csv", s.AmplitudeMW, dir),
			[]string{"offset_sec", "power_w", "power_ci", "pue",
				"gpu_temp_mean_c", "gpu_temp_max_c", "cpu_temp_mean_c",
				"mtw_supply_c", "mtw_return_c", "tower_tons", "chiller_tons"},
			[][]float64{off, s.Power.Mean, s.Power.CIHalf, s.PUE.Mean,
				s.GPUTempMean.Mean, s.GPUTempMax.Mean, s.CPUTempMean.Mean,
				s.SupplyC.Mean, s.ReturnC.Mean,
				s.TowerTons.Mean, s.ChillerTons.Mean}})
	}
	return b.String(), figs, nil
}

// table4 renders the failure composition.
func table4(src source.RunSource) (string, []Figure, error) {
	rows, err := core.Table4Composition(src)
	if err != nil {
		return "", nil, err
	}
	tab := render.NewTable("GPU error", "count", "max/node", "max/node %")
	total := 0
	for _, r := range rows {
		tab.Row(r.Type.String(), r.Count, r.MaxPerNode,
			fmt.Sprintf("%.1f%%", r.MaxPerNodeFrac*100))
		total += r.Count
	}
	return tab.String() + fmt.Sprintf("total errors: %d\n", total), nil, nil
}

// figure13 renders the failure co-occurrence matrix.
func figure13(src source.RunSource) (string, []Figure, error) {
	cells, err := core.Figure13Correlation(src, 0.05)
	if err != nil {
		return "", nil, err
	}
	if len(cells) == 0 {
		return "no Bonferroni-significant pairs in this run\n", nil, nil
	}
	tab := render.NewTable("type A", "type B", "r", "p")
	for _, c := range cells {
		tab.Row(c.A.String(), c.B.String(), c.R, c.P)
	}
	// Lower-triangular matrix view over the types that appear.
	present := map[failures.Type]bool{}
	for _, c := range cells {
		present[c.A] = true
		present[c.B] = true
	}
	var types []failures.Type
	for t := failures.Type(0); t < failures.NumTypes; t++ {
		if present[t] {
			types = append(types, t)
		}
	}
	labels := make([]string, len(types))
	for i, t := range types {
		labels[i] = shortTypeLabel(t)
	}
	var mb strings.Builder
	if err := render.CorrelationMatrix(&mb, labels, func(i, j int) (float64, bool) {
		for _, c := range cells {
			if (c.A == types[i] && c.B == types[j]) || (c.A == types[j] && c.B == types[i]) {
				return c.R, true
			}
		}
		return 0, false
	}); err != nil {
		return "", nil, err
	}
	return tab.String() + "\n" + mb.String(), nil, nil
}

// shortTypeLabel abbreviates an XID type name for the matrix view.
func shortTypeLabel(t failures.Type) string {
	name := t.String()
	if len(name) > 14 {
		return name[:14]
	}
	return name
}

// figure14 renders per-project failure rates.
func figure14(src source.RunSource) (string, []Figure, error) {
	var b strings.Builder
	for _, hw := range []bool{false, true} {
		rows, err := core.Figure14FailuresPerProject(src, hw, 15)
		if err != nil {
			return "", nil, err
		}
		label := "all failures"
		if hw {
			label = "hardware failures"
		}
		fmt.Fprintf(&b, "top projects by %s per node-hour:\n", label)
		tab := render.NewTable("project", "failures", "node-hours", "per node-hour")
		for _, p := range rows {
			tab.Row(p.Project, p.Total, p.NodeHours, p.PerNodeHour)
		}
		b.WriteString(tab.String())
	}
	return b.String(), nil, nil
}

// figure15 renders the thermal extremity analysis, on how many of the
// run's failures the thermal context was captured, and per-type z-score
// densities.
func figure15(src source.RunSource) (string, []Figure, error) {
	tes, err := core.Figure15ThermalExtremity(src, 0.8)
	if err != nil {
		return "", nil, err
	}
	evs, err := src.Failures()
	if err != nil {
		return "", nil, err
	}
	tab := render.NewTable("type", "n", "z mean", "z skew", "max temp (°C)")
	var figs []Figure
	for _, te := range tes {
		var zm float64
		for _, z := range te.ZScores {
			zm += z
		}
		if te.N > 0 {
			zm /= float64(te.N)
		}
		tab.Row(te.Type.String(), te.N, zm, te.ZSkew, te.MaxTempC)
		if xs, ys := stats.NewKDE1D(te.ZScores, 0).Curve(100); xs != nil {
			figs = append(figs, Figure{fmt.Sprintf("fig15_zdensity_%d.csv", int(te.Type)),
				[]string{"z_score", "density"}, [][]float64{xs, ys}})
		}
	}
	body := tab.String()
	if len(evs) > 0 {
		withTemp := 0
		for _, e := range evs {
			if e.HasTemp() {
				withTemp++
			}
		}
		body += fmt.Sprintf("thermal context present on %.1f%% of %d events\n",
			100*float64(withTemp)/float64(len(evs)), len(evs))
	}
	return body, figs, nil
}

// figure16 renders per-slot hardware failure counts.
func figure16(src source.RunSource) (string, []Figure, error) {
	rows, err := core.Figure16Placement(src, true)
	if err != nil {
		return "", nil, err
	}
	tab := render.NewTable("type", "GPU0", "GPU1", "GPU2", "GPU3", "GPU4", "GPU5")
	var slotType, slot, count []float64
	for _, r := range rows {
		tab.Row(r.Type.String(), r.Counts[0], r.Counts[1], r.Counts[2],
			r.Counts[3], r.Counts[4], r.Counts[5])
		for s, c := range r.Counts {
			slotType = append(slotType, float64(r.Type))
			slot = append(slot, float64(s))
			count = append(count, float64(c))
		}
	}
	return tab.String(), []Figure{{"fig16_placement.csv",
		[]string{"xid_type", "gpu_slot", "count"}, [][]float64{slotType, slot, count}}}, nil
}

// figure17 renders the variability analysis, and the per-instant GPU
// power/temperature distributions.
func figure17(src source.RunSource) (string, []Figure, error) {
	rep, err := core.Figure17Variability(src)
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "exemplar job %d: %d nodes, %d GPUs, %s\n",
		rep.JobID, rep.Nodes, rep.GPUs, time.Duration(rep.Duration)*time.Second)
	tab := render.NewTable("instant", "power med (W)", "power spread (W)", "temp med (°C)", "temp spread (°C)", "corr")
	var inst, pMed, pLo, pHi, tMed, tLo, tHi []float64
	for i, v := range rep.Instants {
		tab.Row(i+1, v.PowerBox.Median, v.PowerBox.NonOutlierSpread(),
			v.TempBox.Median, v.TempBox.NonOutlierSpread(), v.Corr)
		inst = append(inst, float64(i+1))
		pMed = append(pMed, v.PowerBox.Median)
		pLo = append(pLo, v.PowerBox.Q1)
		pHi = append(pHi, v.PowerBox.Q3)
		tMed = append(tMed, v.TempBox.Median)
		tLo = append(tLo, v.TempBox.Q1)
		tHi = append(tHi, v.TempBox.Q3)
	}
	b.WriteString(tab.String())
	fmt.Fprintf(&b, "peak-instant spreads: power %.1f W, temperature %.1f °C\n",
		rep.PowerSpreadW, rep.TempSpreadC)
	// Floor heatmap of the peak-power instant, whose spreads print above.
	if rep.Peak >= 0 {
		b.WriteString("mean GPU temp by cabinet (0-9 scale):\n")
		if err := render.Heatmap(&b, rep.Instants[rep.Peak].MeanByCabinet, rep.Cabinets, 8); err != nil {
			return "", nil, err
		}
	}
	return b.String(), []Figure{{"fig17_instants.csv",
		[]string{"instant", "power_median_w", "power_q1", "power_q3",
			"temp_median_c", "temp_q1", "temp_q3"},
		[][]float64{inst, pMed, pLo, pHi, tMed, tLo, tHi}}}, nil
}

// fingerprints renders the future-work fingerprinting analysis (paper §9):
// portrait clusters and the prediction evaluation.
func fingerprints(src source.RunSource) (string, []Figure, error) {
	fps, err := core.BuildFingerprints(src)
	if err != nil {
		return "", nil, err
	}
	if len(fps) < 3 {
		return fmt.Sprintf("only %d fingerprintable jobs in this run — rerun with a longer span or more nodes\n",
			len(fps)), nil, nil
	}
	k := 5
	if k > len(fps) {
		k = len(fps)
	}
	portraits, err := core.ClusterFingerprints(fps, k, 9)
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	tab := render.NewTable("portrait", "jobs", "mean P/node (W)", "max P/node (W)", "swing", "GPU share")
	for i, p := range portraits {
		c := p.Centroid
		tab.Row(i+1, len(p.Members), c[0]*2300, c[1]*2300, c[2], c[5])
	}
	b.WriteString(tab.String())
	pred, err := core.EvaluateFingerprintPrediction(fps)
	if err != nil {
		return "", nil, err
	}
	fmt.Fprintf(&b, "max-power prediction: portrait err %.1f%% vs baseline %.1f%% (%.0f%% improvement, %d jobs)\n",
		pred.MeanAbsErrFrac*100, pred.BaselineErrFrac*100, pred.Improvement*100, pred.Jobs)
	return b.String(), nil, nil
}

// thermalBands renders the facility's component-temperature histogram
// summary (paper §2): how many GPUs sit in each band, and whether the hot
// bands stay empty.
func thermalBands(src source.RunSource) (string, []Figure, error) {
	rows, err := core.ThermalBandsFromSource(src)
	if err != nil {
		return "", nil, err
	}
	tab := render.NewTable("band", "mean GPUs", "max GPUs", "mean share")
	for _, r := range rows {
		tab.Row(r.Label, r.MeanGPUs, r.MaxGPUs, fmt.Sprintf("%.1f%%", r.MeanShare*100))
	}
	return tab.String(), nil, nil
}

// overcooling renders the §5 overcooling quantification.
func overcooling(src source.RunSource) (string, []Figure, error) {
	rep, err := core.OvercoolingFromSource(src)
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "windows analyzed:        %d\n", rep.Windows)
	fmt.Fprintf(&b, "excess cooling:          %.1f ton-hours (%.1f%% of delivery)\n",
		rep.ExcessTonHours, rep.ExcessFrac*100)
	fmt.Fprintf(&b, "transient deficit:       %.1f ton-hours (absorbed by loop mass)\n",
		rep.DeficitTonHours)
	fmt.Fprintf(&b, "excess electric energy:  %.2f kWh\n", rep.ExcessEnergyKWh)
	fmt.Fprintf(&b, "share after falling edges (de-staging lag): %.1f%%\n", rep.PostFallShare*100)
	return b.String(), nil, nil
}
