// Command analyze runs ad-hoc analyses over an archived run produced by
// summitsim. Every subcommand consumes the archive through the
// source.RunSource layer — the same entry points the in-memory pipeline and
// queryd use — so results match the live data plane exactly. validation,
// failures, bands and overcooling print the reports cmd/repro prints for
// the same run: figure-4; table-4, figure-13 and figure-15;
// section-2-bands; section-5-overcooling.
//
// -data may also name a fleet root (as written by summitsim -clusters);
// -cluster selects the member to analyze.
//
// An archive without its run-meta, the commit record a run writes last, is
// refused (exit 1, naming the directory), never analyzed on a guessed size.
//
// -cmd fsck is the one subcommand that opens no source: it reads every
// partition file of the archive (of every member, for a fleet root without
// -cluster) in full and checks the run-meta, and exits 1 if any is damaged
// — opening an archive reads partition headers only, so this is the check
// of the bodies.
//
// Usage:
//
//	analyze -data /path/to/archive [-cluster NAME]
//	        [-cmd summary|edges|fft|failures|jobs|bands|earlywarning|validation|overcooling|fsck]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/render"
	"repro/internal/source"
	"repro/internal/store"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("analyze: ")
	dataDir := flag.String("data", "", "archive or fleet directory (required)")
	cmd := flag.String("cmd", "summary",
		"analysis: summary|edges|fft|failures|jobs|bands|earlywarning|validation|overcooling|fsck")
	cluster := flag.String("cluster", "", "fleet member to analyze (when -data is a fleet root)")
	flag.Parse()
	if *dataDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, *dataDir, *cluster, *cmd); err != nil {
		log.Fatal(err)
	}
}

// run answers -cmd over the archive -data and -cluster name, writing to w.
func run(w io.Writer, dataDir, cluster, cmd string) error {
	if cmd == "fsck" {
		return fsck(w, dataDir, cluster)
	}
	dir, err := resolveDir(dataDir, cluster)
	if err != nil {
		return err
	}
	src, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
	if err != nil {
		return err
	}
	return dispatch(w, cmd, src)
}

// resolveDir maps -data/-cluster to the archive directory to open. A fleet
// root demands -cluster; a plain archive rejects it.
func resolveDir(dataDir, cluster string) (string, error) {
	manifest, err := source.DiscoverFleet(dataDir)
	if errors.Is(err, source.ErrNotFleet) {
		if cluster != "" {
			return "", fmt.Errorf("-cluster %q given but %s is not a fleet root", cluster, dataDir)
		}
		return dataDir, nil
	}
	if err != nil {
		return "", err
	}
	if cluster == "" {
		return "", fmt.Errorf("%s is a fleet root; pick a member with -cluster (one of: %s)",
			dataDir, strings.Join(manifest.Names(), ", "))
	}
	entry, ok := manifest.Find(cluster)
	if !ok {
		return "", fmt.Errorf("no cluster %q in fleet (have: %s)",
			cluster, strings.Join(manifest.Names(), ", "))
	}
	return entry.Path(dataDir), nil
}

// fsck verifies every partition under dataDir — one archive, or each member
// of a fleet unless cluster picks one — with store's VerifyDay, the companion
// a day's file carries after its partition included, and each archive's
// commit record: a run-meta with all its columns, and no partition at a day
// outside its span. One line per dataset, one per problem; any problem is an
// error.
func fsck(w io.Writer, dataDir, cluster string) error {
	var dirs []string
	if manifest, err := source.DiscoverFleet(dataDir); err == nil && cluster == "" {
		for _, e := range manifest.Clusters {
			dirs = append(dirs, e.Path(dataDir))
		}
	} else {
		dir, err := resolveDir(dataDir, cluster)
		if err != nil {
			return err
		}
		dirs = []string{dir}
	}
	problems := 0
	for _, dir := range dirs {
		names, err := store.Datasets(dir)
		if err != nil {
			return err
		}
		for _, name := range names {
			ds := &store.Dataset{Dir: dir, Name: name}
			days, err := ds.Days()
			if err != nil {
				return err
			}
			members, strided, companions := 0, 0, 0
			var found []error
			for _, day := range days {
				c := ds.VerifyDay(day)
				if c.Members {
					members++
				}
				if c.Strided {
					strided++
				}
				if c.Companion {
					companions++
				}
				found = append(found, c.Problems...)
			}
			fmt.Fprintf(w, "%s: %s: %d partitions, %d framed as members, %d as one stream, %d with strided columns, %d with a companion, %d problems\n",
				dir, name, len(days), members, len(days)-members, strided, companions, len(found))
			for _, err := range found {
				fmt.Fprintf(w, "%s: %v\n", dir, err)
			}
			problems += len(found)
		}
		if err := checkRecord(dir); err != nil {
			fmt.Fprintf(w, "%s: %v\n", dir, err)
			problems++
		}
	}
	if problems > 0 {
		return fmt.Errorf("fsck: %d problems", problems)
	}
	return nil
}

// checkRecord reports what is wrong with dir's commit record: a missing or
// incomplete run-meta, or partitions at a day index outside its span, which
// no run of that span writes (the rule source.BeginArchive refuses by).
func checkRecord(dir string) error {
	m, err := source.ReadManifest(dir)
	if err != nil {
		return err
	}
	stale, err := source.StaleFiles(dir, m.SpanSec())
	if err == nil && len(stale) > 0 {
		err = fmt.Errorf("run-meta: partitions outside the run's %d s span: %s", m.SpanSec(), strings.Join(stale, ", "))
	}
	return err
}

// dispatch routes a subcommand to its analysis, writing to w.
func dispatch(w io.Writer, cmd string, src source.RunSource) error {
	switch cmd {
	case "summary":
		return summary(w, src)
	case "edges":
		return edges(w, src)
	case "fft":
		return fft(w, src)
	case "failures":
		return reports(w, src, repro.ReportTable4, repro.ReportFigure13, repro.ReportFigure15)
	case "jobs":
		return jobAnalysis(w, src)
	case "bands":
		return reports(w, src, repro.ReportThermalBands)
	case "earlywarning":
		return earlyWarningAnalysis(w, src)
	case "validation":
		return reports(w, src, repro.ReportFigure4)
	case "overcooling":
		return reports(w, src, repro.ReportOvercooling)
	default:
		return fmt.Errorf("unknown -cmd %q", cmd)
	}
}

func summary(w io.Writer, src source.RunSource) error {
	rows, err := core.SummaryFromSource(src)
	if err != nil {
		return err
	}
	tab := render.NewTable("series", "windows", "min", "mean", "max", "std")
	for _, r := range rows {
		tab.Row(r.Name, r.N, r.Min, r.Mean, r.Max, r.Std)
	}
	_, err = tab.WriteTo(w)
	return err
}

func edges(w io.Writer, src source.RunSource) error {
	es, err := core.EdgesFromSource(src)
	if err != nil {
		return err
	}
	meta, err := src.Meta()
	if err != nil {
		return err
	}
	tab := render.NewTable("t", "direction", "amplitude (MW)", "duration (s)")
	for _, e := range es {
		dir := "rise"
		if !e.Rising {
			dir = "fall"
		}
		tab.Row(e.T, dir, e.AmplitudeW/units.WattsPerMW, e.DurationSec)
	}
	if _, err := tab.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d edges at threshold %.2f MW\n",
		len(es), core.ClusterEdgeThresholdMW(meta.Nodes))
	return nil
}

func fft(w io.Writer, src source.RunSource) error {
	rep, err := core.SwingsFromSource(src)
	if err != nil {
		return err
	}
	if !rep.HasDominant {
		return fmt.Errorf("series too short for FFT")
	}
	fmt.Fprintf(w, "steepest swings: +%.2f MW / %.2f MW per window\n",
		rep.MaxRiseW/units.WattsPerMW, rep.MaxFallW/units.WattsPerMW)
	fmt.Fprintf(w, "dominant swing: %.5f Hz (period %.0f s), amplitude %.2f MW\n",
		rep.DominantFreqHz, 1/rep.DominantFreqHz, rep.DominantAmpW/units.WattsPerMW)
	tab := render.NewTable("rank", "freq (Hz)", "period (s)", "amplitude (W)")
	for i, c := range rep.Top {
		tab.Row(i+1, c.FreqHz, c.PeriodSec, c.AmplitudeW)
	}
	_, err = tab.WriteTo(w)
	return err
}

func jobAnalysis(w io.Writer, src source.RunSource) error {
	rows, err := src.JobRecords()
	if err != nil {
		return err
	}
	// Top 20 by energy; equal energies stay in job-log order.
	sortRows := append([]source.JobRecord(nil), rows...)
	sort.SliceStable(sortRows, func(i, j int) bool { return sortRows[i].EnergyJ > sortRows[j].EnergyJ })
	tab := render.NewTable("allocation", "class", "nodes", "hours", "mean (kW)", "max (kW)", "energy (kWh)")
	for i, r := range sortRows {
		if i == 20 {
			break
		}
		tab.Row(r.AllocationID, r.Class, r.Nodes,
			float64(r.EndTime-r.BeginTime)/units.SecondsPerHour, r.MeanPowerW/units.WattsPerKW,
			r.MaxPowerW/units.WattsPerKW, r.EnergyJ/units.JoulesPerKWh)
	}
	if _, err := tab.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d jobs total\n", len(rows))
	return nil
}

func earlyWarningAnalysis(w io.Writer, src source.RunSource) error {
	stats, err := core.EarlyWarningFromSource(src, units.SecondsPerHour)
	if err != nil {
		return err
	}
	tab := render.NewTable("precursor", "outcome", "precursors", "hit rate", "base rate", "lift", "median lead (s)")
	for _, st := range stats {
		tab.Row(st.Precursor.String(), st.Outcome.String(), st.Precursors,
			st.HitRate, st.BaseRate, st.Lift, st.MedianLeadSec)
	}
	_, err = tab.WriteTo(w)
	return err
}

// reports prints each report in turn, as cmd/repro does.
func reports(w io.Writer, src source.RunSource, fns ...func(source.RunSource) (repro.Report, error)) error {
	for _, fn := range fns {
		rep, err := fn(src)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, rep.String())
	}
	return nil
}
