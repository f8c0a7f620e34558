package core

import (
	"fmt"
	"sort"

	"repro/internal/failures"
	"repro/internal/units"
)

// The paper's §6.1 closes with an operational insight: internal
// microcontroller warnings correlate so strongly with driver
// error-handling exceptions that "soft errors ... can be efficient for
// early diagnostics and ultimately prevention of fatal driver errors".
// This file quantifies that: for a (precursor, outcome) pair it measures
// the lift of the outcome's probability after a precursor on the same
// GPU, and the available lead time.

// PrecursorStats quantifies one precursor→outcome relationship.
type PrecursorStats struct {
	Precursor failures.Type
	Outcome   failures.Type
	// WindowSec is the horizon within which an outcome "follows".
	WindowSec int64
	// Precursors is the number of precursor events examined.
	Precursors int
	// Followed is how many were followed by the outcome on the same GPU
	// within the window.
	Followed int
	// HitRate = Followed / Precursors.
	HitRate float64
	// BaseRate is the unconditional probability that any same-length
	// window on any allocated GPU contains the outcome.
	BaseRate float64
	// Lift = HitRate / BaseRate (∞-safe: 0 when BaseRate is 0).
	Lift float64
	// MedianLeadSec is the median time from precursor to outcome among
	// followed pairs — the diagnostic lead time.
	MedianLeadSec int64
}

// EarlyWarning evaluates precursor→outcome prediction over a failure log.
// gpuWindows is the total number of (GPU, window) observation slots used
// for the base rate: pass activeGPUs × (spanSec / windowSec); the analysis
// derives it from the run dimensions in EarlyWarningFromSource.
func EarlyWarning(evs []failures.Event, precursor, outcome failures.Type,
	windowSec int64, gpuWindows float64) (*PrecursorStats, error) {
	if windowSec <= 0 {
		return nil, fmt.Errorf("core: non-positive window %d", windowSec)
	}
	if precursor == outcome {
		return nil, fmt.Errorf("core: precursor equals outcome")
	}
	// Index outcome events per GPU, time-sorted.
	type gpuKey struct {
		node int
		slot int
	}
	outcomes := map[gpuKey][]int64{}
	outcomeCount := 0
	var precursors []failures.Event
	for _, e := range evs {
		k := gpuKey{int(e.Node), int(e.Slot)}
		switch e.Type {
		case outcome:
			outcomes[k] = append(outcomes[k], e.Time)
			outcomeCount++
		case precursor:
			precursors = append(precursors, e)
		}
	}
	for k := range outcomes {
		sort.Slice(outcomes[k], func(a, b int) bool { return outcomes[k][a] < outcomes[k][b] })
	}
	st := &PrecursorStats{
		Precursor: precursor, Outcome: outcome,
		WindowSec: windowSec, Precursors: len(precursors),
	}
	if len(precursors) == 0 {
		return st, nil
	}
	var leads []int64
	for _, p := range precursors {
		k := gpuKey{int(p.Node), int(p.Slot)}
		times := outcomes[k]
		// First outcome at or after the precursor within the window.
		i := sort.Search(len(times), func(i int) bool { return times[i] >= p.Time })
		if i < len(times) && times[i]-p.Time <= windowSec {
			st.Followed++
			leads = append(leads, times[i]-p.Time)
		}
	}
	st.HitRate = float64(st.Followed) / float64(st.Precursors)
	if gpuWindows > 0 {
		st.BaseRate = float64(outcomeCount) / gpuWindows
		if st.BaseRate > 1 {
			st.BaseRate = 1
		}
	}
	if st.BaseRate > 0 {
		st.Lift = st.HitRate / st.BaseRate
	}
	if len(leads) > 0 {
		sort.Slice(leads, func(a, b int) bool { return leads[a] < leads[b] })
		st.MedianLeadSec = leads[len(leads)/2]
	}
	return st, nil
}

// earlyWarningPairs evaluates the paper's precursor→outcome pairs — the
// headline microcontroller warning → driver error-handling exception, plus
// the double-bit-error retirement chain — over a failure log, deriving the
// observation denominator from the run span and system size.
func earlyWarningPairs(evs []failures.Event, nodes int, spanSec, windowSec int64) ([]PrecursorStats, error) {
	if windowSec <= 0 {
		windowSec = 3600
	}
	gpuWindows := float64(nodes*units.GPUsPerNode) * float64(spanSec) / float64(windowSec)
	pairs := [][2]failures.Type{
		{failures.MicrocontrollerWarning, failures.DriverErrorHandling},
		{failures.DoubleBitError, failures.PageRetirementEvent},
		{failures.PageRetirementEvent, failures.PageRetirementFailure},
	}
	var out []PrecursorStats
	for _, pr := range pairs {
		st, err := EarlyWarning(evs, pr[0], pr[1], windowSec, gpuWindows)
		if err != nil {
			return nil, err
		}
		out = append(out, *st)
	}
	return out, nil
}
