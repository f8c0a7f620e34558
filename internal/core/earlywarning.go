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
	w := &EarlyWarningMonitor{windowSec: windowSec, pairs: []precursorPair{newPrecursorPair(precursor, outcome)}}
	w.Observe(evs)
	st := w.pairs[0].stats(windowSec, gpuWindows)
	return &st, nil
}

// earlyWarningPairs evaluates the paper's precursor→outcome pairs over a
// failure log, deriving the observation denominator from the run span and
// system size.
func earlyWarningPairs(evs []failures.Event, nodes int, spanSec, windowSec int64) []PrecursorStats {
	w := NewEarlyWarningMonitor(windowSec)
	w.Observe(evs)
	return w.Summary(nodes, spanSec)
}

// EarlyWarningMonitor is the §6.1 analysis as an online operator over a
// failure feed, for the paper's pairs: the headline microcontroller
// warning → driver error-handling exception, plus the double-bit-error
// retirement chain, where one type is the outcome of one pair and the
// precursor of the next. Each precursor is followed by the first outcome
// at or after it on the same GPU, ties included: an outcome logged in the
// same second as its precursor follows it with lead 0 whichever of the two
// arrives first. Events must arrive in non-decreasing time order per GPU.
type EarlyWarningMonitor struct {
	windowSec int64
	pairs     []precursorPair
}

// NewEarlyWarningMonitor returns a monitor with the given horizon
// (<= 0: one hour).
func NewEarlyWarningMonitor(windowSec int64) *EarlyWarningMonitor {
	if windowSec <= 0 {
		windowSec = units.SecondsPerHour
	}
	return &EarlyWarningMonitor{windowSec: windowSec, pairs: []precursorPair{
		newPrecursorPair(failures.MicrocontrollerWarning, failures.DriverErrorHandling),
		newPrecursorPair(failures.DoubleBitError, failures.PageRetirementEvent),
		newPrecursorPair(failures.PageRetirementEvent, failures.PageRetirementFailure),
	}}
}

// Observe feeds a batch of failure events, stably sorted by time first so
// that same-second events keep their log order.
//
//lint:detroot
func (w *EarlyWarningMonitor) Observe(evs []failures.Event) {
	ordered := append([]failures.Event(nil), evs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Time < ordered[j].Time })
	for i := range ordered {
		for j := range w.pairs {
			w.pairs[j].observe(&ordered[i], w.windowSec)
		}
	}
}

// Summary reduces the events observed so far over a span of spanSec on
// nodes nodes: the base rate's denominator is every GPU's horizon-length
// windows in the span.
func (w *EarlyWarningMonitor) Summary(nodes int, spanSec int64) []PrecursorStats {
	gpuWindows := float64(nodes*units.GPUsPerNode) * float64(spanSec) / float64(w.windowSec)
	out := make([]PrecursorStats, len(w.pairs))
	for i := range w.pairs {
		out[i] = w.pairs[i].stats(w.windowSec, gpuWindows)
	}
	return out
}

// gpuKey names one GPU of the failure log.
type gpuKey struct {
	node int
	slot int
}

// precursorPair is the matching state of one (precursor, outcome) pair.
type precursorPair struct {
	precursor, outcome failures.Type

	precursors int
	followed   int
	outcomes   int     // all outcome events (base-rate numerator)
	leads      []int64 // lead times of followed precursors, arrival order
	// pending holds unmatched precursor times per GPU, ascending.
	pending map[gpuKey][]int64
	// lastOutcome is each GPU's newest outcome time: a precursor in that
	// same second is followed at once.
	lastOutcome map[gpuKey]int64
}

func newPrecursorPair(precursor, outcome failures.Type) precursorPair {
	return precursorPair{
		precursor:   precursor,
		outcome:     outcome,
		pending:     map[gpuKey][]int64{},
		lastOutcome: map[gpuKey]int64{},
	}
}

func (p *precursorPair) observe(e *failures.Event, windowSec int64) {
	k := gpuKey{int(e.Node), int(e.Slot)}
	switch e.Type {
	case p.outcome:
		p.outcomes++
		p.lastOutcome[k] = e.Time
		// The first outcome at or after every pending precursor on this
		// GPU.
		for _, pt := range p.pending[k] {
			p.follow(e.Time-pt, windowSec)
		}
		delete(p.pending, k)
	case p.precursor:
		p.precursors++
		if last, ok := p.lastOutcome[k]; ok && last == e.Time {
			p.follow(0, windowSec)
			return
		}
		// Expire horizons that can no longer be met to bound memory;
		// correctness does not depend on it (expired entries would fail
		// the horizon check anyway).
		pend := p.pending[k]
		keep := pend[:0]
		for _, pt := range pend {
			if e.Time-pt <= windowSec {
				keep = append(keep, pt)
			}
		}
		p.pending[k] = append(keep, e.Time)
	}
}

// follow counts a precursor whose first outcome came lead seconds later,
// if that is within the horizon.
func (p *precursorPair) follow(lead, windowSec int64) {
	if lead <= windowSec {
		p.followed++
		p.leads = append(p.leads, lead)
	}
}

func (p *precursorPair) stats(windowSec int64, gpuWindows float64) PrecursorStats {
	st := PrecursorStats{
		Precursor: p.precursor, Outcome: p.outcome,
		WindowSec: windowSec, Precursors: p.precursors,
	}
	if p.precursors == 0 {
		return st
	}
	st.Followed = p.followed
	st.HitRate = float64(p.followed) / float64(p.precursors)
	if gpuWindows > 0 {
		st.BaseRate = float64(p.outcomes) / gpuWindows
		if st.BaseRate > 1 {
			st.BaseRate = 1
		}
	}
	if st.BaseRate > 0 {
		st.Lift = st.HitRate / st.BaseRate
	}
	if len(p.leads) > 0 {
		leads := append([]int64(nil), p.leads...)
		sort.Slice(leads, func(a, b int) bool { return leads[a] < leads[b] })
		st.MedianLeadSec = leads[len(leads)/2]
	}
	return st
}
