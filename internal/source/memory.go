package source

import (
	"fmt"

	"repro/internal/failures"
	"repro/internal/tsagg"
)

// MemorySource is the live plane: a RunSource over series and records
// already resident in memory. internal/core's collector fills one window
// by window (see RunData.Source); tests may also assemble one by hand.
//
// The struct is populated once and then treated as immutable, which makes
// it trivially safe for concurrent readers.
type MemorySource struct {
	RunMeta Meta
	// SeriesByName maps canonical series names (the Series* constants,
	// GPUBandSeries, MeterSeriesName, MSBSumSeriesName) to their series:
	// the per-MSB meter pairs are reached by name like every other series.
	SeriesByName map[string]*tsagg.Series
	Jobs         []JobRecord
	Events       []failures.Event
	Allocs       []Allocation
	JobWindows   []JobWindow
	Exemplar     []GPUSample
}

var _ RunSource = (*MemorySource)(nil)

// Meta implements RunSource.
func (m *MemorySource) Meta() (Meta, error) { return m.RunMeta, nil }

// Series implements RunSource.
func (m *MemorySource) Series(name string) (*tsagg.Series, error) {
	s, ok := m.SeriesByName[name]
	if !ok || s == nil {
		return nil, fmt.Errorf("source: series %q: %w", name, ErrUnknownSeries)
	}
	return s, nil
}

// JobRecords implements RunSource.
func (m *MemorySource) JobRecords() ([]JobRecord, error) { return m.Jobs, nil }

// Failures implements RunSource.
func (m *MemorySource) Failures() ([]failures.Event, error) { return m.Events, nil }

// Allocations implements RunSource.
func (m *MemorySource) Allocations() ([]Allocation, error) { return m.Allocs, nil }

// JobPower implements RunSource.
func (m *MemorySource) JobPower() ([]JobWindow, error) { return m.JobWindows, nil }

// ExemplarGPUs implements RunSource.
func (m *MemorySource) ExemplarGPUs() ([]GPUSample, error) { return m.Exemplar, nil }
