package stream

import (
	"repro/internal/core"
	"repro/internal/tsagg"
)

// Frame is one finalized event-time window of the whole system: every
// channel's window for one coarsening interval. The pipeline reuses a
// single Frame across Apply calls; operators must copy anything they keep.
type Frame struct {
	Start int64 // window start (unix seconds, grid-aligned)
	Step  int64 // window length in seconds
	// Observed counts the nodes with an input-power window this frame. A
	// frame with Observed == 0 is a telemetry gap: the grid slot exists
	// (so downstream NaN handling matches the offline series) but carries
	// no data.
	Observed int
	// NodePower holds the per-node input-power window statistics, indexed
	// by node ID; Count == 0 marks a node absent this window.
	NodePower []tsagg.WindowStat
	// BandGPUs counts GPU core-temperature channels per thermal band
	// (integer counts; core.TempBandOf of each channel's window mean).
	BandGPUs [core.NumTempBands]int64
}

// Operator is one incremental analysis in the pipeline. Apply observes
// finalized frames in strictly ascending event time; Flush runs once after
// the last frame when the pipeline closes. Both are called from the fold
// goroutine under the pipeline's snapshot lock, so implementations need no
// locking of their own but must stay cheap.
type Operator interface {
	Name() string
	Apply(f *Frame)
	Flush()
}
