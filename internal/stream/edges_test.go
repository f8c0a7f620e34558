package stream_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/tsagg"
	"repro/internal/units"
)

// threshold is the live plane's edge threshold for a one-node pipeline:
// the paper's 868 W per node.
const threshold = float64(units.EdgeThresholdPerNode)

// scaled multiplies every value of s by threshold/was, so a fixture written
// against a threshold of was crosses the live plane's threshold where it
// crossed its own.
func scaled(s *tsagg.Series, was float64) *tsagg.Series {
	for i := range s.Vals {
		s.Vals[i] *= threshold / was
	}
	return s
}

// liveEdges feeds s to a one-node pipeline — one input-power sample per
// value, none for a NaN slot, which becomes a gap frame — and returns the
// edges the live plane found, durations resolved. s must start with a
// value, the pipeline's first frame being its first data, and be on the
// pipeline's 10 s grid.
func liveEdges(t *testing.T, s *tsagg.Series) []core.Edge {
	t.Helper()
	if s.Step != units.CoarsenWindowSec {
		t.Fatalf("series step %d s, want the pipeline's %d s", s.Step, units.CoarsenWindowSec)
	}
	p, err := stream.NewPipeline(stream.Config{Nodes: 1, StartTime: s.Start, QueueDepth: s.Len() + 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range s.Vals {
		if !math.IsNaN(v) {
			p.Ingest([]telemetry.Sample{{Metric: telemetry.MetricInputPower, T: s.TimeAt(i), Value: v}})
		}
	}
	p.Close()
	if st := p.Snapshot().Ingest; st.Dropped != 0 || st.Late != 0 {
		t.Fatalf("lossless feed lost data: %+v", st)
	}
	edges, _, _ := p.EdgesSnapshot(0)
	return edges
}

// sameEdges compares edge lists field by field, amplitudes bit for bit.
func sameEdges(t *testing.T, label string, got, want []core.Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d edges, want %d\ngot  %+v\nwant %+v", label, len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.StartIdx != w.StartIdx || g.EndIdx != w.EndIdx || g.T != w.T || g.Rising != w.Rising ||
			!eqBits(g.AmplitudeW, w.AmplitudeW) || g.DurationSec != w.DurationSec {
			t.Fatalf("%s edge %d:\ngot  %+v\nwant %+v", label, i, g, w)
		}
	}
}

// TestEdgeDetectorParity is the property test behind the streaming edge
// operator: on randomized series — plateaus, ramps, spikes, NaN gaps — the
// live plane reproduces the reference batch detector exactly: same edges,
// same indices, same float-accumulated amplitudes, same 80 %-return
// durations.
func TestEdgeDetectorParity(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.IntN(120)
		s := tsagg.NewSeries(1000, 10, n)
		level := 500.0
		for i := 0; i < n; i++ {
			switch r.IntN(10) {
			case 0:
				if i > 0 {
					continue // leave NaN gap
				}
			case 1, 2:
				level += r.Uniform(-200, 200) // step
			case 3:
				level += r.Uniform(-60, 60) // near-threshold move
			}
			s.Vals[i] = level + r.Uniform(-5, 5)
		}
		scaled(s, 50)
		sameEdges(t, "trial", liveEdges(t, s), refDetectEdges(s, threshold))
	}
}

// TestEdgeDetectorMergesAndBreaks pins the fine structure on a crafted
// series: merged same-direction crossings, a NaN break, a direction flip
// opening an opposite edge from the breaking delta, and duration
// resolution across a later edge.
func TestEdgeDetectorMergesAndBreaks(t *testing.T) {
	nan := math.NaN()
	vals := []float64{
		100, 100, 300, 500, 520, // rising edge merged over two crossings
		510, 180, // falling edge; also returns the rising edge 80 % of the way
		nan, 200, 190, // NaN gap breaks and suppresses detection
		200, 600, 210, // spike: rising then falling from the breaking delta
		205, 200,
	}
	s := scaled(&tsagg.Series{Start: 0, Step: 10, Vals: vals}, 150)
	got := liveEdges(t, s)
	sameEdges(t, "crafted", got, refDetectEdges(s, threshold))
	// Sanity on the scenario itself: at least one merged rising edge and
	// one resolved duration.
	var sawMerged, sawResolved bool
	for _, e := range got {
		if e.EndIdx-e.StartIdx > 1 {
			sawMerged = true
		}
		if e.DurationSec >= 0 {
			sawResolved = true
		}
	}
	if !sawMerged || !sawResolved {
		t.Errorf("scenario lost its teeth: merged=%v resolved=%v (%+v)", sawMerged, sawResolved, got)
	}
}

// TestEdgeDetectorFlushEmitsOpenEdge verifies an edge still merging at
// stream end is emitted with duration -1, as the batch detector does for
// a series ending mid-edge.
func TestEdgeDetectorFlushEmitsOpenEdge(t *testing.T) {
	s := scaled(&tsagg.Series{Start: 0, Step: 10, Vals: []float64{100, 400, 700}}, 150)
	got := liveEdges(t, s)
	sameEdges(t, "open", got, refDetectEdges(s, threshold))
	if len(got) != 1 || got[0].DurationSec != -1 {
		t.Errorf("got %+v, want one open edge with duration -1", got)
	}
}
