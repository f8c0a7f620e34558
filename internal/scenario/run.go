package scenario

import (
	"repro/internal/source"
	"repro/internal/whatif"
)

// Assess reduces a RunSource holding one run of this scenario to its
// objective report — the same shape the what-if sweeps emit, stamped with
// the scenario's identity. It is pure FromSource (whatif.AssessSource), so
// the report is byte-identical whether computed from the live run's memory
// source or from the archive it was written to.
func (r *Resolved) Assess(src source.RunSource) (whatif.Report, error) {
	rep, err := whatif.AssessSource(src, whatif.DefaultWeights())
	if err != nil {
		return rep, err
	}
	rep.Label = r.Spec.Name
	rep.Hash = r.Identity()
	rep.Seed = r.Seed
	return rep, nil
}

// Manifest is a run's provenance, written beside its archive as
// scenario.json: the full spec plus the derived identity and trace stats.
// RunSeed is that identity (Resolved.Seed), not the seed the run used,
// which is the spec's.
type Manifest struct {
	Spec    Spec           `json:"spec"`
	Hash    string         `json:"hash"`
	RunSeed uint64         `json:"run_seed"`
	Trace   *manifestTrace `json:"trace,omitempty"`
}

type manifestTrace struct {
	Rows          int   `json:"rows"`
	Jobs          int   `json:"jobs"`
	ZeroDuration  int   `json:"zero_duration"`
	BeyondHorizon int   `json:"beyond_horizon"`
	PeakNodes     int   `json:"peak_nodes"`
	SpanSec       int64 `json:"span_sec"`
}

// Manifest returns the scenario's provenance record.
func (r *Resolved) Manifest() Manifest {
	m := Manifest{Spec: r.Spec, Hash: r.Identity(), RunSeed: r.Seed}
	if st := r.TraceStats; st.Rows > 0 {
		m.Trace = &manifestTrace{
			Rows: st.Rows, Jobs: st.Jobs, ZeroDuration: st.ZeroDuration,
			BeyondHorizon: st.BeyondHorizon, PeakNodes: st.PeakNodes, SpanSec: st.SpanSec,
		}
	}
	return m
}
