package query

import (
	"context"
	"errors"
	"net/http"
	"net/url"

	"repro/internal/core"
	"repro/internal/source"
)

// The /api/v1/analysis/* routes run the paper's analyses server-side over
// the archive's RunSource — the same entry points cmd/analyze and the
// in-memory pipeline use — so a dashboard can ask for "the edge report"
// instead of re-deriving it from raw range queries. All routes share the
// engine's decoded-table cache through the source layer: one byte budget
// for raw queries and analyses alike.

// errSourceUnavailable reports an archive the analysis layer cannot serve
// (no cluster dataset, so no RunSource was attached).
var errSourceUnavailable = &apiError{
	http.StatusNotFound,
	"analysis endpoints unavailable: archive has no cluster dataset",
}

func (h *handler) analysisSource(q url.Values) (source.RunSource, *Engine, error) {
	cl, err := h.cluster(q)
	if err != nil {
		return nil, nil, err
	}
	if cl.Source == nil {
		return nil, nil, errSourceUnavailable
	}
	return cl.Source, cl.Engine, nil
}

// analysisErr maps source-layer sentinels onto HTTP statuses.
func analysisErr(err error) error {
	if errors.Is(err, source.ErrUnavailable) || errors.Is(err, source.ErrUnknownSeries) {
		return &apiError{http.StatusNotFound, err.Error()}
	}
	return err
}

type apiSeriesSummary struct {
	Name    string `json:"name"`
	Windows int64  `json:"windows"`
	Min     jfloat `json:"min"`
	Mean    jfloat `json:"mean"`
	Max     jfloat `json:"max"`
	Std     jfloat `json:"std"`
}

func (h *handler) analysisSummary(ctx context.Context, q url.Values) (any, error) {
	src, eng, err := h.analysisSource(q)
	if err != nil {
		return nil, err
	}
	eng.Metrics().AnalysisQueries.Add(1)
	rows, err := core.SummaryFromSource(src)
	if err != nil {
		return nil, analysisErr(err)
	}
	out := make([]apiSeriesSummary, len(rows))
	for i, s := range rows {
		out[i] = apiSeriesSummary{
			Name: s.Name, Windows: s.N,
			Min: jfloat(s.Min), Mean: jfloat(s.Mean), Max: jfloat(s.Max), Std: jfloat(s.Std),
		}
	}
	return map[string]any{"series": out}, nil
}

type apiEdge struct {
	T           int64  `json:"t"`
	Rising      bool   `json:"rising"`
	AmplitudeW  jfloat `json:"amplitude_w"`
	DurationSec int64  `json:"duration_sec"`
}

func (h *handler) analysisEdges(ctx context.Context, q url.Values) (any, error) {
	src, eng, err := h.analysisSource(q)
	if err != nil {
		return nil, err
	}
	eng.Metrics().AnalysisQueries.Add(1)
	es, err := core.EdgesFromSource(src)
	if err != nil {
		return nil, analysisErr(err)
	}
	meta, err := src.Meta()
	if err != nil {
		return nil, analysisErr(err)
	}
	out := make([]apiEdge, len(es))
	for i, e := range es {
		out[i] = apiEdge{T: e.T, Rising: e.Rising,
			AmplitudeW: jfloat(e.AmplitudeW), DurationSec: e.DurationSec}
	}
	return map[string]any{
		"threshold_mw": jfloat(core.ClusterEdgeThresholdMW(meta.Nodes)),
		"edges":        out,
	}, nil
}

type apiSwingComponent struct {
	FreqHz     jfloat `json:"freq_hz"`
	PeriodSec  jfloat `json:"period_sec"`
	AmplitudeW jfloat `json:"amplitude_w"`
}

func (h *handler) analysisSwings(ctx context.Context, q url.Values) (any, error) {
	src, eng, err := h.analysisSource(q)
	if err != nil {
		return nil, err
	}
	eng.Metrics().AnalysisQueries.Add(1)
	rep, err := core.SwingsFromSource(src)
	if err != nil {
		return nil, analysisErr(err)
	}
	out := map[string]any{
		"max_rise_w": jfloat(rep.MaxRiseW),
		"max_fall_w": jfloat(rep.MaxFallW),
	}
	if rep.HasDominant {
		out["dominant"] = apiSwingComponent{
			FreqHz:     jfloat(rep.DominantFreqHz),
			PeriodSec:  jfloat(1 / rep.DominantFreqHz),
			AmplitudeW: jfloat(rep.DominantAmpW),
		}
	}
	top := make([]apiSwingComponent, len(rep.Top))
	for i, c := range rep.Top {
		top[i] = apiSwingComponent{
			FreqHz: jfloat(c.FreqHz), PeriodSec: jfloat(c.PeriodSec),
			AmplitudeW: jfloat(c.AmplitudeW),
		}
	}
	out["top"] = top
	return out, nil
}

type apiBand struct {
	Band      int    `json:"band"`
	Label     string `json:"label"`
	MeanGPUs  jfloat `json:"mean_gpus"`
	MaxGPUs   jfloat `json:"max_gpus"`
	MeanShare jfloat `json:"mean_share"`
}

func (h *handler) analysisBands(ctx context.Context, q url.Values) (any, error) {
	src, eng, err := h.analysisSource(q)
	if err != nil {
		return nil, err
	}
	eng.Metrics().AnalysisQueries.Add(1)
	rows, err := core.ThermalBandsFromSource(src)
	if err != nil {
		return nil, analysisErr(err)
	}
	out := make([]apiBand, len(rows))
	for i, b := range rows {
		out[i] = apiBand{Band: b.Band, Label: b.Label,
			MeanGPUs: jfloat(b.MeanGPUs), MaxGPUs: jfloat(b.MaxGPUs),
			MeanShare: jfloat(b.MeanShare)}
	}
	return map[string]any{"bands": out}, nil
}

type apiPrecursor struct {
	Precursor     string `json:"precursor"`
	Outcome       string `json:"outcome"`
	WindowSec     int64  `json:"window_sec"`
	Precursors    int    `json:"precursors"`
	Followed      int    `json:"followed"`
	HitRate       jfloat `json:"hit_rate"`
	BaseRate      jfloat `json:"base_rate"`
	Lift          jfloat `json:"lift"`
	MedianLeadSec int64  `json:"median_lead_sec"`
}

func (h *handler) analysisEarlyWarning(ctx context.Context, q url.Values) (any, error) {
	src, eng, err := h.analysisSource(q)
	if err != nil {
		return nil, err
	}
	windowSec, err := qInt(q.Get("window"), 3600)
	if err != nil {
		return nil, err
	}
	if windowSec <= 0 {
		return nil, &apiError{http.StatusBadRequest, "window must be positive"}
	}
	eng.Metrics().AnalysisQueries.Add(1)
	stats, err := core.EarlyWarningFromSource(src, windowSec)
	if err != nil {
		return nil, analysisErr(err)
	}
	out := make([]apiPrecursor, len(stats))
	for i, st := range stats {
		out[i] = apiPrecursor{
			Precursor: st.Precursor.String(), Outcome: st.Outcome.String(),
			WindowSec: st.WindowSec, Precursors: st.Precursors, Followed: st.Followed,
			HitRate: jfloat(st.HitRate), BaseRate: jfloat(st.BaseRate),
			Lift: jfloat(st.Lift), MedianLeadSec: st.MedianLeadSec,
		}
	}
	return map[string]any{"pairs": out}, nil
}

func (h *handler) analysisOvercooling(ctx context.Context, q url.Values) (any, error) {
	src, eng, err := h.analysisSource(q)
	if err != nil {
		return nil, err
	}
	eng.Metrics().AnalysisQueries.Add(1)
	rep, err := core.OvercoolingFromSource(src)
	if err != nil {
		return nil, analysisErr(err)
	}
	return map[string]any{
		"windows":           rep.Windows,
		"excess_ton_hours":  jfloat(rep.ExcessTonHours),
		"deficit_ton_hours": jfloat(rep.DeficitTonHours),
		"excess_frac":       jfloat(rep.ExcessFrac),
		"excess_energy_kwh": jfloat(rep.ExcessEnergyKWh),
		"post_fall_share":   jfloat(rep.PostFallShare),
	}, nil
}

type apiMSBValidation struct {
	MSB        int    `json:"msb"`
	Windows    int    `json:"windows"`
	MeanDiffW  jfloat `json:"mean_diff_w"`
	StdDiffW   jfloat `json:"std_diff_w"`
	Corr       jfloat `json:"corr"`
	MeanMeterW jfloat `json:"mean_meter_w"`
	MeanSumW   jfloat `json:"mean_sum_w"`
}

func (h *handler) analysisValidation(ctx context.Context, q url.Values) (any, error) {
	src, eng, err := h.analysisSource(q)
	if err != nil {
		return nil, err
	}
	eng.Metrics().AnalysisQueries.Add(1)
	rep, err := core.ValidationFromSource(src)
	if err != nil {
		return nil, analysisErr(err)
	}
	per := make([]apiMSBValidation, len(rep.PerMSB))
	for i, m := range rep.PerMSB {
		per[i] = apiMSBValidation{
			MSB: m.MSB, Windows: m.N,
			MeanDiffW: jfloat(m.MeanDiffW), StdDiffW: jfloat(m.StdDiffW),
			Corr: jfloat(m.Corr), MeanMeterW: jfloat(m.MeanMeterW), MeanSumW: jfloat(m.MeanSumW),
		}
	}
	return map[string]any{
		"per_msb":        per,
		"mean_diff_w":    jfloat(rep.MeanDiffAllW),
		"relative_error": jfloat(rep.RelativeError),
	}, nil
}

type apiFailureRow struct {
	Type           string `json:"type"`
	Count          int    `json:"count"`
	MaxPerNode     int    `json:"max_per_node"`
	MaxPerNodeFrac jfloat `json:"max_per_node_frac"`
	Hardware       bool   `json:"hardware"`
}

type apiCorrelation struct {
	A string `json:"a"`
	B string `json:"b"`
	R jfloat `json:"r"`
	P jfloat `json:"p"`
}

func (h *handler) analysisFailures(ctx context.Context, q url.Values) (any, error) {
	src, eng, err := h.analysisSource(q)
	if err != nil {
		return nil, err
	}
	eng.Metrics().AnalysisQueries.Add(1)
	rows, err := core.FailureCompositionFromSource(src)
	if err != nil {
		return nil, analysisErr(err)
	}
	cells, err := core.FailureCorrelationFromSource(src, 0.05)
	if err != nil {
		return nil, analysisErr(err)
	}
	comp := make([]apiFailureRow, len(rows))
	for i, c := range rows {
		comp[i] = apiFailureRow{
			Type: c.Type.String(), Count: c.Count, MaxPerNode: c.MaxPerNode,
			MaxPerNodeFrac: jfloat(c.MaxPerNodeFrac), Hardware: c.HardwareFailure,
		}
	}
	corr := make([]apiCorrelation, len(cells))
	for i, c := range cells {
		corr[i] = apiCorrelation{A: c.A.String(), B: c.B.String(), R: jfloat(c.R), P: jfloat(c.P)}
	}
	return map[string]any{"composition": comp, "correlations": corr}, nil
}

type apiJobRecord struct {
	AllocationID int64  `json:"allocation_id"`
	Class        int    `json:"class"`
	Domain       int    `json:"domain"`
	Nodes        int    `json:"nodes"`
	BeginTime    int64  `json:"begin_time"`
	EndTime      int64  `json:"end_time"`
	MaxPowerW    jfloat `json:"max_power_w"`
	MeanPowerW   jfloat `json:"mean_power_w"`
	EnergyJ      jfloat `json:"energy_j"`
}

func (h *handler) analysisJobs(ctx context.Context, q url.Values) (any, error) {
	src, eng, err := h.analysisSource(q)
	if err != nil {
		return nil, err
	}
	eng.Metrics().AnalysisQueries.Add(1)
	recs, err := src.JobRecords()
	if err != nil {
		return nil, analysisErr(err)
	}
	out := make([]apiJobRecord, len(recs))
	for i, rec := range recs {
		out[i] = apiJobRecord{
			AllocationID: rec.AllocationID, Class: rec.Class, Domain: rec.Domain,
			Nodes: rec.Nodes, BeginTime: rec.BeginTime, EndTime: rec.EndTime,
			MaxPowerW:  jfloat(rec.MaxPowerW),
			MeanPowerW: jfloat(rec.MeanPowerW),
			EnergyJ:    jfloat(rec.EnergyJ),
		}
	}
	return map[string]any{"jobs": out}, nil
}
