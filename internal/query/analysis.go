package query

import (
	"errors"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/source"
)

// The /api/v1/analysis/* routes run the paper's analyses server-side over
// the archive's RunSource — the same entry points cmd/repro -data and the
// in-memory pipeline use — so a dashboard can ask for "the edge report"
// instead of re-deriving it from raw range queries. All routes share the
// engine's decoded-table cache through the source layer: one byte budget
// for raw queries and analyses alike. Each answer is a whole-run reduction
// over an archive that cannot change under the server, so it is computed
// and encoded once and served from the handler's reply cache after that.

// analysisErr maps source-layer sentinels onto HTTP statuses.
func analysisErr(err error) error {
	if errors.Is(err, source.ErrUnavailable) || errors.Is(err, source.ErrUnknownSeries) {
		return &serve.Error{Status: http.StatusNotFound, Msg: err.Error()}
	}
	return err
}

// analysisRoute parses a route's parameters out of the query string and
// returns what they amount to — their canonical form, part of the cache key,
// so parameters the route does not read never make an entry — and the
// function that builds the reply value from a source.
type analysisRoute func(q url.Values) (params string, compute func(source.RunSource) (any, error), err error)

// plain is a route without parameters.
func plain(compute func(source.RunSource) (any, error)) analysisRoute {
	return func(url.Values) (string, func(source.RunSource) (any, error), error) { return "", compute, nil }
}

// analysisRoutes are the routes under /api/v1/analysis/.
var analysisRoutes = map[string]analysisRoute{
	"summary":      plain(summaryReply),
	"edges":        plain(edgesReply),
	"swings":       plain(swingsReply),
	"bands":        plain(bandsReply),
	"earlywarning": earlyWarningRoute,
	"overcooling":  plain(overcoolingReply),
	"validation":   plain(validationReply),
	"failures":     plain(failuresReply),
	"jobs":         plain(jobsReply),
}

type apiSeriesSummary struct {
	Name    string `json:"name"`
	Windows int64  `json:"windows"`
	Min     jfloat `json:"min"`
	Mean    jfloat `json:"mean"`
	Max     jfloat `json:"max"`
	Std     jfloat `json:"std"`
}

func summaryReply(src source.RunSource) (any, error) {
	rows, err := core.SummaryFromSource(src)
	if err != nil {
		return nil, err
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

func edgesReply(src source.RunSource) (any, error) {
	es, err := core.EdgesFromSource(src)
	if err != nil {
		return nil, err
	}
	meta, err := src.Meta()
	if err != nil {
		return nil, err
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

func swingsReply(src source.RunSource) (any, error) {
	rep, err := core.SwingsFromSource(src)
	if err != nil {
		return nil, err
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

func bandsReply(src source.RunSource) (any, error) {
	rows, err := core.ThermalBandsFromSource(src)
	if err != nil {
		return nil, err
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

func earlyWarningRoute(q url.Values) (string, func(source.RunSource) (any, error), error) {
	windowSec, err := serve.QueryInt(q, "window", 3600)
	if err != nil {
		return "", nil, err
	}
	if windowSec <= 0 {
		return "", nil, &serve.Error{Status: http.StatusBadRequest, Msg: "window must be positive"}
	}
	return strconv.FormatInt(windowSec, 10), func(src source.RunSource) (any, error) {
		return earlyWarningReply(src, windowSec)
	}, nil
}

func earlyWarningReply(src source.RunSource, windowSec int64) (any, error) {
	stats, err := core.EarlyWarningFromSource(src, windowSec)
	if err != nil {
		return nil, err
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

func overcoolingReply(src source.RunSource) (any, error) {
	rep, err := core.OvercoolingFromSource(src)
	if err != nil {
		return nil, err
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

func validationReply(src source.RunSource) (any, error) {
	rep, err := core.ValidationFromSource(src)
	if err != nil {
		return nil, err
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

func failuresReply(src source.RunSource) (any, error) {
	rows, err := core.Table4Composition(src)
	if err != nil {
		return nil, err
	}
	cells, err := core.Figure13Correlation(src, 0.05)
	if err != nil {
		return nil, err
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

func jobsReply(src source.RunSource) (any, error) {
	recs, err := src.JobRecords()
	if err != nil {
		return nil, err
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
