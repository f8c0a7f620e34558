package stream

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/serve"
	"repro/internal/topology"
)

// DefaultTimeout is the per-request deadline streamd serves with.
const DefaultTimeout = 10 * time.Second

// ServeConfig bounds the live HTTP serving layer, mirroring the queryd
// discipline (both run on the serve.Kernel): GET-only routes behind a
// concurrency limiter and a per-request deadline, the query string bounded
// by serve.MaxQueryLen. streamd serves with the zero value: every bound at
// its default.
type ServeConfig struct {
	// Timeout is the per-request deadline (<= 0: DefaultTimeout).
	Timeout time.Duration
	// MaxConcurrent bounds in-flight requests; excess requests are shed
	// with 503 (<= 0: 32).
	MaxConcurrent int
}

// handler serves the live JSON API over a Pipeline: the routes on its mux,
// each behind the kernel's guard.
type handler struct {
	*http.ServeMux
	p      *Pipeline
	kernel *serve.Kernel
}

// NewHandler returns the streamd HTTP API:
//
//	GET /api/v1/live/rollup        — fleet/cabinet/MSB power windows
//	GET /api/v1/live/edges         — detected power edges
//	GET /api/v1/live/bands         — thermal-band histogram + occupancy
//	GET /api/v1/live/earlywarning  — precursor→outcome lift statistics
//	GET /api/v1/live/health        — ingest counters, watermark, degradation
//	GET /healthz                   — liveness
//	GET /debug/vars                — the kernel's shed/in-flight counters and per-route latency
//
// API routes run under the serving kernel's guard with the concurrency
// limit and per-request timeout of cfg. The health routes bypass both: they
// must answer precisely when the service is swamped. Every reply is a
// snapshot of live state, so none goes through a reply cache.
func NewHandler(p *Pipeline, cfg ServeConfig) http.Handler {
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	h := &handler{ServeMux: http.NewServeMux(), p: p, kernel: serve.NewKernel(timeout, cfg.MaxConcurrent, nil)}
	guard := h.kernel.Guard
	h.HandleFunc("/healthz", serve.Healthz)
	h.HandleFunc("/debug/vars", h.kernel.Vars)
	h.HandleFunc("/api/v1/live/health", h.kernel.Unguarded("health", h.health))
	h.HandleFunc("/api/v1/live/rollup", guard("rollup", h.rollup))
	h.HandleFunc("/api/v1/live/edges", guard("edges", h.edges))
	h.HandleFunc("/api/v1/live/bands", guard("bands", h.bands))
	h.HandleFunc("/api/v1/live/earlywarning", guard("earlywarning", h.earlyWarning))
	return h
}

// jfloat marshals NaN/Inf (legal in the pipeline, illegal in JSON) as
// null. It backs the float fields of the reflection-encoded replies; the
// rollup and health replies use the same formatter directly.
type jfloat = serve.Float

// The two polled routes — rollup and health — answer as serve.Encoder
// replies, appending themselves to a pooled buffer without reflection, byte
// for byte what encoding/json (SetEscapeHTML(false)) produced for the reply
// value they replaced; the others stay on encoding/json.

// --- /api/v1/live/rollup ---

// rollupReply is the rollup reply: fleet serves the fleet sums as
// `points`, the grouped forms one labelled `series` entry per group.
type rollupReply struct {
	group string
	snap  RollupSnapshot
	val   func(w *RollupWindow, g int) float64 // a window's sum for group g
	// Grouped forms only.
	groups int
	label  func(g int) string
}

func fleetW(w *RollupWindow, _ int) float64   { return w.FleetW }
func cabinetW(w *RollupWindow, g int) float64 { return w.CabinetW[g] }
func msbW(w *RollupWindow, g int) float64     { return w.MSBW[g] }
func cabinetLabel(g int) string               { return "cabinet " + strconv.Itoa(g) }
func msbLabel(g int) string                   { return topology.MSB(g).String() }

// AppendJSON writes {"group","step","windows_total","energy_j"} and then
// `points` or `series`, each omitted when empty.
func (r *rollupReply) AppendJSON(b []byte) []byte {
	b = serve.AppendKeyString(b, `{"group":`, r.group)
	b = serve.AppendKeyInt(b, `,"step":`, r.snap.Step)
	b = serve.AppendKeyInt(b, `,"windows_total":`, r.snap.Windows)
	b = serve.AppendKeyFloat(b, `,"energy_j":`, r.snap.EnergyJ)
	switch {
	case r.label == nil:
		if len(r.snap.Recent) > 0 {
			b = appendPoints(append(b, `,"points":`...), r.snap.Recent, 0, r.val)
		}
	case r.groups > 0:
		b = append(b, `,"series":[`...)
		for g := 0; g < r.groups; g++ {
			if g > 0 {
				b = append(b, ',')
			}
			b = serve.AppendKeyInt(b, `{"group":`, int64(g))
			b = serve.AppendKeyString(b, `,"label":`, r.label(g))
			b = append(appendPoints(append(b, `,"points":`...), r.snap.Recent, g, r.val), '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendPoints writes one [{"t","v"}...] list; a series without windows
// is null, as the nil slice it used to be.
func appendPoints(b []byte, ws []RollupWindow, g int, val func(*RollupWindow, int) float64) []byte {
	if len(ws) == 0 {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range ws {
		if i > 0 {
			b = append(b, ',')
		}
		b = serve.AppendKeyInt(b, `{"t":`, ws[i].T)
		b = append(serve.AppendKeyFloat(b, `,"v":`, val(&ws[i], g)), '}')
	}
	return append(b, ']')
}

func (h *handler) rollup(ctx context.Context, q url.Values) (any, error) {
	group := q.Get("group")
	if group == "" {
		group = "fleet"
	}
	limit, err := serve.QueryInt(q, "limit", 360)
	if err != nil {
		return nil, err
	}
	if limit <= 0 || limit > ringDepth {
		limit = ringDepth
	}
	out := &rollupReply{group: group}
	switch group {
	case "fleet":
		out.val = fleetW
	case "cabinet":
		out.val, out.label = cabinetW, cabinetLabel
	case "msb":
		out.val, out.label = msbW, msbLabel
	default:
		return nil, &serve.Error{Status: http.StatusBadRequest,
			Msg: fmt.Sprintf("unknown group %q (fleet, cabinet, msb)", group)}
	}
	out.snap = h.p.RollupSnapshot(int(limit))
	out.groups = out.snap.Cabinets
	if group == "msb" {
		out.groups = out.snap.MSBs
	}
	return out, nil
}

// --- /api/v1/live/edges ---

type apiEdge struct {
	T           int64  `json:"t"`
	Rising      bool   `json:"rising"`
	AmplitudeW  jfloat `json:"amplitude_w"`
	DurationSec int64  `json:"duration_sec"`
}

func (h *handler) edges(ctx context.Context, q url.Values) (any, error) {
	limit, err := serve.QueryInt(q, "limit", 256)
	if err != nil {
		return nil, err
	}
	rising := q.Get("rising")
	if rising != "" && rising != "true" && rising != "false" {
		return nil, &serve.Error{Status: http.StatusBadRequest,
			Msg: fmt.Sprintf("rising=%q is neither true nor false", rising)}
	}
	edges, total, thresh := h.p.EdgesSnapshot(int(limit))
	out := make([]apiEdge, 0, len(edges))
	for _, e := range edges {
		if rising == "true" && !e.Rising || rising == "false" && e.Rising {
			continue
		}
		out = append(out, apiEdge{
			T: e.T, Rising: e.Rising,
			AmplitudeW: jfloat(e.AmplitudeW), DurationSec: e.DurationSec,
		})
	}
	return map[string]any{
		"threshold_w": jfloat(thresh),
		"total":       total,
		"edges":       out,
	}, nil
}

// --- /api/v1/live/bands ---

type apiBand struct {
	Band      int    `json:"band"`
	Label     string `json:"label"`
	GPUs      jfloat `json:"gpus,omitempty"`
	MeanGPUs  jfloat `json:"mean_gpus,omitempty"`
	MaxGPUs   jfloat `json:"max_gpus,omitempty"`
	MeanShare jfloat `json:"mean_share,omitempty"`
}

func (h *handler) bands(ctx context.Context, q url.Values) (any, error) {
	snap := h.p.BandsSnapshot()
	current := make([]apiBand, 0, len(snap.Summary))
	summary := make([]apiBand, 0, len(snap.Summary))
	for _, b := range snap.Summary {
		current = append(current, apiBand{
			Band: b.Band, Label: b.Label, GPUs: jfloat(snap.Current[b.Band]),
		})
		summary = append(summary, apiBand{
			Band: b.Band, Label: b.Label,
			MeanGPUs: jfloat(b.MeanGPUs), MaxGPUs: jfloat(b.MaxGPUs),
			MeanShare: jfloat(b.MeanShare),
		})
	}
	return map[string]any{
		"t":          snap.T,
		"total_gpus": jfloat(snap.TotalGPUs),
		"windows":    snap.Windows,
		"current":    current,
		"summary":    summary,
	}, nil
}

// --- /api/v1/live/earlywarning ---

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

func (h *handler) earlyWarning(ctx context.Context, q url.Values) (any, error) {
	stats := h.p.EarlyWarningSnapshot()
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

// --- /api/v1/live/health ---

// health reports ingest counters and degradation; it is mounted outside
// the limiter and the deadline (serve.Kernel.Unguarded).
func (h *handler) health() serve.Encoder {
	hs := h.p.Health()
	return &hs
}

// AppendJSON writes the health object with its keys in alphabetical order
// (the reply used to be a map): `reasons` is null while healthy and
// `watermark_t` null before any data.
func (hs *HealthState) AppendJSON(b []byte) []byte {
	b = serve.AppendKeyInt(b, `{"channel_windows":`, hs.Ingest.ChannelWindows)
	b = serve.AppendKeyInt(b, `,"dropped":`, hs.Ingest.Dropped)
	b = serve.AppendKeyInt(b, `,"dropped_conns":`, hs.Ingest.DroppedConns)
	b = serve.AppendKeyInt(b, `,"events":`, hs.Ingest.Events)
	b = serve.AppendKeyInt(b, `,"frames":`, hs.Ingest.Frames)
	b = serve.AppendKeyInt(b, `,"last_window_t":`, hs.LastWindowT)
	b = serve.AppendKeyInt(b, `,"late":`, hs.Ingest.Late)
	b = append(b, `,"reasons":`...)
	if hs.Reasons == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, reason := range hs.Reasons {
			if i > 0 {
				b = append(b, ',')
			}
			b = serve.AppendJSONString(b, reason)
		}
		b = append(b, ']')
	}
	b = serve.AppendKeyInt(b, `,"received":`, hs.Ingest.Received)
	b = serve.AppendKeyInt(b, `,"rejected":`, hs.Ingest.Rejected)
	b = append(b, `,"shards":[`...)
	for i, sh := range hs.Shards {
		if i > 0 {
			b = append(b, ',')
		}
		b = serve.AppendKeyInt(b, `{"queue_cap":`, int64(sh.QueueCap))
		b = append(serve.AppendKeyInt(b, `,"queue_len":`, int64(sh.QueueLen)), '}')
	}
	b = serve.AppendKeyString(b, `],"status":`, hs.Status)
	b = append(b, `,"watermark_t":`...)
	if hs.WatermarkT == math.MinInt64 {
		b = append(b, "null"...)
	} else {
		b = strconv.AppendInt(b, hs.WatermarkT, 10)
	}
	return append(b, '}')
}
