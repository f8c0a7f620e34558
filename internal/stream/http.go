package stream

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/topology"
)

// ServeConfig bounds the live HTTP serving layer, mirroring the queryd
// discipline: GET-only routes behind a concurrency limiter, a per-request
// deadline, and request-size limits. Health stays outside the limiter so
// an overloaded service can still report that it is overloaded.
type ServeConfig struct {
	// Timeout is the per-request deadline (<= 0: 10 s).
	Timeout time.Duration
	// MaxConcurrent bounds in-flight requests; excess requests are shed
	// with 503 (<= 0: 32).
	MaxConcurrent int
	// MaxWindows bounds the windows one rollup response may carry
	// (<= 0: 4096).
	MaxWindows int
	// MaxQueryLen bounds the raw query string (<= 0: 4096).
	MaxQueryLen int
}

func (c ServeConfig) withDefaults() ServeConfig {
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 32
	}
	if c.MaxWindows <= 0 {
		c.MaxWindows = 4096
	}
	if c.MaxQueryLen <= 0 {
		c.MaxQueryLen = 4096
	}
	return c
}

// handler serves the live JSON API over a Pipeline.
type handler struct {
	p   *Pipeline
	cfg ServeConfig
	sem chan struct{}
}

// NewHandler returns the streamd HTTP API:
//
//	GET /api/v1/live/rollup        — fleet/cabinet/MSB power windows
//	GET /api/v1/live/edges         — detected power edges
//	GET /api/v1/live/bands         — thermal-band histogram + occupancy
//	GET /api/v1/live/earlywarning  — precursor→outcome lift statistics
//	GET /api/v1/live/health        — ingest counters, watermark, degradation
//	GET /healthz                   — liveness
//
// API routes run under the concurrency limiter and per-request timeout of
// cfg; the health routes bypass both.
func NewHandler(p *Pipeline, cfg ServeConfig) http.Handler {
	h := &handler{p: p, cfg: cfg.withDefaults()}
	h.sem = make(chan struct{}, h.cfg.MaxConcurrent)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/api/v1/live/health", h.health)
	mux.HandleFunc("/api/v1/live/rollup", h.guard(h.rollup))
	mux.HandleFunc("/api/v1/live/edges", h.guard(h.edges))
	mux.HandleFunc("/api/v1/live/bands", h.guard(h.bands))
	mux.HandleFunc("/api/v1/live/earlywarning", h.guard(h.earlyWarning))
	return mux
}

type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

// guard wraps an API route with method/size checks, load shedding and the
// per-request timeout.
func (h *handler) guard(fn func(ctx context.Context, r *http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		if len(r.URL.RawQuery) > h.cfg.MaxQueryLen {
			writeError(w, http.StatusRequestURITooLong,
				fmt.Sprintf("query string over %d bytes", h.cfg.MaxQueryLen))
			return
		}
		select {
		case h.sem <- struct{}{}:
			defer func() { <-h.sem }()
		default:
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "live query concurrency limit reached")
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), h.cfg.Timeout)
		defer cancel()
		resp, err := fn(ctx, r)
		if err != nil {
			status, msg := errStatus(err)
			writeError(w, status, msg)
			return
		}
		if enc, ok := resp.(replyEncoder); ok {
			writeEncoded(w, enc)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

func errStatus(err error) (int, string) {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae.status, ae.msg
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "live query deadline exceeded"
	default:
		return http.StatusInternalServerError, err.Error()
	}
}

// jfloat marshals NaN/Inf (legal in the pipeline, illegal in JSON) as
// null. It backs the float fields of the reflection-encoded replies; the
// rollup and health replies use the same formatter directly.
type jfloat = serve.Float

// replyEncoder is a reply that appends itself to a buffer without
// reflection, byte for byte what encoding/json (SetEscapeHTML(false))
// produced for the reply value it replaced. The two polled routes — rollup
// and health — answer this way; the others stay on encoding/json.
type replyEncoder interface {
	appendJSON(b []byte) []byte
}

// replyBufs recycles reply buffers; maxPooledReply keeps a rare multi-MB
// rollup from pinning its buffer in the pool.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledReply = 1 << 20

// writeEncoded builds the whole body in a pooled buffer, so it goes out
// with Content-Length in one Write.
func writeEncoded(w http.ResponseWriter, r replyEncoder) {
	bp := replyBufs.Get().(*[]byte)
	b := append(r.appendJSON((*bp)[:0]), '\n')
	hd := w.Header()
	hd.Set("Content-Type", "application/json")
	hd.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledReply {
		*bp = b
		replyBufs.Put(bp)
	}
}

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

// appendJSON writes {"group","step","windows_total","energy_j"} and then
// `points` or `series`, each omitted when empty.
func (r *rollupReply) appendJSON(b []byte) []byte {
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

func (h *handler) rollup(ctx context.Context, r *http.Request) (any, error) {
	q := r.URL.Query()
	group := q.Get("group")
	if group == "" {
		group = "fleet"
	}
	limit, err := qInt(q.Get("limit"), 360)
	if err != nil {
		return nil, err
	}
	if limit <= 0 || limit > int64(h.cfg.MaxWindows) {
		limit = int64(h.cfg.MaxWindows)
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
		return nil, &apiError{http.StatusBadRequest,
			fmt.Sprintf("unknown group %q (fleet, cabinet, msb)", group)}
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

func (h *handler) edges(ctx context.Context, r *http.Request) (any, error) {
	q := r.URL.Query()
	limit, err := qInt(q.Get("limit"), 256)
	if err != nil {
		return nil, err
	}
	edges, total, thresh := h.p.EdgesSnapshot(int(limit))
	rising := q.Get("rising")
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

func (h *handler) bands(ctx context.Context, r *http.Request) (any, error) {
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

func (h *handler) earlyWarning(ctx context.Context, r *http.Request) (any, error) {
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

// health reports ingest counters and degradation without the limiter or
// deadline: the route must answer precisely when the service is swamped.
func (h *handler) health(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	hs := h.p.Health()
	writeEncoded(w, &hs)
}

// appendJSON writes the health object with its keys in alphabetical order
// (the reply used to be a map): `reasons` is null while healthy and
// `watermark_t` null before any data.
func (hs *HealthState) appendJSON(b []byte) []byte {
	b = serve.AppendKeyInt(b, `{"channel_windows":`, hs.Ingest.ChannelWindows)
	b = serve.AppendKeyInt(b, `,"dropped":`, hs.Ingest.Dropped)
	b = serve.AppendKeyInt(b, `,"events":`, hs.Ingest.Events)
	b = serve.AppendKeyInt(b, `,"frames":`, hs.Ingest.Frames)
	b = serve.AppendKeyInt(b, `,"last_window_t":`, hs.LastWindowT)
	b = serve.AppendKeyInt(b, `,"late":`, hs.Ingest.Late)
	b = serve.AppendKeyInt(b, `,"merge_late":`, hs.Ingest.MergeLate)
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

// --- helpers ---

func qInt(s string, def int64) (int64, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, &apiError{http.StatusBadRequest, fmt.Sprintf("bad integer %q", s)}
	}
	return v, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
