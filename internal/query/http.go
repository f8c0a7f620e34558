package query

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/serve"
	"repro/internal/source"
)

// ServerConfig bounds the HTTP serving layer.
type ServerConfig struct {
	// Source, when set, enables the /api/v1/analysis/* routes, serving
	// the paper's analyses over the archive. Leave nil for archives
	// without a cluster dataset; the routes then answer 404. Used by
	// NewHandler only; NewFleetHandler takes per-cluster sources.
	Source source.RunSource
	// Timeout is the per-request deadline (<= 0: 30 s).
	Timeout time.Duration
	// MaxConcurrent bounds in-flight queries; excess requests are shed
	// with 503 (<= 0: 32).
	MaxConcurrent int
	// MaxPoints bounds the points/windows one response may carry
	// (<= 0: 200000). Oversized raw queries get 413 with a hint to set a
	// coarser step.
	MaxPoints int
	// MaxQueryLen bounds the raw query string (<= 0: 8192).
	MaxQueryLen int
}

// Cluster is one fleet member served by the handler: its raw-query engine
// and (optionally) its analysis source, which may be a federated
// coordinator over archive shards.
type Cluster struct {
	// Name selects the cluster via ?cluster=; it must be unique. The empty
	// name is legal only for a single-cluster handler (the pre-fleet API).
	Name string
	// Engine serves the cluster's raw range/rollup/dataset queries.
	Engine *Engine
	// Source serves the cluster's analyses; nil disables them for this
	// cluster (404).
	Source source.RunSource
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 32
	}
	if c.MaxPoints <= 0 {
		c.MaxPoints = 200_000
	}
	if c.MaxQueryLen <= 0 {
		c.MaxQueryLen = 8192
	}
	return c
}

// handler serves the queryd JSON API over one or more clusters.
type handler struct {
	clusters []Cluster
	byName   map[string]*Cluster
	cfg      ServerConfig
	sem      chan struct{}
	memo     *memo
}

// NewHandler returns the single-cluster queryd HTTP API — the pre-fleet
// shape, serving one anonymous cluster:
//
//	GET /api/v1/range       — range/downsample query over one dataset column
//	GET /api/v1/rollup      — per-cabinet / per-MSB / fleet aggregation
//	GET /api/v1/datasets    — archive inventory
//	GET /api/v1/analysis/…  — server-side analyses over the RunSource layer
//	GET /api/v1/clusters    — cluster inventory
//	GET /api/v1/fleet/…     — fleet-wide merges (series, summary)
//	GET /healthz            — liveness
//	GET /debug/vars         — instrumentation counters
//
// Every API route runs under the concurrency limiter, a per-request
// timeout, and the request-size limits of cfg.
func NewHandler(eng *Engine, cfg ServerConfig) http.Handler {
	h, err := newFleetHandler([]Cluster{{Engine: eng, Source: cfg.Source}}, cfg)
	if err != nil {
		// Unreachable: one anonymous cluster always validates.
		panic(err)
	}
	return h
}

// NewFleetHandler returns the multi-cluster queryd HTTP API: the same
// routes as NewHandler, with ?cluster= selecting the member each
// cluster-scoped query addresses and /api/v1/fleet/* merging across all
// members. Cluster names must be unique and (for more than one member)
// non-empty.
func NewFleetHandler(clusters []Cluster, cfg ServerConfig) (http.Handler, error) {
	return newFleetHandler(clusters, cfg)
}

func newFleetHandler(clusters []Cluster, cfg ServerConfig) (http.Handler, error) {
	if len(clusters) == 0 {
		return nil, errors.New("query: handler needs at least one cluster")
	}
	h := &handler{
		clusters: clusters,
		byName:   make(map[string]*Cluster, len(clusters)),
		cfg:      cfg.withDefaults(),
		memo:     newMemo(),
	}
	for i := range clusters {
		c := &h.clusters[i]
		if c.Engine == nil {
			return nil, fmt.Errorf("query: cluster %q has no engine", c.Name)
		}
		if c.Name == "" && len(clusters) > 1 {
			return nil, errors.New("query: fleet members need names")
		}
		if _, dup := h.byName[c.Name]; dup {
			return nil, fmt.Errorf("query: duplicate cluster name %q", c.Name)
		}
		h.byName[c.Name] = c
	}
	h.sem = make(chan struct{}, h.cfg.MaxConcurrent)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/vars", h.vars)
	mux.HandleFunc("/api/v1/datasets", h.guard(h.datasets))
	mux.HandleFunc("/api/v1/range", h.guard(h.rangeQuery))
	mux.HandleFunc("/api/v1/rollup", h.guard(h.rollup))
	mux.HandleFunc("/api/v1/clusters", h.guard(h.clustersRoute))
	mux.HandleFunc("/api/v1/fleet/series", h.guard(h.fleetSeries))
	mux.HandleFunc("/api/v1/fleet/summary", h.guard(h.fleetSummary))
	for name, route := range analysisRoutes {
		mux.HandleFunc("/api/v1/analysis/"+name, h.guard(h.analysis(name, route)))
	}
	return mux, nil
}

// cluster resolves the member a request addresses: ?cluster= when given, or
// the sole member for single-cluster handlers. A multi-cluster handler
// requires the parameter; an unknown name is 404.
func (h *handler) cluster(q url.Values) (*Cluster, error) {
	name := q.Get("cluster")
	if name == "" {
		if len(h.clusters) == 1 {
			return &h.clusters[0], nil
		}
		return nil, &apiError{http.StatusBadRequest, fmt.Sprintf(
			"fleet has %d clusters; pass ?cluster= (see /api/v1/clusters)", len(h.clusters))}
	}
	c, ok := h.byName[name]
	if !ok {
		return nil, &apiError{http.StatusNotFound, fmt.Sprintf("unknown cluster %q", name)}
	}
	return c, nil
}

// metrics returns the serving-tier metrics (shedding, in-flight); they live
// on the first cluster's engine so the single-cluster counters keep their
// historical home.
func (h *handler) metrics() *Metrics { return h.clusters[0].Engine.Metrics() }

type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

// guard wraps an API route with method/size checks, load shedding and the
// per-request timeout. It parses the query string once and hands the route
// the values.
func (h *handler) guard(fn func(ctx context.Context, q url.Values) (any, error)) http.HandlerFunc {
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
			h.metrics().Rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "query concurrency limit reached")
			return
		}
		h.metrics().InFlight.Add(1)
		defer h.metrics().InFlight.Add(-1)
		ctx, cancel := context.WithTimeout(r.Context(), h.cfg.Timeout)
		defer cancel()
		resp, err := fn(ctx, r.URL.Query())
		if err != nil {
			status, msg := errStatus(err)
			writeError(w, status, msg)
			return
		}
		switch r := resp.(type) {
		case replyEncoder:
			h.writeEncoded(w, r)
		case *memoReply:
			r.write(w)
		default:
			writeJSON(w, http.StatusOK, resp)
		}
	}
}

// analysis is the handler of one analysis route: resolve the cluster and
// its source, parse the parameters, count the request, and answer from the
// memo — running the analysis only for the first request of a key.
func (h *handler) analysis(name string, route analysisRoute) func(context.Context, url.Values) (any, error) {
	return func(ctx context.Context, q url.Values) (any, error) {
		cl, err := h.cluster(q)
		if err != nil {
			return nil, err
		}
		if cl.Source == nil {
			return nil, errSourceUnavailable
		}
		params, compute, err := route(q)
		if err != nil {
			return nil, err
		}
		cl.Engine.Metrics().AnalysisQueries.Add(1)
		key := name + "\x00" + cl.Name + "\x00" + params
		return h.memo.do(ctx, key, []*Cluster{cl}, func() (any, error) {
			v, err := compute(cl.Source)
			return v, analysisErr(err)
		})
	}
}

// errStatus maps engine and handler errors to HTTP status codes.
func errStatus(err error) (int, string) {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae.status, ae.msg
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, err.Error()
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest, err.Error()
	case errors.Is(err, ErrTooLarge):
		return http.StatusRequestEntityTooLarge, err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "query deadline exceeded"
	default:
		return http.StatusInternalServerError, err.Error()
	}
}

func (h *handler) vars(w http.ResponseWriter, r *http.Request) {
	// Top-level shape is the historical single-cluster snapshot (first
	// cluster); the fleet view nests one entry per member under "clusters",
	// including the federation fan-out counters and per-shard cache
	// occupancy when the cluster's source is a federated coordinator.
	primary := h.clusters[0].Engine
	snap := primary.Metrics().Snapshot()
	entries, bytes := primary.CacheStats()
	cache := snap["cache"].(map[string]int64)
	cache["entries"] = int64(entries)
	cache["bytes"] = bytes
	cache["max_bytes"] = primary.CacheBytesMax()
	// The store-level counters cover every consumer of the shared cache
	// (the analysis source layer included), where the engine's own
	// hits/misses count only its queries.
	sc := primary.Cache().Counters()
	cache["store_hits"] = sc.Hits
	cache["store_misses"] = sc.Misses
	cache["store_evictions"] = sc.Evictions
	perCluster := make(map[string]any, len(h.clusters))
	for i := range h.clusters {
		c := &h.clusters[i]
		ce, cb := c.Engine.CacheStats()
		entry := map[string]any{
			"cache": map[string]int64{
				"entries":   int64(ce),
				"bytes":     cb,
				"max_bytes": c.Engine.CacheBytesMax(),
			},
		}
		if fed, ok := c.Source.(*source.FederatedSource); ok {
			entry["federation"] = fed.Stats()
		}
		perCluster[c.Name] = entry
	}
	snap["clusters"] = perCluster
	snap["analysis_memo"] = h.memo.snapshot()
	writeJSON(w, http.StatusOK, snap)
}

// --- /api/v1/datasets ---

type apiDataset struct {
	Name    string   `json:"name"`
	Days    int      `json:"days"`
	Rows    int64    `json:"rows"`
	MinTime *int64   `json:"min_time"`
	MaxTime *int64   `json:"max_time"`
	Columns []string `json:"columns"`
}

func (h *handler) datasets(ctx context.Context, q url.Values) (any, error) {
	cl, err := h.cluster(q)
	if err != nil {
		return nil, err
	}
	infos, err := cl.Engine.Datasets()
	if err != nil {
		return nil, err
	}
	out := make([]apiDataset, len(infos))
	for i, info := range infos {
		out[i] = apiDataset{
			Name: info.Name, Days: info.Days, Rows: info.Rows, Columns: info.Columns,
		}
		if info.HasTime {
			minT, maxT := info.MinTime, info.MaxTime
			out[i].MinTime, out[i].MaxTime = &minT, &maxT
		}
	}
	return map[string]any{"datasets": out}, nil
}

// --- /api/v1/range ---

// jfloat marshals NaN/Inf (legal in the archive, illegal in JSON) as null.
// It backs the float fields of the reflection-encoded replies (analyses,
// fleet merges); range and rollup replies use the same formatter directly.
type jfloat = serve.Float

func (h *handler) rangeQuery(ctx context.Context, q url.Values) (any, error) {
	req := RangeRequest{
		Dataset: q.Get("dataset"),
		Column:  q.Get("column"),
		Limit:   h.cfg.MaxPoints,
	}
	var err error
	if req.Node, err = qInt(q.Get("node"), -1); err != nil {
		return nil, err
	}
	if req.T0, req.T1, req.Step, err = h.qSpan(q, 0); err != nil {
		return nil, err
	}
	cl, err := h.cluster(q)
	if err != nil {
		return nil, err
	}
	return cl.Engine.Range(ctx, req)
}

// qSpan parses t0, t1 and step, and rejects a windowed query whose
// span/step implies more windows than the point budget before any partition
// is touched.
func (h *handler) qSpan(q url.Values, defStep int64) (t0, t1, step int64, err error) {
	if t0, err = qInt(q.Get("t0"), 0); err != nil {
		return
	}
	if t1, err = qInt(q.Get("t1"), math.MaxInt64); err != nil {
		return
	}
	if step, err = qInt(q.Get("step"), defStep); err != nil {
		return
	}
	if t1 > t0 && step > 0 { // anything else is refused downstream
		if windows := (t1 - t0 + step - 1) / step; windows > int64(h.cfg.MaxPoints) {
			err = fmt.Errorf("query: span/step implies %d windows, budget is %d: %w",
				windows, h.cfg.MaxPoints, ErrTooLarge)
		}
	}
	return
}

// --- /api/v1/rollup ---

func (h *handler) rollup(ctx context.Context, q url.Values) (any, error) {
	req := RollupRequest{
		Dataset: q.Get("dataset"),
		Column:  q.Get("column"),
		Group:   GroupBy(q.Get("group")),
		Limit:   h.cfg.MaxPoints,
	}
	if req.Group == "" {
		req.Group = GroupCabinet
	}
	var err error
	if req.T0, req.T1, req.Step, err = h.qSpan(q, 600); err != nil {
		return nil, err
	}
	cl, err := h.cluster(q)
	if err != nil {
		return nil, err
	}
	return cl.Engine.Rollup(ctx, req)
}

// --- helpers ---

// qInt parses an optional integer query parameter.
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

// marshalReply encodes v into the pooled buffer bp the way every
// reflection-encoded reply always was: encoding/json, HTML escaping off, a
// trailing newline.
func marshalReply(bp *[]byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer((*bp)[:0])
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// writeJSON encodes v in full before committing the status, so a value that
// does not encode is a 500 with an error body, not a truncated 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	bp := replyBufs.Get().(*[]byte)
	b, err := marshalReply(bp, v)
	if err != nil {
		putReplyBuf(bp, b)
		writeError(w, http.StatusInternalServerError, "encoding reply: "+err.Error())
		return
	}
	writeBody(w, status, b)
	putReplyBuf(bp, b)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
