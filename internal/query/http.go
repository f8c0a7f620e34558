package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/serve"
	"repro/internal/source"
	"repro/internal/store"
)

// DefaultTimeout is the per-request deadline queryd serves with.
const DefaultTimeout = 30 * time.Second

// ServerConfig bounds the HTTP serving layer. The raw query string is
// bounded by serve.MaxQueryLen. queryd serves with the zero value: every
// bound at its default.
type ServerConfig struct {
	// Timeout is the per-request deadline (<= 0: DefaultTimeout).
	Timeout time.Duration
	// MaxConcurrent bounds in-flight queries; excess requests are shed
	// with 503 (<= 0: 32).
	MaxConcurrent int
	// MaxPoints bounds the points/windows one response may carry
	// (<= 0: 200000). Oversized raw queries get 413 with a hint to set a
	// coarser step.
	MaxPoints int
}

// Cluster is one fleet member served by the handler: its raw-query engine
// and its analysis source.
type Cluster struct {
	// Name selects the cluster via ?cluster=; it must be unique. The empty
	// name is legal only for a single-cluster handler (the pre-fleet API).
	Name string
	// Engine serves the cluster's raw range/rollup/dataset queries.
	Engine *Engine
	// Source serves the cluster's analyses and its run dimensions.
	Source source.RunSource
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.MaxPoints <= 0 {
		c.MaxPoints = 200_000
	}
	return c
}

// handler serves the queryd JSON API over one or more clusters: the routes
// on its mux, each behind the kernel's guard.
type handler struct {
	*http.ServeMux
	clusters []Cluster
	byName   map[string]*Cluster
	cfg      ServerConfig
	kernel   *serve.Kernel
	cache    *serve.ReplyCache
}

// NewFleetHandler returns the queryd HTTP API over one or more clusters:
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
// ?cluster= selects the member a cluster-scoped query addresses and
// /api/v1/fleet/* merges across all members. Cluster names must be unique
// and non-empty; a single cluster may be anonymous (the pre-fleet API, where
// ?cluster= is optional). Every API route runs under the serving kernel's
// guard: the concurrency limiter and per-request timeout of cfg, and the
// request-size limit. Every API route is a pure function of the parsed
// request over an archive frozen at open, and is answered from one
// encoded-reply cache (serve.ReplyCache).
func NewFleetHandler(clusters []Cluster, cfg ServerConfig) (http.Handler, error) {
	if len(clusters) == 0 {
		return nil, errors.New("query: handler needs at least one cluster")
	}
	cfg = cfg.withDefaults()
	h := &handler{
		ServeMux: http.NewServeMux(),
		clusters: clusters,
		byName:   make(map[string]*Cluster, len(clusters)),
		cfg:      cfg,
		kernel:   serve.NewKernel(cfg.Timeout, cfg.MaxConcurrent, sentinelStatus),
		cache:    serve.NewReplyCache(),
	}
	for i := range clusters {
		c := &h.clusters[i]
		if c.Engine == nil {
			return nil, fmt.Errorf("query: cluster %q has no engine", c.Name)
		}
		if c.Source == nil {
			return nil, fmt.Errorf("query: cluster %q has no source", c.Name)
		}
		if c.Name == "" && len(clusters) > 1 {
			return nil, errors.New("query: fleet members need names")
		}
		if _, dup := h.byName[c.Name]; dup {
			return nil, fmt.Errorf("query: duplicate cluster name %q", c.Name)
		}
		h.byName[c.Name] = c
	}
	h.HandleFunc("/healthz", serve.Healthz)
	h.HandleFunc("/debug/vars", h.vars)
	cached := func(name string, route serve.PureRoute) {
		h.HandleFunc("/api/v1/"+name, h.kernel.GuardCached(name, h.cache, route))
	}
	cached("clusters", h.clustersRoute)
	cached("datasets", h.datasets)
	cached("range", h.rangeQuery)
	cached("rollup", h.rollup)
	cached("fleet/series", h.fleetSeries)
	cached("fleet/summary", h.fleetSummary)
	for name, route := range analysisRoutes {
		cached("analysis/"+name, h.analysis(route))
	}
	return h, nil
}

// requestKey builds a pure route's cache key from the fields of the parsed
// request, NUL-separated. Only an answer is ever stored, and the names an
// archive answers to — clusters, datasets, columns — hold no NUL, so two
// requests share a key only if they parsed to the same fields.
type requestKey []byte

func (k requestKey) str(s string) requestKey { return append(append(k, s...), 0) }
func (k requestKey) int(v int64) requestKey  { return append(strconv.AppendInt(k, v, 10), 0) }

// cluster resolves the member a request addresses: ?cluster= when given, or
// the sole member for single-cluster handlers. A multi-cluster handler
// requires the parameter; an unknown name is 404.
func (h *handler) cluster(q url.Values) (*Cluster, error) {
	name := q.Get("cluster")
	if name == "" {
		if len(h.clusters) == 1 {
			return &h.clusters[0], nil
		}
		return nil, &serve.Error{Status: http.StatusBadRequest, Msg: fmt.Sprintf(
			"fleet has %d clusters; pass ?cluster= (see /api/v1/clusters)", len(h.clusters))}
	}
	c, ok := h.byName[name]
	if !ok {
		return nil, &serve.Error{Status: http.StatusNotFound, Msg: fmt.Sprintf("unknown cluster %q", name)}
	}
	return c, nil
}

// metrics is where the fleet-wide routes are counted: on the first
// cluster's engine, whose counters are the top level of /debug/vars.
func (h *handler) metrics() *Metrics { return h.clusters[0].Engine.Metrics() }

// analysis is the handler of one analysis route: resolve the cluster and
// its source and parse the parameters; the key is the cluster and what the
// parameters amount to.
func (h *handler) analysis(route analysisRoute) serve.PureRoute {
	return func(q url.Values) (string, serve.Compute, error) {
		cl, err := h.cluster(q)
		if err != nil {
			return "", nil, err
		}
		params, compute, err := route(q)
		if err != nil {
			return "", nil, err
		}
		key := requestKey(nil).str(cl.Name).str(params)
		return string(key), func(context.Context) (any, error) {
			cl.Engine.Metrics().AnalysisQueries.Add(1)
			v, err := compute(cl.Source)
			return v, analysisErr(err)
		}, nil
	}
}

// sentinelStatus is the kernel's hook for the engine's sentinel errors.
func sentinelStatus(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	}
	return 0
}

func (h *handler) vars(w http.ResponseWriter, r *http.Request) {
	// Top-level shape is the historical single-cluster snapshot (first
	// cluster) with the serving kernel's counters under the keys dashboards
	// read them from; the fleet view nests one entry per member, its cache
	// occupancy, under "clusters".
	primary := h.clusters[0].Engine
	snap := primary.Metrics().Snapshot()
	queries := snap["queries"].(map[string]int64)
	queries["rejected"] = h.kernel.Rejected.Load()
	queries["inflight"] = h.kernel.InFlight.Load()
	snap["encode_ns"] = h.kernel.EncodeLatency.Snapshot()
	snap["routes"] = h.kernel.RouteLatencies()
	tables := primary.src.Cache()
	entries, bytes := tables.Stats()
	cache := snap["cache"].(map[string]int64)
	cache["entries"] = int64(entries)
	cache["bytes"] = bytes
	cache["max_bytes"] = tables.Max()
	// The store-level counters cover every consumer of the shared cache
	// (the analysis source layer included), where the engine's own
	// hits/misses count only its queries.
	sc := tables.Counters()
	cache["store_hits"] = sc.Hits
	cache["store_misses"] = sc.Misses
	cache["store_evictions"] = sc.Evictions
	perCluster := make(map[string]any, len(h.clusters))
	for i := range h.clusters {
		c := &h.clusters[i]
		tables := c.Engine.src.Cache()
		ce, cb := tables.Stats()
		perCluster[c.Name] = map[string]any{
			"cache": map[string]int64{
				"entries":   int64(ce),
				"bytes":     cb,
				"max_bytes": tables.Max(),
			},
		}
	}
	snap["clusters"] = perCluster
	snap["reply_cache"] = h.cache.Snapshot()
	// How partitions have been read, process-wide: how many were indexed
	// from their directories, and how many column members were stepped over
	// or read to their checksum.
	st := store.Stats()
	snap["store"] = map[string]int64{
		"partitions_indexed": st.PartitionsIndexed,
		"members_skipped":    st.MembersSkipped,
		"members_verified":   st.MembersVerified,
	}
	serve.WriteJSON(w, http.StatusOK, snap)
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

func (h *handler) datasets(q url.Values) (string, serve.Compute, error) {
	cl, err := h.cluster(q)
	if err != nil {
		return "", nil, err
	}
	return cl.Name, func(context.Context) (any, error) { return datasetsReply(cl.Engine) }, nil
}

func datasetsReply(e *Engine) (any, error) {
	infos, err := e.Datasets()
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

func (h *handler) rangeQuery(q url.Values) (string, serve.Compute, error) {
	req := RangeRequest{
		Dataset: q.Get("dataset"),
		Column:  q.Get("column"),
		Limit:   h.cfg.MaxPoints,
	}
	var err error
	if req.Node, err = serve.QueryInt(q, "node", -1); err != nil {
		return "", nil, err
	}
	if req.T0, req.T1, req.Step, err = h.qSpan(q, 0); err != nil {
		return "", nil, err
	}
	cl, err := h.cluster(q)
	if err != nil {
		return "", nil, err
	}
	key := requestKey(nil).str(cl.Name).str(req.Dataset).str(req.Column).
		int(req.Node).int(req.T0).int(req.T1).int(req.Step)
	return string(key), func(ctx context.Context) (any, error) { return cl.Engine.Range(ctx, req) }, nil
}

// qSpan parses t0, t1 and step, and rejects a windowed query whose
// span/step implies more windows than the point budget before any partition
// is touched.
func (h *handler) qSpan(q url.Values, defStep int64) (t0, t1, step int64, err error) {
	if t0, err = serve.QueryInt(q, "t0", 0); err != nil {
		return
	}
	if t1, err = serve.QueryInt(q, "t1", math.MaxInt64); err != nil {
		return
	}
	if step, err = serve.QueryInt(q, "step", defStep); err != nil {
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

func (h *handler) rollup(q url.Values) (string, serve.Compute, error) {
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
		return "", nil, err
	}
	cl, err := h.cluster(q)
	if err != nil {
		return "", nil, err
	}
	key := requestKey(nil).str(cl.Name).str(req.Dataset).str(req.Column).str(string(req.Group)).
		int(req.T0).int(req.T1).int(req.Step)
	return string(key), func(ctx context.Context) (any, error) { return cl.Engine.Rollup(ctx, req) }, nil
}
