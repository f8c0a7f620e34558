package query

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/serve"
	"repro/internal/source"
	"repro/internal/tsagg"
	"repro/internal/units"
)

// The fleet routes are an inventory of the member clusters and merges
// across them. Merges walk the members in handler order (the fleet
// manifest's order), so a fleet-wide answer is deterministic for a given
// member list.

type apiClusterInfo struct {
	Name      string `json:"name"`
	Site      string `json:"site,omitempty"`
	Nodes     int    `json:"nodes"`
	StartTime int64  `json:"start_time"`
	StepSec   int64  `json:"step_sec"`
	Windows   int    `json:"windows"`
}

// clustersRoute answers the inventory, which reads nothing from the request:
// its key is empty.
func (h *handler) clustersRoute(url.Values) (string, serve.Compute, error) {
	return "", func(context.Context) (any, error) { return h.clustersReply() }, nil
}

func (h *handler) clustersReply() (any, error) {
	out := make([]apiClusterInfo, 0, len(h.clusters))
	for i := range h.clusters {
		c := &h.clusters[i]
		meta, err := c.Source.Meta()
		if err != nil {
			return nil, analysisErr(err)
		}
		out = append(out, apiClusterInfo{
			Name: c.Name, Site: meta.Site, Nodes: meta.Nodes,
			StartTime: meta.StartTime, StepSec: meta.StepSec, Windows: meta.Windows,
		})
	}
	return map[string]any{"clusters": out}, nil
}

// fleetMembers resolves the members a fleet merge addresses: all clusters,
// or the comma-separated ?clusters= subset, in handler order.
func (h *handler) fleetMembers(q url.Values) ([]*Cluster, error) {
	want := map[string]bool{}
	if arg := q.Get("clusters"); arg != "" {
		for _, name := range strings.Split(arg, ",") {
			c, ok := h.byName[name]
			if !ok {
				return nil, &serve.Error{Status: http.StatusNotFound, Msg: fmt.Sprintf("unknown cluster %q", name)}
			}
			want[c.Name] = true
		}
	}
	var out []*Cluster
	for i := range h.clusters {
		c := &h.clusters[i]
		if len(want) > 0 && !want[c.Name] {
			continue
		}
		out = append(out, c)
	}
	return out, nil
}

type apiPoint struct {
	T int64  `json:"t"`
	V jfloat `json:"v"`
}

type apiFleetSeries struct {
	Name     string     `json:"name"`
	Clusters []string   `json:"clusters"`
	Start    int64      `json:"start"`
	Step     int64      `json:"step"`
	Points   []apiPoint `json:"points"`
}

// fleetSeries merges one named series across the fleet by summation:
// ?name=sum_inp[&clusters=a,b].
func (h *handler) fleetSeries(q url.Values) (string, serve.Compute, error) {
	name := q.Get("name")
	if name == "" {
		return "", nil, &serve.Error{Status: http.StatusBadRequest, Msg: "missing series name (?name=)"}
	}
	members, err := h.fleetMembers(q)
	if err != nil {
		return "", nil, err
	}
	return requestKey(nil).str(name).members(members), func(context.Context) (any, error) {
		return h.fleetSeriesReply(name, members)
	}, nil
}

// members closes a fleet merge's cache key with the members it resolved to,
// in handler order: ?clusters=a,b and ?clusters=b,a are one request.
func (k requestKey) members(members []*Cluster) string {
	for _, c := range members {
		k = k.str(c.Name)
	}
	return string(k)
}

func (h *handler) fleetSeriesReply(name string, members []*Cluster) (any, error) {
	h.metrics().AnalysisQueries.Add(1)
	series := make([]*tsagg.Series, len(members))
	names := make([]string, len(members))
	for i, c := range members {
		s, err := c.Source.Series(name)
		if err != nil {
			return nil, analysisErr(fmt.Errorf("cluster %s: %w", c.Name, err))
		}
		series[i] = s
		names[i] = c.Name
	}
	merged, err := source.SumSeries(series)
	if err != nil {
		return nil, &serve.Error{Status: http.StatusConflict, Msg: err.Error()}
	}
	if len(merged.Vals) > h.cfg.MaxPoints {
		return nil, fmt.Errorf("query: fleet series carries %d points, budget is %d: %w",
			len(merged.Vals), h.cfg.MaxPoints, ErrTooLarge)
	}
	out := &apiFleetSeries{
		Name: name, Clusters: names,
		Start: merged.Start, Step: merged.Step,
		Points: make([]apiPoint, len(merged.Vals)),
	}
	for i, v := range merged.Vals {
		out.Points[i] = apiPoint{T: merged.Start + int64(i)*merged.Step, V: jfloat(v)}
	}
	return out, nil
}

type apiFleetClusterSummary struct {
	Cluster    string `json:"cluster"`
	Site       string `json:"site,omitempty"`
	Nodes      int    `json:"nodes"`
	Windows    int    `json:"windows"`
	MeanPowerW jfloat `json:"mean_power_w"`
	MaxPowerW  jfloat `json:"max_power_w"`
	EnergyMWh  jfloat `json:"energy_mwh"`
}

// fleetSummary reduces every member's cluster-power series and the merged
// fleet series to headline numbers: the multi-cluster counterpart of
// /api/v1/analysis/summary, cached per member set.
func (h *handler) fleetSummary(q url.Values) (string, serve.Compute, error) {
	members, err := h.fleetMembers(q)
	if err != nil {
		return "", nil, err
	}
	return requestKey(nil).members(members), func(context.Context) (any, error) {
		h.metrics().AnalysisQueries.Add(1)
		return fleetSummaryReply(members)
	}, nil
}

func fleetSummaryReply(members []*Cluster) (any, error) {
	rows := make([]apiFleetClusterSummary, len(members))
	series := make([]*tsagg.Series, len(members))
	totalNodes := 0
	for i, c := range members {
		meta, err := c.Source.Meta()
		if err != nil {
			return nil, analysisErr(err)
		}
		s, err := c.Source.Series(source.SeriesClusterPower)
		if err != nil {
			return nil, analysisErr(fmt.Errorf("cluster %s: %w", c.Name, err))
		}
		series[i] = s
		totalNodes += meta.Nodes
		mean, peak, energy := reducePower(s)
		rows[i] = apiFleetClusterSummary{
			Cluster: c.Name, Site: meta.Site, Nodes: meta.Nodes, Windows: meta.Windows,
			MeanPowerW: jfloat(mean), MaxPowerW: jfloat(peak), EnergyMWh: jfloat(energy),
		}
	}
	merged, err := source.SumSeries(series)
	if err != nil {
		return nil, &serve.Error{Status: http.StatusConflict, Msg: err.Error()}
	}
	mean, peak, energy := reducePower(merged)
	return map[string]any{
		"clusters": rows,
		"fleet": map[string]any{
			"clusters":     len(rows),
			"nodes":        totalNodes,
			"mean_power_w": jfloat(mean),
			// The merged peak is the coincident fleet peak — smaller than
			// the sum of per-cluster peaks unless the members peak together.
			"max_power_w": jfloat(peak),
			"energy_mwh":  jfloat(energy),
		},
	}, nil
}

// reducePower reduces a power series (W) to mean, max and energy in MWh
// over the non-NaN windows.
func reducePower(s *tsagg.Series) (mean, peak, energyMWh float64) {
	sum, n := 0.0, 0
	peak = math.NaN()
	for _, v := range s.Vals {
		if math.IsNaN(v) {
			continue
		}
		sum += v
		n++
		if math.IsNaN(peak) || v > peak {
			peak = v
		}
	}
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	mean = sum / float64(n)
	energyMWh = sum * float64(s.Step) / units.JoulesPerMWh
	return mean, peak, energyMWh
}
