package source

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/tsagg"
)

// FleetManifestName is the manifest file a multi-cluster run writes at the
// fleet root so tooling can discover the member clusters.
const FleetManifestName = "fleet.json"

// FleetEntry describes one member cluster of a fleet: its identity, the
// preset it instantiates, and its archive directory relative to the fleet
// root.
type FleetEntry struct {
	Name  string `json:"name"`
	Site  string `json:"site,omitempty"`
	Nodes int    `json:"nodes,omitempty"`
	Dir   string `json:"dir"`
}

// Path resolves the entry's archive directory against the fleet root.
func (e FleetEntry) Path(root string) string {
	if filepath.IsAbs(e.Dir) {
		return e.Dir
	}
	return filepath.Join(root, e.Dir)
}

// FleetManifest is the fleet.json document: the member clusters in the
// order they were simulated (fleet-wide merges run in this order, so it is
// part of the deterministic contract).
type FleetManifest struct {
	Clusters []FleetEntry `json:"clusters"`
}

// WriteFleetManifest writes fleet.json at the fleet root.
func WriteFleetManifest(root string, m FleetManifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, FleetManifestName), append(b, '\n'), 0o644)
}

// ErrNotFleet marks a root without a fleet.json: a single archive.
var ErrNotFleet = errors.New("source: not a fleet directory")

// DiscoverFleet reads root's fleet.json, a fleet's only declaration. A root
// without one returns ErrNotFleet; a manifest that does not parse, lists no
// cluster, or names a cluster "" or twice is an error naming the file.
func DiscoverFleet(root string) (FleetManifest, error) {
	path := filepath.Join(root, FleetManifestName)
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return FleetManifest{}, fmt.Errorf("%w: %s has no %s", ErrNotFleet, root, FleetManifestName)
	}
	if err != nil {
		return FleetManifest{}, err
	}
	var m FleetManifest
	if err := json.Unmarshal(b, &m); err != nil {
		return FleetManifest{}, fmt.Errorf("source: parse %s: %w", path, err)
	}
	if len(m.Clusters) == 0 {
		return FleetManifest{}, fmt.Errorf("source: %s lists no clusters", path)
	}
	seen := make(map[string]bool, len(m.Clusters))
	for i, e := range m.Clusters {
		switch {
		case e.Name == "":
			return FleetManifest{}, fmt.Errorf("source: %s: cluster %d has no name", path, i)
		case seen[e.Name]:
			return FleetManifest{}, fmt.Errorf("source: %s names cluster %q twice", path, e.Name)
		}
		seen[e.Name] = true
	}
	return m, nil
}

// SumSeries merges per-cluster series into one fleet-wide series by
// index-aligned summation in slice order (callers pass a deterministic
// order — fleet manifests are already ordered). All inputs must share one
// step; starts may differ, the result spans the union. A window missing
// (NaN) in an input is treated as no contribution; a window missing in
// every input stays NaN.
func SumSeries(series []*tsagg.Series) (*tsagg.Series, error) {
	var in []*tsagg.Series
	for _, s := range series {
		if s != nil && len(s.Vals) > 0 {
			in = append(in, s)
		}
	}
	if len(in) == 0 {
		return nil, errors.New("source: no series to merge")
	}
	step := in[0].Step
	start := in[0].Start
	var end int64
	for _, s := range in {
		if s.Step != step {
			return nil, fmt.Errorf("source: cannot merge series with steps %d and %d", step, s.Step)
		}
		if (s.Start-start)%step != 0 {
			return nil, fmt.Errorf("source: series grids misaligned (starts %d and %d, step %d)",
				start, s.Start, step)
		}
		if s.Start < start {
			start = s.Start
		}
		if e := s.Start + int64(len(s.Vals))*step; e > end {
			end = e
		}
	}
	out := tsagg.NewSeries(start, step, int((end-start)/step))
	counts := make([]int, len(out.Vals))
	for _, s := range in {
		off := int((s.Start - start) / step)
		for i, v := range s.Vals {
			if v != v { // NaN: no contribution
				continue
			}
			idx := off + i
			if counts[idx] == 0 {
				out.Vals[idx] = v
			} else {
				out.Vals[idx] += v
			}
			counts[idx]++
		}
	}
	return out, nil
}
