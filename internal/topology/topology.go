// Package topology models the physical layout of the Summit compute floor:
// cabinets of 18 nodes, the main switchboard (MSB) power feeds, and the
// serial water-cooling order inside a node.
//
// The layout is configurable so the same analysis code runs on the full
// 4,626-node floor and on the scaled-down systems used by tests.
package topology

import (
	"fmt"

	"repro/internal/units"
)

// NodeID identifies a compute node by its dense index in [0, Nodes).
type NodeID int

// GPUSlot is the physical GPU position within a node, 0–5. Slots 0–2 share
// the water loop with CPU 0, slots 3–5 with CPU 1. Water visits the CPU cold
// plate first, then its three GPUs in slot order ("second-hand" cooling).
type GPUSlot int

// CPUSocket is the physical CPU position within a node, 0 or 1.
type CPUSocket int

// MSB identifies one of the main switchboards feeding the floor.
type MSB int

// MSB labels follow the paper's Figure 4 (MSB A..E).
func (m MSB) String() string { return "MSB " + string(rune('A'+int(m))) }

// Cooling names the facility cooling architecture of a site. The floor
// geometry itself is cooling-agnostic; the value is carried so the facility
// model can pick the matching plant profile.
type Cooling string

// Cooling architectures.
const (
	// CoolingHybridAirWater is Summit's plant: medium-temperature water to
	// the cold plates plus rear-door air exchange. The zero value resolves
	// here, so pre-existing configs keep their behavior.
	CoolingHybridAirWater Cooling = "hybrid-air-water"
	// CoolingDirectLiquid is the Frontier-class architecture: warm-water
	// direct liquid cooling with no mechanical-chiller dependence in the
	// nominal regime.
	CoolingDirectLiquid Cooling = "direct-liquid"
)

// Config sizes a floor layout.
type Config struct {
	Name            string  // site preset name ("" = unnamed custom floor)
	Nodes           int     // total compute nodes
	NodesPerCabinet int     // nodes per cabinet (Summit: 18)
	MSBs            int     // number of main switchboards
	Cooling         Cooling // facility cooling architecture ("" = hybrid)
}

// SummitConfig returns the full-scale Summit floor configuration.
func SummitConfig() Config {
	return Config{
		Name:            SiteSummit,
		Nodes:           units.SummitNodes,
		NodesPerCabinet: units.NodesPerCabinet,
		MSBs:            5,
		Cooling:         CoolingHybridAirWater,
	}
}

// FrontierConfig returns a Frontier-like direct-liquid floor: 74 high-density
// cabinets of 128 blades each fed from 4 switchboards, the geometry the
// ExaDigiT-style exascale twin models.
func FrontierConfig() Config {
	return Config{
		Name:            SiteFrontier,
		Nodes:           units.FrontierNodes,
		NodesPerCabinet: units.FrontierNodesPerCabinet,
		MSBs:            4,
		Cooling:         CoolingDirectLiquid,
	}
}

// Site preset names accepted by Preset.
const (
	SiteSummit   = "summit"
	SiteFrontier = "frontier"
)

// Preset resolves a site name to its floor configuration. The empty name
// resolves to Summit — the historical single-floor default — so every
// pre-existing call path keeps its exact behavior.
func Preset(site string) (Config, error) {
	switch site {
	case "", SiteSummit:
		return SummitConfig(), nil
	case SiteFrontier:
		return FrontierConfig(), nil
	}
	return Config{}, fmt.Errorf("topology: unknown site preset %q (have %s, %s)",
		site, SiteSummit, SiteFrontier)
}

// ScaledConfig returns a reduced floor with the given node count preserving
// Summit's cabinet and MSB structure: the live plane's floor, and the one
// tests and examples build.
func ScaledConfig(nodes int) Config {
	c := SummitConfig()
	c.Nodes = nodes
	return c
}

// PresetScaled is ScaledConfig generalized over site presets: the named
// site's geometry with the node count overridden.
func PresetScaled(site string, nodes int) (Config, error) {
	c, err := Preset(site)
	if err != nil {
		return Config{}, err
	}
	c.Nodes = nodes
	return c, nil
}

// Floor is an immutable floor layout. Build one with New.
type Floor struct {
	cfg      Config
	cabinets int
	msbOf    []MSB // cabinet index -> MSB
}

// New validates cfg and constructs the floor.
func New(cfg Config) (*Floor, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("topology: non-positive node count %d", cfg.Nodes)
	}
	if cfg.NodesPerCabinet <= 0 {
		return nil, fmt.Errorf("topology: non-positive nodes per cabinet %d", cfg.NodesPerCabinet)
	}
	if cfg.MSBs <= 0 {
		return nil, fmt.Errorf("topology: non-positive MSB count %d", cfg.MSBs)
	}
	cabinets := (cfg.Nodes + cfg.NodesPerCabinet - 1) / cfg.NodesPerCabinet
	// MSBs feed contiguous blocks of cabinets, mirroring the physical
	// power-distribution zoning of the floor.
	msbOf := make([]MSB, cabinets)
	for cab := range msbOf {
		msbOf[cab] = cabinetMSB(cabinets, cfg.MSBs, cab)
	}
	return &Floor{cfg: cfg, cabinets: cabinets, msbOf: msbOf}, nil
}

// cabinetMSB assigns cabinet cab under the contiguous-block distribution of
// cabinets over msbs switchboards: the first cabinets%msbs switchboards feed
// one extra cabinet.
func cabinetMSB(cabinets, msbs, cab int) MSB {
	base, rem := cabinets/msbs, cabinets%msbs
	boundary := rem * (base + 1)
	if cab < boundary {
		return MSB(cab / (base + 1))
	}
	return MSB(rem + (cab-boundary)/base)
}

// MustNew is New but panics on error; for use with known-good configs.
func MustNew(cfg Config) *Floor {
	f, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Nodes returns the node count.
func (f *Floor) Nodes() int { return f.cfg.Nodes }

// Cabinets returns the cabinet count.
func (f *Floor) Cabinets() int { return f.cabinets }

// MSBs returns the switchboard count.
func (f *Floor) MSBs() int { return f.cfg.MSBs }

// Cabinet returns the cabinet index of node id.
func (f *Floor) Cabinet(id NodeID) int { return int(id) / f.cfg.NodesPerCabinet }

// MSBOf returns the switchboard feeding node id.
func (f *Floor) MSBOf(id NodeID) MSB { return f.msbOf[f.Cabinet(id)] }

// NodesUnderMSB returns the IDs of all nodes fed by m, in order.
func (f *Floor) NodesUnderMSB(m MSB) []NodeID {
	var ids []NodeID
	for id := NodeID(0); int(id) < f.cfg.Nodes; id++ {
		if f.msbOf[f.Cabinet(id)] == m {
			ids = append(ids, id)
		}
	}
	return ids
}

// CoolingOrder returns the order in which the node-internal water path
// visits components on socket s: the CPU cold plate first, then its three
// GPUs in slot order. Components later in the order receive "second-hand"
// (warmer) water.
func CoolingOrder(s CPUSocket) []GPUSlot {
	if s == 0 {
		return []GPUSlot{0, 1, 2}
	}
	return []GPUSlot{3, 4, 5}
}
