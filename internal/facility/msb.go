package facility

import (
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/units"
)

// MSBMeters models the revenue-grade meters at the main switchboards and
// the calibration bias of the per-node sensors (paper Figure 4 / §3).
//
// The per-node BMC power readings carry a systematic positive gain (the
// paper finds the summation ~11 % above the meters, i.e. meter − summation
// ≈ −129 kW per MSB on average) plus a per-MSB offset from switchgear and
// distribution losses. NodeSensor applies the per-node gain; MeterPower
// returns what the switchboard meter would read for the true power.
type MSBMeters struct {
	// nodeGain is each node sensor's multiplicative calibration bias.
	nodeGain []float64
	// msbOffsetW is each MSB meter's additive offset (switchgear loads
	// seen by the meter but not by node sensors are negative here since
	// the dominant term is the node-sensor over-read).
	msbOffsetW []float64
	// meterNoiseFrac and meterNoiseFloorW set the meter's white
	// measurement noise: revenue meters have percentage-class accuracy.
	meterNoiseFrac   float64
	meterNoiseFloorW float64
	noise            *rng.Source
}

// NewMSBMeters draws per-node gains and per-MSB offsets from rs.
func NewMSBMeters(floor *topology.Floor, rs *rng.Source) *MSBMeters {
	m := &MSBMeters{
		nodeGain:         make([]float64, floor.Nodes()),
		msbOffsetW:       make([]float64, floor.MSBs()),
		meterNoiseFrac:   0.003,
		meterNoiseFloorW: 100,
		noise:            rs.Split("meter-noise"),
	}
	gainRS := rs.Split("node-gain")
	for i := range m.nodeGain {
		// ~11% mean over-read with node-to-node spread.
		m.nodeGain[i] = gainRS.TruncNormal(1.11, 0.025, 1.02, 1.20)
	}
	offRS := rs.Split("msb-offset")
	for i := range m.msbOffsetW {
		// Per-MSB external factor (distribution losses, switchgear seen
		// differently per board). Scaled with the node count fed so the
		// Figure 4 sign property (meter < summation) holds at any floor
		// scale: the offset stays well under the ~11 % sensor over-read.
		nodes := len(floor.NodesUnderMSB(topology.MSB(i)))
		m.msbOffsetW[i] = float64(nodes) * offRS.Uniform(5, 30)
	}
	return m
}

// NodeSensor returns what node id's BMC power sensor reports for the given
// true input power.
func (m *MSBMeters) NodeSensor(id topology.NodeID, truePower units.Watts) units.Watts {
	return units.Watts(float64(truePower) * m.nodeGain[id])
}

// MeterPower returns what the meter at msb reads given the true total node
// power under that switchboard.
func (m *MSBMeters) MeterPower(msb topology.MSB, trueTotal units.Watts) units.Watts {
	sd := m.meterNoiseFrac*float64(trueTotal) + m.meterNoiseFloorW
	v := float64(trueTotal) + m.msbOffsetW[msb] + m.noise.Normal(0, sd)
	if v < 0 {
		v = 0
	}
	return units.Watts(v)
}
