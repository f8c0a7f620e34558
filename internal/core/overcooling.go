package core

import (
	"fmt"
	"math"

	"repro/internal/source"
	"repro/internal/units"
)

// OvercoolingReport quantifies the paper's §5 observation that the plant's
// safety margins "result in a general overcooling of the system": cooling
// delivered beyond the instantaneous IT heat load, its energy cost, and
// where it concentrates (the slow de-staging after falling edges).
type OvercoolingReport struct {
	Windows int
	// ExcessTonHours is ∫ max(0, delivered − load) dt in ton-hours.
	ExcessTonHours float64
	// DeficitTonHours is ∫ max(0, load − delivered) dt (transients during
	// rising edges, absorbed by the loop's thermal mass).
	DeficitTonHours float64
	// ExcessFrac is excess ton-hours over total delivered ton-hours.
	ExcessFrac float64
	// ExcessEnergyKWh estimates the electricity spent producing the
	// excess cooling (at the blended plant efficiency of the run).
	ExcessEnergyKWh float64
	// PostFallShare is the share of the excess occurring within
	// postFallWindowSec after a falling cluster edge — the de-staging
	// cost the paper's future work wants to tune away.
	PostFallShare float64
}

const postFallWindowSec = 600

// OvercoolingFromSource computes the §5 overcooling report from the run's
// true cluster power and its tower and chiller tonnage.
func OvercoolingFromSource(src source.RunSource) (*OvercoolingReport, error) {
	meta, err := src.Meta()
	if err != nil {
		return nil, err
	}
	s, err := seriesOf(src, source.SeriesClusterTruePower, source.SeriesTowerTons, source.SeriesChillerTons)
	if err != nil {
		return nil, err
	}
	truePower, towerTonsS, chillerTonsS := s[0], s[1], s[2]
	n := towerTonsS.Len()
	if n == 0 || truePower.Len() != n {
		return nil, fmt.Errorf("core: run data missing cooling series")
	}
	// Falling-edge windows for attribution.
	edges := DetectEdgesThreshold(truePower, ScaleEquivalentMW(meta.Nodes))
	inPostFall := make([]bool, n)
	for _, e := range edges {
		if e.Rising {
			continue
		}
		for k := e.EndIdx; k < n && towerTonsS.TimeAt(k)-e.T <= postFallWindowSec; k++ {
			inPostFall[k] = true
		}
	}
	rep := &OvercoolingReport{}
	stepHours := float64(meta.StepSec) / units.SecondsPerHour
	var deliveredTonHours, postFallExcess float64
	// Blended electric cost per ton from the run itself.
	var towerTons, chillerTons float64
	for i := 0; i < n; i++ {
		tw, ch := towerTonsS.Vals[i], chillerTonsS.Vals[i]
		load := truePower.Vals[i]
		if math.IsNaN(tw) || math.IsNaN(ch) || math.IsNaN(load) {
			continue
		}
		rep.Windows++
		delivered := tw + ch
		loadTons := load / units.WattsPerTon
		deliveredTonHours += delivered * stepHours
		towerTons += tw * stepHours
		chillerTons += ch * stepHours
		diff := delivered - loadTons
		if diff > 0 {
			rep.ExcessTonHours += diff * stepHours
			if inPostFall[i] {
				postFallExcess += diff * stepHours
			}
		} else {
			rep.DeficitTonHours += -diff * stepHours
		}
	}
	if deliveredTonHours > 0 {
		rep.ExcessFrac = rep.ExcessTonHours / deliveredTonHours
	}
	if rep.ExcessTonHours > 0 {
		rep.PostFallShare = postFallExcess / rep.ExcessTonHours
	}
	// Blended kW/ton from the run's actual tower/chiller mix (matching
	// the CEP's efficiency constants: 0.14 tower, 0.75 chiller).
	total := towerTons + chillerTons
	if total > 0 {
		blendedKWPerTon := (0.14*towerTons + 0.75*chillerTons) / total
		rep.ExcessEnergyKWh = rep.ExcessTonHours * blendedKWPerTon
	}
	return rep, nil
}
