package facility

import (
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/units"
)

func TestWeatherSeasonal(t *testing.T) {
	w := NewWeather(1)
	// Mid-January noon vs mid-July noon (2020 epoch = 1577836800).
	base := int64(1577836800)
	jan := w.At(base + 14*86400 + 12*3600)
	jul := w.At(base + 196*86400 + 12*3600)
	if jul.DryBulbC <= jan.DryBulbC+10 {
		t.Errorf("July (%0.1f) must be much warmer than January (%0.1f)",
			jul.DryBulbC, jan.DryBulbC)
	}
	if jan.DryBulbC < -15 || jan.DryBulbC > 20 {
		t.Errorf("January dry bulb %0.1f implausible for TN", jan.DryBulbC)
	}
	if jul.DryBulbC < 18 || jul.DryBulbC > 42 {
		t.Errorf("July dry bulb %0.1f implausible for TN", jul.DryBulbC)
	}
}

func TestWeatherWetBulbBelowDry(t *testing.T) {
	w := NewWeather(7)
	for dt := int64(0); dt < 365*86400; dt += 3571 {
		c := w.At(1577836800 + dt)
		if c.WetBulbC > c.DryBulbC {
			t.Fatalf("wet bulb %0.1f above dry bulb %0.1f at dt=%d",
				c.WetBulbC, c.DryBulbC, dt)
		}
	}
}

func TestWeatherDiurnal(t *testing.T) {
	w := NewWeather(1)
	base := int64(1577836800) + 100*86400
	night := w.At(base + 5*3600)
	afternoon := w.At(base + 17*3600)
	if afternoon.DryBulbC <= night.DryBulbC {
		t.Errorf("afternoon (%0.1f) must be warmer than 5am (%0.1f)",
			afternoon.DryBulbC, night.DryBulbC)
	}
}

func TestWeatherDeterministic(t *testing.T) {
	a, b := NewWeather(3), NewWeather(3)
	if a.At(123456789) != b.At(123456789) {
		t.Error("weather not deterministic")
	}
}

// runCEP steps the plant to steady state at the given load and time.
func runCEP(c *CEP, t int64, load units.Watts, seconds int) {
	for i := 0; i < seconds; i++ {
		c.Step(t+int64(i), 1, load)
	}
}

func TestCEPWinterPUE(t *testing.T) {
	w := NewWeather(1)
	c := NewCEP(w)
	// Mid-January, 5.5 MW IT load: economizer only.
	jan := int64(1577836800 + 14*86400)
	runCEP(c, jan, 5.5e6, 1800)
	if c.chillerTons > 1 {
		t.Error("chillers running in January")
	}
	pue := c.PUE()
	if pue < 1.05 || pue > 1.16 {
		t.Errorf("winter PUE = %0.3f, want ≈1.11", pue)
	}
}

func TestCEPSummerPUE(t *testing.T) {
	w := NewWeather(1)
	c := NewCEP(w)
	// Mid-July afternoon, 5.5 MW: trim chillers active, PUE ≈ 1.2+.
	jul := int64(1577836800 + 196*86400 + 15*3600)
	runCEP(c, jul, 5.5e6, 1800)
	if c.chillerTons <= 1 {
		t.Error("chillers idle on a July afternoon")
	}
	pue := c.PUE()
	if pue < 1.13 || pue > 1.35 {
		t.Errorf("summer PUE = %0.3f, want ≈1.2", pue)
	}
}

func TestCEPChilledWaterFractionOfYear(t *testing.T) {
	w := NewWeather(1)
	c := NewCEP(w)
	base := int64(1577836800)
	onChill := 0
	samples := 0
	for dt := int64(0); dt < 365*86400; dt += 2 * 3600 {
		runCEP(c, base+dt, 5.5e6, 600)
		samples++
		if c.chillerTons > 1 {
			onChill++
		}
	}
	frac := float64(onChill) / float64(samples)
	// Paper: chilled water ~20 % of the year.
	if frac < 0.08 || frac > 0.38 {
		t.Errorf("chilled-water fraction = %0.2f, want ≈0.2", frac)
	}
}

func TestCEPPUEInverseToLoad(t *testing.T) {
	w := NewWeather(1)
	c := NewCEP(w)
	jan := int64(1577836800 + 20*86400)
	runCEP(c, jan, 3e6, 1800)
	lowLoadPUE := c.PUE()
	runCEP(c, jan, 11e6, 1800)
	highLoadPUE := c.PUE()
	if highLoadPUE >= lowLoadPUE {
		t.Errorf("PUE must improve with load: %0.3f @3MW vs %0.3f @11MW",
			lowLoadPUE, highLoadPUE)
	}
}

func TestCEPStagingLag(t *testing.T) {
	w := NewWeather(1)
	c := NewCEP(w)
	jan := int64(1577836800 + 20*86400)
	runCEP(c, jan, 4e6, 1800)
	before := float64(c.TowerTons() + c.ChillerTons())
	// Step the load up 7 MW; after 30 s the plant must NOT have fully
	// caught up (1-minute lag), but by 10 minutes it must have.
	runCEP(c, jan+1800, 11e6, 30)
	after30 := float64(c.TowerTons() + c.ChillerTons())
	target := float64(units.Watts(11e6).Tons())
	if after30 >= target*0.9 {
		t.Errorf("plant caught up in 30s: %0.0f of %0.0f tons", after30, target)
	}
	if after30 <= before {
		t.Error("plant did not begin responding in 30s")
	}
	runCEP(c, jan+1830, 11e6, 600)
	if got := float64(c.TowerTons() + c.ChillerTons()); got < target*0.9 {
		t.Errorf("plant still behind after 10min: %0.0f of %0.0f", got, target)
	}
}

func TestCEPAsymmetricResponse(t *testing.T) {
	// De-staging is slower than staging (paper Figure 12).
	w := NewWeather(1)
	up := NewCEP(w)
	jan := int64(1577836800 + 20*86400)
	runCEP(up, jan, 4e6, 1800)
	upStart := float64(up.TowerTons() + up.ChillerTons())
	runCEP(up, jan+1800, 11e6, 120)
	upDelta := float64(up.TowerTons()+up.ChillerTons()) - upStart

	down := NewCEP(w)
	runCEP(down, jan, 11e6, 1800)
	downStart := float64(down.TowerTons() + down.ChillerTons())
	runCEP(down, jan+1800, 4e6, 120)
	downDelta := downStart - float64(down.TowerTons()+down.ChillerTons())
	if downDelta >= upDelta {
		t.Errorf("de-staging (%0.0f tons/2min) must be slower than staging (%0.0f)",
			downDelta, upDelta)
	}
}

func TestCEPReturnTempTracksLoad(t *testing.T) {
	w := NewWeather(1)
	c := NewCEP(w)
	jan := int64(1577836800 + 20*86400)
	runCEP(c, jan, 3e6, 1800)
	low := float64(c.ReturnC())
	runCEP(c, jan+1800, 12e6, 1800)
	high := float64(c.ReturnC())
	if high <= low {
		t.Error("return temperature must rise with load")
	}
	// Published band: return 80–100 °F ≈ 26.7–37.8 °C at high load.
	if high < float64(units.MTWReturnMinF.C())-4 || high > float64(units.MTWReturnMaxF.C()) {
		t.Errorf("high-load return = %0.1f°C outside plausible band", high)
	}
	if s := float64(c.SupplyC()); s < float64(units.MTWSupplyMinF.C())-1.5 ||
		s > float64(units.MTWSupplyMaxF.C())+3.5 {
		t.Errorf("supply = %0.1f°C outside operating band", s)
	}
}

func TestCEPPUENaNAtZeroLoad(t *testing.T) {
	c := NewCEP(NewWeather(1))
	c.Step(0, 1, 0)
	if !math.IsNaN(c.PUE()) {
		t.Error("zero-load PUE must be NaN")
	}
}

func TestMSBMeters(t *testing.T) {
	floor := topology.MustNew(topology.ScaledConfig(180))
	m := NewMSBMeters(floor, rng.New(5))
	if len(m.msbOffsetW) != floor.MSBs() {
		t.Error("MSB count mismatch")
	}
	// Node sensors over-read by ~11%.
	var totalGain float64
	for id := topology.NodeID(0); int(id) < floor.Nodes(); id++ {
		r := m.NodeSensor(id, 1000)
		gain := float64(r) / 1000
		if gain < 1.02 || gain > 1.20 {
			t.Fatalf("node %d gain %0.3f outside [1.02, 1.20]", id, gain)
		}
		totalGain += gain
	}
	mean := totalGain / float64(floor.Nodes())
	if mean < 1.08 || mean > 1.14 {
		t.Errorf("mean sensor gain = %0.3f, want ≈1.11", mean)
	}
}

func TestMSBMeterVsSummationSign(t *testing.T) {
	// The defining Figure 4 property: meter − Σ(sensor) is negative and
	// roughly constant per MSB.
	floor := topology.MustNew(topology.ScaledConfig(360))
	m := NewMSBMeters(floor, rng.New(9))
	perNodeTrue := units.Watts(1200)
	for msb := topology.MSB(0); int(msb) < floor.MSBs(); msb++ {
		ids := floor.NodesUnderMSB(msb)
		var trueTotal, sensorSum float64
		for _, id := range ids {
			trueTotal += float64(perNodeTrue)
			sensorSum += float64(m.NodeSensor(id, perNodeTrue))
		}
		meter := float64(m.MeterPower(msb, units.Watts(trueTotal)))
		diff := meter - sensorSum
		if diff >= 0 {
			t.Errorf("%v: meter-summation = %0.0f, want negative", msb, diff)
		}
	}
}

func TestMSBMeterDeterministicGains(t *testing.T) {
	floor := topology.MustNew(topology.ScaledConfig(64))
	a := NewMSBMeters(floor, rng.New(5))
	b := NewMSBMeters(floor, rng.New(5))
	for id := topology.NodeID(0); int(id) < 64; id++ {
		if a.NodeSensor(id, 1500) != b.NodeSensor(id, 1500) {
			t.Fatal("sensor gains not deterministic")
		}
	}
}

func BenchmarkCEPStep(b *testing.B) {
	c := NewCEP(NewWeather(1))
	for i := 0; i < b.N; i++ {
		c.Step(int64(i), 1, 6e6)
	}
}

func TestEquipmentStaging(t *testing.T) {
	w := NewWeather(1)
	c := NewCEP(w)
	jan := int64(1577836800 + 20*86400)
	// Idle: nothing staged.
	c.Step(jan, 1, 0)
	if c.ActiveTowers() != 0 || c.ActiveChillers() != 0 {
		t.Errorf("idle staging = %d towers, %d chillers", c.ActiveTowers(), c.ActiveChillers())
	}
	// Moderate winter load: some towers, no chillers.
	runCEP(c, jan, 5.5e6, 1800)
	if n := c.ActiveTowers(); n < 2 || n > 8 {
		t.Errorf("5.5MW winter towers = %d, want 2-8", n)
	}
	if c.ActiveChillers() != 0 {
		t.Error("chillers staged in winter")
	}
	// Peak load: more towers than moderate, bounded by the fleet.
	moderate := c.ActiveTowers()
	runCEP(c, jan+1800, 13e6, 1800)
	if n := c.ActiveTowers(); n <= moderate || n > 8 {
		t.Errorf("13MW towers = %d, want > %d and <= 8", n, moderate)
	}
	// Summer afternoon: chillers staged, bounded by 5.
	jul := int64(1577836800 + 196*86400 + 15*3600)
	runCEP(c, jul, 13e6, 1800)
	if n := c.ActiveChillers(); n < 1 || n > 5 {
		t.Errorf("summer chillers = %d, want 1-5", n)
	}
}

func TestCEPStagingHysteresisAtThreshold(t *testing.T) {
	// A load sitting exactly on a tower-unit boundary, wobbling ±0.5 %
	// each window, must not flip the staged count back and forth. The
	// pre-hysteresis ceil staging toggled 4↔5 towers on every wobble; the
	// deadband allows at most one transition before the count settles.
	w := NewWeather(1)
	c := NewCEP(w)
	jan := int64(1577836800 + 20*86400)
	boundary := units.Watts(4 * c.TowerUnitTons * units.WattsPerTon)
	runCEP(c, jan, boundary, 1800)
	prev := c.ActiveTowers()
	transitions := 0
	for i := 0; i < 60; i++ {
		load := boundary
		if i%2 == 0 {
			load = units.Watts(float64(boundary) * 1.005)
		} else {
			load = units.Watts(float64(boundary) * 0.995)
		}
		runCEP(c, jan+1800+int64(i*30), load, 30)
		if n := c.ActiveTowers(); n != prev {
			transitions++
			prev = n
		}
	}
	if transitions > 1 {
		t.Errorf("staged towers changed %d times at an exactly-threshold load; hysteresis must allow at most 1", transitions)
	}
}

func TestCEPChillerHysteresisAtThreshold(t *testing.T) {
	// Same property on the trim chillers: park the summer load exactly on
	// a chiller-unit boundary and wobble it; the staged count must settle.
	w := NewWeather(1)
	c := NewCEP(w)
	jul := int64(1577836800 + 196*86400 + 15*3600)
	runCEP(c, jul, 10e6, 1800)
	unit := c.ChillerUnitTons
	cur := c.ActiveChillers()
	if cur < 1 {
		t.Fatal("expected chillers staged on a July afternoon at 10 MW")
	}
	// Scale the load so the chiller share lands exactly on cur×unit tons.
	share := float64(c.ChillerTons()) / 10e6
	boundary := units.Watts(float64(cur) * unit / share)
	runCEP(c, jul+1800, boundary, 1800)
	prev := c.ActiveChillers()
	transitions := 0
	for i := 0; i < 60; i++ {
		load := units.Watts(float64(boundary) * 1.005)
		if i%2 == 1 {
			load = units.Watts(float64(boundary) * 0.995)
		}
		runCEP(c, jul+3600+int64(i*30), load, 30)
		if n := c.ActiveChillers(); n != prev {
			transitions++
			prev = n
		}
	}
	if transitions > 1 {
		t.Errorf("staged chillers changed %d times at an exactly-threshold load; hysteresis must allow at most 1", transitions)
	}
}

func TestCEPSupplyRelaxesToTunedSetpoint(t *testing.T) {
	// A retuned supply setpoint — including one outside the nominal MTW
	// band — must be reachable: steady state relaxes to the target.
	for _, setpoint := range []float64{18.0, 23.5} {
		w := NewWeather(1)
		c := NewCEP(w)
		if err := c.Tune(Tuning{SupplySetpointC: setpoint}); err != nil {
			t.Fatalf("Tune(%g): %v", setpoint, err)
		}
		jan := int64(1577836800 + 20*86400)
		runCEP(c, jan, 5.5e6, 3600)
		if got := float64(c.SupplyC()); math.Abs(got-setpoint) > 0.5 {
			t.Errorf("supply = %0.2f °C, want ≈%0.1f after Tune", got, setpoint)
		}
	}
}

func TestTuningValidate(t *testing.T) {
	cases := []struct {
		name string
		tun  Tuning
		ok   bool
	}{
		{"zero value", Tuning{}, true},
		{"nominal", Tuning{SupplySetpointC: 19, ChillerKWPerTon: 0.6}, true},
		{"negative setpoint", Tuning{SupplySetpointC: -5}, false},
		{"setpoint too low", Tuning{SupplySetpointC: 4}, false},
		{"setpoint too high", Tuning{SupplySetpointC: 40}, false},
		{"negative kw/ton", Tuning{ChillerKWPerTon: -0.1}, false},
		{"inverted staging", Tuning{StageUpFrac: 0.9, StageDownFrac: 0.95}, false},
		{"inverted vs default up", Tuning{StageDownFrac: 1.1}, false},
		{"valid staging", Tuning{StageUpFrac: 1.05, StageDownFrac: 0.8}, true},
		{"NaN setpoint", Tuning{SupplySetpointC: math.NaN()}, false},
		{"NaN kw/ton", Tuning{TowerKWPerTon: math.NaN()}, false},
		{"NaN unit tons", Tuning{ChillerUnitTons: math.NaN()}, false},
		{"NaN stage-down", Tuning{StageDownFrac: math.NaN()}, false},
	}
	for _, tc := range cases {
		err := tc.tun.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: expected error", tc.name)
			} else if !errors.Is(err, ErrTuning) {
				t.Errorf("%s: error %v does not wrap ErrTuning", tc.name, err)
			}
		}
	}
}
