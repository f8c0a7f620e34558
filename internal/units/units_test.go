package units

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPowerConversions(t *testing.T) {
	if got := Watts(13e6).MW(); got != 13 {
		t.Errorf("13MW in MW = %v, want 13", got)
	}
	if got := Watts(2300).KW(); got != 2.3 {
		t.Errorf("2300W in kW = %v, want 2.3", got)
	}
	// Paper Table 1: node thermal output 8,872 BTU/hr ≈ 2,600 W.
	if got := 2600 * BTUPerHourPerWatt; !almostEqual(got, 8871.6, 1.0) {
		t.Errorf("2600W = %v BTU/hr, want ≈8871.6", got)
	}
}

func TestTonsRoundTrip(t *testing.T) {
	f := func(w float64) bool {
		w = math.Mod(w, 1e9)
		back := float64(Watts(w).Tons()) * WattsPerTon
		return almostEqual(back, w, math.Abs(w)*1e-12+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTemperatureRoundTrip(t *testing.T) {
	f := func(c float64) bool {
		c = math.Mod(c, 1e6)
		back := Fahrenheit(c*9/5 + 32).C()
		return almostEqual(float64(back), c, math.Abs(c)*1e-12+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if got := Fahrenheit(70).C(); !almostEqual(float64(got), 21.111, 0.001) {
		t.Errorf("70F = %v C, want ≈21.111", got)
	}
	if got := Fahrenheit(32).C(); got != 0 {
		t.Errorf("32F = %vC, want 0", got)
	}
}

func TestEnergyConversions(t *testing.T) {
	if got := Joules(3.6e6).KWh(); got != 1 {
		t.Errorf("3.6MJ = %v kWh, want 1", got)
	}
	if got := Joules(3.6e9).MWh(); got != 1 {
		t.Errorf("3.6GJ = %v MWh, want 1", got)
	}
}

func TestStringers(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Watts(13e6).String(), "13.000MW"},
		{Watts(2300).String(), "2.30kW"},
		{Watts(450).String(), "450.0W"},
		{Joules(7.2e9).String(), "2.000MWh"},
		{Joules(3.6e6).String(), "1.00kWh"},
		{Joules(10).String(), "10.0J"},
		{Celsius(46.1).String(), "46.1°C"},
		{Fahrenheit(70).String(), "70.0°F"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

func TestWaterHeatPickup(t *testing.T) {
	// Zero or negative flow yields zero rise rather than dividing by zero.
	if got := WaterHeatPickup(1000, 0); got != 0 {
		t.Errorf("zero flow pickup = %v, want 0", got)
	}
	// A node-scale load over a realistic per-node flow gives a modest rise.
	rise := WaterHeatPickup(2300, 1.5)
	if rise <= 0 || rise > 10 {
		t.Errorf("2.3kW @ 1.5GPM rise = %v, want in (0, 10]°C", rise)
	}
	// The rise carries the load away: ṁ·c·ΔT is the load again.
	massFlowKgPerSec := 1.5 * WaterKgPerGallon / 60
	if load := massFlowKgPerSec * WaterHeatCapacityJPerKgK * float64(rise); !almostEqual(load, 2300, 1e-9) {
		t.Errorf("heat carried at that rise = %v W, want 2300", load)
	}
}

func TestWaterHeatPickupMonotonic(t *testing.T) {
	f := func(load, flow float64) bool {
		load = 1 + math.Abs(math.Mod(load, 1e6))
		flow = 0.1 + math.Abs(math.Mod(flow, 1e3))
		// More flow ⇒ smaller rise; more load ⇒ larger rise.
		base := WaterHeatPickup(Watts(load), GPM(flow))
		return WaterHeatPickup(Watts(load), GPM(flow*2)) < base &&
			WaterHeatPickup(Watts(load*2), GPM(flow)) > base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassForNodes(t *testing.T) {
	cases := []struct {
		nodes int
		want  SchedulingClass
	}{
		{1, Class5}, {45, Class5}, {46, Class4}, {91, Class4},
		{92, Class3}, {921, Class3}, {922, Class2}, {2764, Class2},
		{2765, Class1}, {4608, Class1}, {4626, Class1},
	}
	for _, c := range cases {
		if got := ClassForNodes(c.nodes); got != c.want {
			t.Errorf("ClassForNodes(%d) = %v, want %v", c.nodes, got, c.want)
		}
	}
}

func TestClassPoliciesConsistent(t *testing.T) {
	// Table 3 ranges must tile [1, 4608] with no gaps or overlaps, and
	// ClassForNodes must agree with the table on every boundary.
	for i, p := range ClassPolicies {
		if p.Class != SchedulingClass(i+1) {
			t.Errorf("policy %d has class %v", i, p.Class)
		}
		if p.MinNodes > p.MaxNodes {
			t.Errorf("%v: min %d > max %d", p.Class, p.MinNodes, p.MaxNodes)
		}
		if got := ClassForNodes(p.MinNodes); got != p.Class {
			t.Errorf("ClassForNodes(min=%d) = %v, want %v", p.MinNodes, got, p.Class)
		}
		if got := ClassForNodes(p.MaxNodes); got != p.Class {
			t.Errorf("ClassForNodes(max=%d) = %v, want %v", p.MaxNodes, got, p.Class)
		}
		if i > 0 && ClassPolicies[i-1].MinNodes != p.MaxNodes+1 {
			t.Errorf("gap between %v and %v", ClassPolicies[i-1].Class, p.Class)
		}
	}
	if ClassPolicies[len(ClassPolicies)-1].MinNodes != 1 {
		t.Error("smallest class must start at 1 node")
	}
	if ClassPolicies[0].MaxNodes != 4608 {
		t.Error("leadership class must cap at 4608 nodes")
	}
}

func TestPolicyPanicsOnInvalid(t *testing.T) {
	for _, c := range []SchedulingClass{0, 6, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Policy() on class %d did not panic", c)
				}
			}()
			c.Policy()
		}()
	}
}

func TestClassString(t *testing.T) {
	if Class1.String() != "Class1" || Class5.String() != "Class5" {
		t.Error("class stringer mismatch")
	}
}

func TestSummitPopulationConstants(t *testing.T) {
	if SummitGPUs != 27756 {
		t.Errorf("SummitGPUs = %d, want 27756", SummitGPUs)
	}
	if SummitCPUs != 9252 {
		t.Errorf("SummitCPUs = %d, want 9252", SummitCPUs)
	}
	// The floor has more cabinet slots than nodes (some cabinets are not
	// fully populated): 257*18 = 4626 exactly for Summit's layout.
	if SummitCabinets*NodesPerCabinet != 4626 {
		t.Errorf("cabinet capacity = %d, want 4626", SummitCabinets*NodesPerCabinet)
	}
}

func TestEdgeThresholdMatchesPaper(t *testing.T) {
	// 868 W/node × 4608 nodes ≈ 4 MW (paper §4.2).
	full := float64(EdgeThresholdPerNode) * 4608
	if full < 3.9e6 || full > 4.1e6 {
		t.Errorf("full-system edge threshold = %v, want ≈4MW", full)
	}
}
