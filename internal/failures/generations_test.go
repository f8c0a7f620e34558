package failures

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/units"
)

// TestTitanFlip pins the paper's §6 generation contrast as a property of
// the failure model: "while high-temperature was a reason for the major
// errors in the case of Titan, its direct effect on GPU failures in the
// current system is not significant". One synthetic thermal trajectory (48
// nodes, 40 five-minute steps, within-job z-scores drawn from seed 5, rates
// ×30 000) drives the injector in Summit mode and in TitanMode; for most
// hardware types with at least five events in both, the Titan-mode mean
// z-score at failure must exceed the Summit-mode one, and none may be
// cold-biased.
func TestTitanFlip(t *testing.T) {
	const seed, nodes, steps, gpus = 5, 48, 40, 48 * units.GPUsPerNode
	rs := rng.New(seed).Split("thermal-context")
	z := make([]float64, steps*gpus)
	for i := range z {
		z[i] = rs.Normal(0, 1)
	}
	meanZ := func(titan bool) (map[Type]float64, map[Type]int) {
		cfg := DefaultConfig(seed, nodes)
		cfg.RateScale = 30000
		cfg.MissingTempFrac = 0
		cfg.SuperOffenderNVLink = -1
		cfg.TitanMode = titan
		in := NewInjector(cfg)
		sum, n := map[Type]float64{}, map[Type]int{}
		for s := 0; s < steps; s++ {
			for g := 0; g < gpus; g++ {
				c := Context{JobID: 1, Project: "GEN01", Active: true, TempC: 42 + 5*z[s*gpus+g], TempZ: z[s*gpus+g]}
				for _, e := range in.SampleInto(nil, int64(s)*300, 300, topology.NodeID(g/units.GPUsPerNode), topology.GPUSlot(g%units.GPUsPerNode), c) {
					if e.Type.Hardware() {
						sum[e.Type] += e.TempZ
						n[e.Type]++
					}
				}
			}
		}
		for typ := range sum {
			sum[typ] /= float64(n[typ])
		}
		return sum, n
	}
	summit, summitN := meanZ(false)
	titan, titanN := meanZ(true)
	compared, flips := 0, 0
	for typ := Type(0); typ < NumTypes; typ++ {
		if summitN[typ] < 5 || titanN[typ] < 5 {
			continue
		}
		compared++
		if titan[typ] > summit[typ] {
			flips++
		} else {
			t.Logf("%v: titan %.2f vs summit %.2f (no separation)", typ, titan[typ], summit[typ])
		}
		if titan[typ] < -1 {
			t.Errorf("titan %v z-mean %.2f not hot-biased", typ, titan[typ])
		}
	}
	if compared == 0 {
		t.Fatalf("no hardware type with five events in both modes (summit %v, titan %v)", summitN, titanN)
	}
	if flips < (compared+1)/2 {
		t.Errorf("generation flip holds for only %d of %d types", flips, compared)
	}
}
