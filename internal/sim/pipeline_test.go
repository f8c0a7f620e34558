package sim

// These tests pin Run's two-stage pipeline: the producer that sweeps the
// physics and the consumer goroutine that runs the failure sweep and the
// observers, with snapshots passed between them over a fixed ring of slots.

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/topology"
)

// pipelineConfig is a two-hour run on the given node count: 720 windows,
// enough to wrap the ring several times even at 16 nodes, where one slot
// carries 64 windows.
func pipelineConfig(nodes, workers int) Config {
	return Config{
		Seed:              23,
		Nodes:             nodes,
		StartTime:         1_577_836_800,
		DurationSec:       2 * 3600,
		StepSec:           10,
		SamplesPerWindow:  2,
		Jobs:              60,
		FailureRateScale:  50_000,
		FailureCheckSec:   60,
		TelemetryLossFrac: 0.05,
		Workers:           workers,
	}
}

// TestSlowObserverSeesEveryWindowIntact holds the consumer back every few
// windows while the producer runs ahead into the ring, then records the
// window it was handed. Were a slot handed back before the consumer is done
// with it, the producer would overwrite the window under the observer and
// the record would differ from a run whose observer never lags. 16 nodes
// put 64 windows in a slot, 64 nodes 16 and 160 nodes (three sweep blocks)
// 6; the race detector sees any overlap too.
func TestSlowObserverSeesEveryWindowIntact(t *testing.T) {
	for _, nodes := range []int{16, 64, 160} {
		for _, workers := range []int{1, 4} {
			cfg := pipelineConfig(nodes, workers)
			if per := max(1, slotNodeWindows/nodes); int(cfg.DurationSec/cfg.StepSec) <= ringSlots*per {
				t.Fatalf("%d nodes: %d windows never wrap a ring of %d×%d", nodes, cfg.DurationSec/cfg.StepSec, ringSlots, per)
			}
			fast, fastRes := runRecorded(t, cfg)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var slow []*Snapshot
			var sink float64
			res, err := s.Run(ObserverFunc(func(snap *Snapshot) {
				if len(slow)%7 == 3 {
					sink += lag()
				}
				slow = append(slow, cloneSnap(snap))
			}))
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(sink) {
				t.Fatal("lag produced NaN")
			}
			if len(slow) != len(fast) || res.Steps != fastRes.Steps {
				t.Fatalf("%d nodes, %d workers: %d windows (%d steps), want %d (%d)",
					nodes, workers, len(slow), res.Steps, len(fast), fastRes.Steps)
			}
			for k := range fast {
				diffSnap(t, k, slow[k], fast[k])
			}
			diffEvents(t, "result failures", res.Failures, fastRes.Failures)
		}
	}
}

// lag keeps the calling goroutine busy, yielding as it goes, so the other
// stage runs on ahead.
func lag() float64 {
	x := 1.0
	for i := 0; i < 200; i++ {
		for j := 0; j < 500; j++ {
			x = math.Sqrt(x + float64(j))
		}
		runtime.Gosched()
	}
	return x
}

// TestObserverPanicReachesRunCaller checks an observer's panic is raised
// again on the goroutine that called Run, with the same value, and that no
// window after it is observed.
func TestObserverPanicReachesRunCaller(t *testing.T) {
	type boom struct{ window int }
	for _, nodes := range []int{16, 160} {
		s, err := New(pipelineConfig(nodes, 2))
		if err != nil {
			t.Fatal(err)
		}
		const at = 100
		seen := 0
		got := func() (p any) {
			defer func() { p = recover() }()
			if _, err := s.Run(ObserverFunc(func(*Snapshot) {
				if seen == at {
					panic(boom{seen})
				}
				seen++
			})); err != nil {
				t.Fatal(err)
			}
			return nil
		}()
		if got != (boom{at}) {
			t.Fatalf("%d nodes: Run's caller recovered %#v, want %#v", nodes, got, boom{at})
		}
		if seen != at {
			t.Fatalf("%d nodes: %d windows observed before the panic, want %d", nodes, seen, at)
		}
	}
}

// TestIdleWindowMatchesSampleLoop pins the once-per-run idle window to the
// per-sample loop it replaces: for every node gain of a 64-node floor and 1
// or 10 samples per window, the sensor statistic of rs.sub idle samples is
// bit-identical to idleStat's, and the run's component means are the loop's.
func TestIdleWindowMatchesSampleLoop(t *testing.T) {
	for _, sub := range []int{1, 10} {
		cfg := pipelineConfig(64, 1)
		cfg.SamplesPerWindow = sub
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs := s.newRunState()
		rs.t = cfg.StartTime + 600
		for i := 0; i < cfg.Nodes; i++ {
			id := topology.NodeID(i)
			stat, w := s.sampleWindow(id, rs, nil, nil)
			got := s.idleStat(id, rs)
			if got.T != rs.t || got.Count != stat.N || !eqBits(got.Min, stat.Min) || !eqBits(got.Max, stat.Max) ||
				!eqBits(got.Mean, stat.Mean()) || !eqBits(got.Std, stat.Std()) {
				t.Fatalf("sub %d node %d: idle stat %+v, sample loop %+v (mean %v std %v)",
					sub, i, got, stat, stat.Mean(), stat.Std())
			}
			if !sameWindow(w, rs.idle) {
				t.Fatalf("sub %d node %d: idle window %+v, sample loop %+v", sub, i, rs.idle, w)
			}
		}
	}
}

// sameWindow compares two node-windows' component power at Float64bits.
func sameWindow(a, b windowPower) bool {
	same := eqBits(a.cpuSum, b.cpuSum) && eqBits(a.gpuSum, b.gpuSum) && eqBits(a.truth, b.truth) &&
		eqBits(float64(a.mean.Other), float64(b.mean.Other))
	for c := range a.mean.CPU {
		same = same && eqBits(float64(a.mean.CPU[c]), float64(b.mean.CPU[c]))
	}
	for g := range a.mean.GPU {
		same = same && eqBits(float64(a.mean.GPU[g]), float64(b.mean.GPU[g]))
	}
	return same
}
