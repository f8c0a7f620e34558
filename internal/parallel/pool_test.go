package parallel

import (
	"sync/atomic"
	"testing"
)

func TestPoolForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 5, 97, 256} {
			hits := make([]int32, n)
			p.ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
		p.Close()
	}
}

func TestPoolReuseAcrossManyCalls(t *testing.T) {
	// The simulator calls ForEach once per window for thousands of
	// windows; the pool must stay correct across repeated fan-outs.
	p := NewPool(4)
	defer p.Close()
	var total atomic.Int64
	const calls, n = 500, 37
	for c := 0; c < calls; c++ {
		p.ForEach(n, func(i int) { total.Add(int64(i)) })
	}
	want := int64(calls) * int64(n*(n-1)/2)
	if got := total.Load(); got != want {
		t.Fatalf("total = %d, want %d", got, want)
	}
}

func TestPoolSteadyStateAllocs(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var sink atomic.Int64
	fn := func(i int) { sink.Add(1) } // one closure, reused every call
	p.ForEach(64, fn)                 // warm up
	allocs := testing.AllocsPerRun(100, func() { p.ForEach(64, fn) })
	if allocs > 0 {
		t.Errorf("steady-state ForEach allocates %v objects per call, want 0", allocs)
	}
}

func TestPoolDefaultWorkers(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.workers != DefaultWorkers() {
		t.Errorf("workers = %d, want %d", p.workers, DefaultWorkers())
	}
	done := false
	p.ForEach(1, func(i int) { done = true })
	if !done {
		t.Error("single-index fan-out did not run")
	}
}
