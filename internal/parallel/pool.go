package parallel

import "sync/atomic"

// Pool is a persistent worker pool for repeated fan-outs over small index
// spaces — the simulator's per-window node sweep. ForEach on a fresh pool
// matches the package-level ForEach semantically, but reuses the same
// goroutines across calls: a steady-state caller pays two channel
// operations per worker per call and zero allocations, where ForEach
// spawns (and discards) its workers every time.
//
// A Pool is NOT safe for concurrent ForEach calls; it serves one fan-out
// at a time, which is exactly the simulation loop's shape. Close releases
// the workers; the pool must not be used after Close.
type Pool struct {
	workers int
	fn      func(i int)
	n       int64
	next    atomic.Int64
	wake    []chan struct{}
	done    chan struct{}
}

// NewPool starts a pool with the given worker count (<= 0 selects
// DefaultWorkers). A single-worker pool runs calls inline and starts no
// goroutines.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	p := &Pool{workers: workers}
	if workers == 1 {
		return p
	}
	p.done = make(chan struct{}, workers)
	p.wake = make([]chan struct{}, workers)
	for w := range p.wake {
		p.wake[w] = make(chan struct{}, 1)
		go p.work(p.wake[w])
	}
	return p
}

func (p *Pool) work(wake chan struct{}) {
	for range wake { // closed by Close
		for {
			i := p.next.Add(1) - 1
			if i >= p.n {
				break
			}
			p.fn(int(i))
		}
		p.done <- struct{}{}
	}
}

// ForEach runs fn(i) for i in [0, n) on the pool's workers and returns
// after all calls complete. Indices are claimed atomically one at a time,
// so fn should amortize per-call overhead (the simulator passes blocks of
// nodes, not single nodes). fn must be safe for concurrent invocation
// with distinct i.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p.wake == nil || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.fn = fn
	p.n = int64(n)
	p.next.Store(0)
	for _, c := range p.wake {
		c <- struct{}{}
	}
	for range p.wake {
		<-p.done
	}
	p.fn = nil
}

// Close stops the workers. The pool must be idle (no ForEach in flight).
func (p *Pool) Close() {
	for _, c := range p.wake {
		close(c)
	}
	p.wake = nil
}
