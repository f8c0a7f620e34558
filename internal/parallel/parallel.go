// Package parallel is the reproduction's substitute for the Dask pipeline
// the paper used: bounded worker pools and parallel for-each and map over
// index spaces and partitions.
//
// All entry points are deterministic in their results (outputs are
// index-ordered) even though execution order is not, so analyses remain
// bit-stable regardless of GOMAXPROCS.
package parallel

import (
	"errors"
	"runtime"
	"sync"
)

// DefaultWorkers returns the default worker count: GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// clampWorkers normalizes a worker request against the job size.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEach runs fn(i) for i in [0, n) on the given number of workers
// (<= 0 selects DefaultWorkers). It returns after all calls complete.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64
	var mu sync.Mutex
	take := func(batch int) (int, int) {
		mu.Lock()
		defer mu.Unlock()
		start := int(next)
		if start >= n {
			return 0, 0
		}
		end := start + batch
		if end > n {
			end = n
		}
		next = int64(end)
		return start, end
	}
	// Batch size balances scheduling overhead against imbalance.
	batch := n / (workers * 8)
	if batch < 1 {
		batch = 1
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				start, end := take(batch)
				if start == end {
					return
				}
				for i := start; i < end; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

// ForEachErr is ForEach for fallible work: it runs fn(i) for i in [0, n) and
// returns the combined error of all failures (errors.Join). All indices run
// even if some fail, matching batch-analytics semantics where one bad
// partition must not hide the others.
func ForEachErr(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	ForEach(n, workers, func(i int) { errs[i] = fn(i) })
	return errors.Join(errs...)
}

// Map applies fn to every index and collects the results in order.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, workers, func(i int) { out[i] = fn(i) })
	return out
}

// MapErr is Map for fallible work. On any failure it returns nil results and
// the joined error.
func MapErr[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachErr(n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Chunks splits [0, n) into roughly equal contiguous ranges, at most
// maxChunks of them, each described by [Start, End). It never returns an
// empty chunk.
type Chunk struct{ Start, End int }

// SplitChunks partitions n items into at most maxChunks contiguous chunks.
func SplitChunks(n, maxChunks int) []Chunk {
	if n <= 0 || maxChunks <= 0 {
		return nil
	}
	if maxChunks > n {
		maxChunks = n
	}
	out := make([]Chunk, 0, maxChunks)
	base, rem := n/maxChunks, n%maxChunks
	start := 0
	for i := 0; i < maxChunks; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, Chunk{Start: start, End: start + size})
		start += size
	}
	return out
}

// ProcessChunks runs fn over contiguous chunks of [0, n) in parallel and
// returns per-chunk results in chunk order. Use this when per-item work is
// tiny and the payoff comes from amortizing over ranges (the per-partition
// pattern of the telemetry pipeline).
func ProcessChunks[T any](n, workers int, fn func(c Chunk) T) []T {
	chunks := SplitChunks(n, clampWorkers(workers, n))
	return Map(len(chunks), workers, func(i int) T { return fn(chunks[i]) })
}
