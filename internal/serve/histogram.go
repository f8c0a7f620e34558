package serve

import (
	"sync/atomic"
	"time"
)

// latencyBuckets is the histogram resolution: bucket i counts observations
// below 2^i units, the last bucket catches everything slower (2^25 us ~ 33 s,
// beyond any per-request timeout; 2^25 ns ~ 33 ms).
const latencyBuckets = 26

// LatencyHistogram is a lock-free log2-bucketed latency histogram in one
// unit: microseconds via Observe or nanoseconds via ObserveNS.
type LatencyHistogram struct {
	buckets [latencyBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one latency sample in microseconds.
func (h *LatencyHistogram) Observe(d time.Duration) { h.observe(d.Microseconds()) }

// ObserveNS records one latency sample in nanoseconds.
func (h *LatencyHistogram) ObserveNS(d time.Duration) { h.observe(d.Nanoseconds()) }

func (h *LatencyHistogram) observe(v int64) {
	v = max(v, 0)
	i := 0
	for x := v; x > 0 && i < latencyBuckets-1; x >>= 1 {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) in the
// histogram's unit: the upper edge of the bucket the quantile falls in.
func (h *LatencyHistogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < latencyBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if i == latencyBuckets-1 {
				return h.max.Load()
			}
			return 1 << i
		}
	}
	return h.max.Load()
}

// Snapshot summarizes the histogram.
func (h *LatencyHistogram) Snapshot() map[string]int64 {
	count := h.count.Load()
	mean := int64(0)
	if count > 0 {
		mean = h.sum.Load() / count
	}
	return map[string]int64{
		"count": count,
		"mean":  mean,
		"p50":   h.Quantile(0.50),
		"p90":   h.Quantile(0.90),
		"p99":   h.Quantile(0.99),
		"max":   h.max.Load(),
	}
}
