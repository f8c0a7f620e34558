// Package telemetry models Summit's out-of-band collection path (paper §2,
// Figure 3): per-node BMC emitters that push metric changes at 1 Hz, a
// websocket-style 288:1 fan-in tier, and the propagation/timestamping delay
// between sampling on the node and arrival at the point of analysis
// (mean ≈2.5 s, max 5 s for timestamping; ≈4.1 s end to end).
//
// The collection is out-of-band: nothing here back-pressures the compute
// simulation, mirroring the real system's no-application-impact property.
package telemetry

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/units"
)

// Metric identifies one per-node telemetry channel.
type Metric uint16

// Per-node metrics. The real nodes expose ~100 channels; the reproduction
// carries the ones the paper's analyses consume and treats the remainder as
// a count multiplier for throughput accounting.
const (
	MetricInputPower Metric = iota // node AC input power
	MetricP0Power                  // CPU0 socket power
	MetricP1Power
	MetricGPU0Power
	MetricGPU1Power
	MetricGPU2Power
	MetricGPU3Power
	MetricGPU4Power
	MetricGPU5Power
	MetricGPU0CoreTemp
	MetricGPU1CoreTemp
	MetricGPU2CoreTemp
	MetricGPU3CoreTemp
	MetricGPU4CoreTemp
	MetricGPU5CoreTemp
	MetricGPU0MemTemp
	MetricGPU1MemTemp
	MetricGPU2MemTemp
	MetricGPU3MemTemp
	MetricGPU4MemTemp
	MetricGPU5MemTemp
	MetricP0Temp
	MetricP1Temp
	NumMetrics // sentinel
)

var metricNames = [...]string{
	"input_power", "p0_power", "p1_power",
	"gpu0_power", "gpu1_power", "gpu2_power",
	"gpu3_power", "gpu4_power", "gpu5_power",
	"gpu0_core_temp", "gpu1_core_temp", "gpu2_core_temp",
	"gpu3_core_temp", "gpu4_core_temp", "gpu5_core_temp",
	"gpu0_mem_temp", "gpu1_mem_temp", "gpu2_mem_temp",
	"gpu3_mem_temp", "gpu4_mem_temp", "gpu5_mem_temp",
	"p0_temp", "p1_temp",
}

func (m Metric) String() string {
	if int(m) >= len(metricNames) {
		return fmt.Sprintf("metric%d", int(m))
	}
	return metricNames[m]
}

// GPUPowerMetric returns the power metric of GPU slot g.
func GPUPowerMetric(g topology.GPUSlot) Metric { return MetricGPU0Power + Metric(g) }

// GPUCoreTempMetric returns the core-temperature metric of GPU slot g.
func GPUCoreTempMetric(g topology.GPUSlot) Metric { return MetricGPU0CoreTemp + Metric(g) }

// GPUMemTempMetric returns the memory-temperature metric of GPU slot g.
func GPUMemTempMetric(g topology.GPUSlot) Metric { return MetricGPU0MemTemp + Metric(g) }

// CPUPowerMetric returns the power metric of CPU socket c.
func CPUPowerMetric(c topology.CPUSocket) Metric { return MetricP0Power + Metric(c) }

// CPUTempMetric returns the temperature metric of CPU socket c.
func CPUTempMetric(c topology.CPUSocket) Metric { return MetricP0Temp + Metric(c) }

// Sample is one emitted observation.
type Sample struct {
	Node   topology.NodeID
	Metric Metric
	T      int64 // sample time on the node, unix seconds
	Value  float64
}

// Arrival is a sample as seen at the point of analysis: timestamped after
// the fan-in delay.
type Arrival struct {
	Sample
	ArrivalT float64 // unix seconds with sub-second precision
}

// hashDelay derives a deterministic per-sample delay in [0.5, 5] seconds
// with mean ≈2.5 s, from the sample identity.
func hashDelay(node topology.NodeID, m Metric, t int64) float64 {
	z := rng.Mix64(uint64(node)*0x9e3779b97f4a7c15 + uint64(m)*0x94d049bb133111eb + uint64(t))
	u := float64(z>>11) / float64(1<<53) // [0,1)
	// Triangular-ish distribution over [0.5, 4.5] centred at 2.5.
	return 0.5 + 4.0*(u+uFold(u))/2
}

func uFold(u float64) float64 {
	v := u*2.0 + 0.13
	if v > 1 {
		v -= 1
	}
	return v
}

// Delay returns the modelled sampling-to-timestamping delay of a sample.
func Delay(s Sample) float64 { return hashDelay(s.Node, s.Metric, s.T) }

// ChangeFilter implements the BMC's push-on-change behaviour: consecutive
// identical values of the same (node, metric) channel are suppressed.
type ChangeFilter struct {
	last map[uint32]float64
}

// NewChangeFilter returns an empty filter.
func NewChangeFilter() *ChangeFilter {
	return &ChangeFilter{last: make(map[uint32]float64)}
}

func channelKey(n topology.NodeID, m Metric) uint32 {
	return uint32(n)<<8 | uint32(m)
}

// Pass reports whether the sample should be pushed (value changed or first
// observation of the channel).
func (f *ChangeFilter) Pass(s Sample) bool {
	k := channelKey(s.Node, s.Metric)
	if prev, ok := f.last[k]; ok && prev == s.Value { //lint:allow floatcompare change filter drops only bit-identical repeats
		return false
	}
	f.last[k] = s.Value
	return true
}

// Collector is the concurrent fan-in tier: shard goroutines accept pushes
// and the collector merges them into arrival-ordered batches.
type Collector struct {
	fanIn  int
	shards []chan Sample
	wg     sync.WaitGroup
	mu     sync.Mutex
	got    []Arrival
	count  int64
}

// NewCollector starts a collector whose shard count mirrors the given
// fan-in ratio for the node population (288:1 on Summit).
func NewCollector(nodes int, fanIn int) (*Collector, error) {
	if fanIn <= 0 {
		return nil, fmt.Errorf("telemetry: non-positive fan-in %d", fanIn)
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("telemetry: non-positive node count %d", nodes)
	}
	nShards := (nodes + fanIn - 1) / fanIn
	c := &Collector{fanIn: fanIn, shards: make([]chan Sample, nShards)}
	for i := range c.shards {
		ch := make(chan Sample, 4096)
		c.shards[i] = ch
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			local := make([]Arrival, 0, 1024)
			for s := range ch {
				local = append(local, Arrival{
					Sample:   s,
					ArrivalT: float64(s.T) + Delay(s),
				})
				if len(local) == cap(local) {
					c.flush(local)
					local = local[:0]
				}
			}
			c.flush(local)
		}()
	}
	return c, nil
}

func (c *Collector) flush(batch []Arrival) {
	if len(batch) == 0 {
		return
	}
	c.mu.Lock()
	c.got = append(c.got, batch...)
	c.count += int64(len(batch))
	c.mu.Unlock()
}

// Shards returns the fan-in shard count.
func (c *Collector) Shards() int { return len(c.shards) }

// Push routes a sample to its shard. Safe for concurrent use.
func (c *Collector) Push(s Sample) {
	c.shards[int(s.Node)/c.fanIn%len(c.shards)] <- s
}

// Drain closes the pipeline and returns all arrivals ordered by arrival
// time. The collector cannot be reused afterwards.
func (c *Collector) Drain() []Arrival {
	for _, ch := range c.shards {
		close(ch)
	}
	c.wg.Wait()
	sort.Slice(c.got, func(i, j int) bool {
		if c.got[i].ArrivalT != c.got[j].ArrivalT {
			return c.got[i].ArrivalT < c.got[j].ArrivalT
		}
		if c.got[i].Node != c.got[j].Node {
			return c.got[i].Node < c.got[j].Node
		}
		return c.got[i].Metric < c.got[j].Metric
	})
	return c.got
}

// IngestRate estimates the steady-state metrics/second a system of the
// given size produces (the paper quotes 460k metrics/s for Summit).
func IngestRate(nodes int) float64 {
	return float64(nodes) * float64(units.MetricsPerNode) / float64(units.TelemetrySampleIntervalSec)
}
