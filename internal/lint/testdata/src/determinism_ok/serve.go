// Package telemetry is the same kind of code as the determinism fixture but
// loaded under an exempt serving-layer path, where wall clocks and the
// global rand stream are legitimate. No diagnostics are expected.
package telemetry

import (
	"math/rand"
	"time"
)

func Stamp() time.Time {
	return time.Now()
}

func Jitter() time.Duration {
	return time.Duration(rand.Int63n(int64(time.Second)))
}

func SumLatencies(byHost map[string]float64) float64 {
	var total float64
	for _, v := range byHost {
		total += v
	}
	return total
}
