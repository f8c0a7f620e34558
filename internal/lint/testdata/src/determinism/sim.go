// Package core is a determinism fixture loaded under in-scope import paths
// (a simulation package's, a cmd/ binary's).
package core

import (
	"math/rand"
	"sort"
	"time"
)

func WallClock() time.Time {
	return time.Now() // want `time.Now reads the wall clock`
}

func GlobalRand() float64 {
	return rand.Float64() // want `global rand.Float64 is not seed-reproducible`
}

// SeededRand builds an explicitly-seeded generator; the constructors are the
// sanctioned entry points.
func SeededRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func SumValues(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want `float64 accumulation across map iteration is order-dependent`
	}
	return total
}

// CountValues accumulates an integer, which is exact and commutative, so the
// iteration order cannot show through.
func CountValues(m map[string]float64) int {
	n := 0
	for range m {
		n += 1
	}
	return n
}

// SortedKeys is the collect-then-sort idiom: the append is rescued by the
// sort call after the loop.
func SortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func UnsortedKeys(m map[string]float64) []string {
	var unsorted []string
	for k := range m {
		unsorted = append(unsorted, k) // want `append across map iteration is order-dependent`
	}
	return unsorted
}

// Race lets the scheduler pick which ready channel wins.
func Race(a, b chan int) int {
	select { // want `select racing multiple channels picks a ready case at random`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// Poll has one communication and a default: nothing races.
func Poll(a chan int) int {
	select {
	case v := <-a:
		return v
	default:
		return 0
	}
}

// Annotated shows the per-line escape hatch.
func Annotated() time.Time {
	return time.Now() //lint:allow determinism timestamp only labels a log banner
}
