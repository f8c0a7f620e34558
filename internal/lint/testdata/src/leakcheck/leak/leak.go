// Package leak is the leakcheck fixture: goroutines with and without a
// provable shutdown edge, spawned as literals, named functions, and through
// a call chain. The rule is tree-wide: no package scope decides it.
package leak

func SpawnNamed() {
	go runForever() // want `goroutine has no shutdown edge: leak\.runForever spins an unbounded loop`
}

// runForever never returns: the loop has no exit and consults no
// cancellation signal.
func runForever() {
	for {
		step()
	}
}

func step() {}

func SpawnLit() {
	go func() { // want `goroutine spins an unbounded loop with no cancellation path`
		for {
			step()
		}
	}()
}

// SpawnTransitive leaks through a call: the literal looks harmless but
// calls into the unexitable loop.
func SpawnTransitive() {
	go func() { // want `goroutine has no shutdown edge: leak\.runForever spins an unbounded loop`
		runForever()
	}()
}

// SpawnOK has a shutdown edge: the loop selects on a stop channel.
func SpawnOK(stop chan struct{}) {
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				step()
			}
		}
	}()
}

// SpawnRange drains a channel; close(ch) shuts it down.
func SpawnRange(ch chan int) {
	go func() {
		for v := range ch {
			_ = v
		}
	}()
}
