package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 1000
		var hits [1000]int32
		ForEach(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEachEmptyAndTiny(t *testing.T) {
	ForEach(0, 4, func(int) { t.Fatal("called on n=0") })
	ForEach(-5, 4, func(int) { t.Fatal("called on n<0") })
	var count int32
	ForEach(1, 100, func(int) { atomic.AddInt32(&count, 1) })
	if count != 1 {
		t.Errorf("n=1 ran %d times", count)
	}
}

func TestForEachErrJoinsAllErrors(t *testing.T) {
	errA := errors.New("a")
	err := ForEachErr(10, 4, func(i int) error {
		if i == 3 || i == 7 {
			return fmt.Errorf("fail %d: %w", i, errA)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, errA) {
		t.Error("joined error lost cause")
	}
	// All indices still ran.
	var ran int32
	_ = ForEachErr(10, 4, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i%2 == 0 {
			return errA
		}
		return nil
	})
	if ran != 10 {
		t.Errorf("only %d indices ran", ran)
	}
	if err := ForEachErr(5, 2, func(int) error { return nil }); err != nil {
		t.Errorf("all-success returned %v", err)
	}
}

func TestMapOrdered(t *testing.T) {
	got := Map(100, 8, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map[%d] = %d", i, v)
		}
	}
}

func TestMapErr(t *testing.T) {
	vals, err := MapErr(5, 2, func(i int) (int, error) { return i + 1, nil })
	if err != nil || len(vals) != 5 || vals[4] != 5 {
		t.Errorf("MapErr = %v, %v", vals, err)
	}
	vals, err = MapErr(5, 2, func(i int) (int, error) {
		if i == 2 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if err == nil || vals != nil {
		t.Error("MapErr must return nil results on failure")
	}
}

func TestSplitChunks(t *testing.T) {
	cs := SplitChunks(10, 3)
	if len(cs) != 3 {
		t.Fatalf("chunks = %v", cs)
	}
	// Must tile [0,10) exactly, sizes 4,3,3.
	if cs[0] != (Chunk{0, 4}) || cs[1] != (Chunk{4, 7}) || cs[2] != (Chunk{7, 10}) {
		t.Errorf("chunks = %v", cs)
	}
	if got := SplitChunks(2, 5); len(got) != 2 {
		t.Errorf("more chunks than items: %v", got)
	}
	if SplitChunks(0, 3) != nil || SplitChunks(5, 0) != nil {
		t.Error("degenerate splits must be nil")
	}
}

func TestSplitChunksProperty(t *testing.T) {
	f := func(rawN, rawK uint16) bool {
		n := int(rawN%5000) + 1
		k := int(rawK%64) + 1
		cs := SplitChunks(n, k)
		covered := 0
		prev := 0
		for _, c := range cs {
			if c.Start != prev || c.End <= c.Start {
				return false
			}
			covered += c.End - c.Start
			prev = c.End
		}
		return covered == n && prev == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestProcessChunks(t *testing.T) {
	sums := ProcessChunks(100, 4, func(c Chunk) int {
		s := 0
		for i := c.Start; i < c.End; i++ {
			s += i
		}
		return s
	})
	total := 0
	for _, s := range sums {
		total += s
	}
	if total != 99*100/2 {
		t.Errorf("chunk total = %d", total)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Error("DefaultWorkers must be >= 1")
	}
}

func BenchmarkForEach(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ForEach(10000, 0, func(j int) { _ = j * j })
	}
}
