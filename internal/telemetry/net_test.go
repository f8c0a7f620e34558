package telemetry

import (
	"encoding/binary"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/topology"
)

func TestFrameRoundTrip(t *testing.T) {
	samples := []Sample{
		{Node: 0, Metric: MetricInputPower, T: 1577836800, Value: 1234.5},
		{Node: 4625, Metric: MetricGPU5MemTemp, T: -7, Value: math.NaN()},
		{Node: 17, Metric: MetricP1Temp, T: 0, Value: math.Inf(1)},
	}
	frame, err := EncodeFrame(samples)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) {
		t.Fatalf("decoded %d samples", len(got))
	}
	for i := range samples {
		a, b := samples[i], got[i]
		if a.Node != b.Node || a.Metric != b.Metric || a.T != b.T {
			t.Fatalf("sample %d metadata mismatch: %+v vs %+v", i, a, b)
		}
		if math.Float64bits(a.Value) != math.Float64bits(b.Value) {
			t.Fatalf("sample %d value mismatch", i)
		}
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(nodes []uint16, vals []float64) bool {
		n := len(nodes)
		if len(vals) < n {
			n = len(vals)
		}
		if n == 0 {
			return true
		}
		in := make([]Sample, n)
		for i := 0; i < n; i++ {
			in[i] = Sample{
				Node:   topology.NodeID(nodes[i]),
				Metric: Metric(uint16(i) % uint16(NumMetrics)),
				T:      int64(i) * 7,
				Value:  vals[i],
			}
		}
		frame, err := EncodeFrame(in)
		if err != nil {
			return false
		}
		out, err := DecodeFrame(frame[4:])
		if err != nil || len(out) != n {
			return false
		}
		for i := range in {
			if in[i].Node != out[i].Node || in[i].T != out[i].T ||
				math.Float64bits(in[i].Value) != math.Float64bits(out[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	if _, err := DecodeFrame(nil); err == nil {
		t.Error("nil payload accepted")
	}
	if _, err := DecodeFrame([]byte{5, 0, 1, 2}); err == nil {
		t.Error("truncated payload accepted")
	}
	// Oversized batch rejected on encode.
	big := make([]Sample, 70000)
	if _, err := EncodeFrame(big); err == nil {
		t.Error("oversized batch accepted")
	}
}

func TestServerExporterEndToEnd(t *testing.T) {
	var mu sync.Mutex
	received := map[[2]int64]float64{}
	var samples, frames atomic.Int64
	srv, err := NewServer("127.0.0.1:0", func(batch []Sample) {
		mu.Lock()
		defer mu.Unlock()
		for _, s := range batch {
			received[[2]int64{int64(s.Node), s.T}] = s.Value
		}
		samples.Add(int64(len(batch)))
		frames.Add(1)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const exporters = 4
	const perExporter = 1000
	var wg sync.WaitGroup
	for e := 0; e < exporters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			exp, err := Dial(srv.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			exp.BatchSize = 128
			for i := 0; i < perExporter; i++ {
				err := exp.Push(Sample{
					Node:   topology.NodeID(e),
					Metric: MetricInputPower,
					T:      int64(i),
					Value:  float64(e*100000 + i),
				})
				if err != nil {
					t.Errorf("push: %v", err)
					return
				}
			}
			if err := exp.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
			if exp.Sent() != perExporter {
				t.Errorf("sent %d, want %d", exp.Sent(), perExporter)
			}
		}(e)
	}
	wg.Wait()
	// Delivery is asynchronous: connections the exporters already closed may
	// still be waiting in the accept backlog, and Close only waits for
	// accepted connections. Wait for the data before shutting down.
	waitFor(t, "all samples", func() bool {
		return samples.Load() == exporters*perExporter
	})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for e := 0; e < exporters; e++ {
		for i := 0; i < perExporter; i++ {
			v, ok := received[[2]int64{int64(e), int64(i)}]
			if !ok {
				t.Fatalf("sample (%d, %d) lost", e, i)
			}
			if v != float64(e*100000+i) {
				t.Fatalf("sample (%d, %d) corrupted: %v", e, i, v)
			}
		}
	}
	if frames.Load() == 0 {
		t.Error("no frames counted")
	}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestServerDropsOversizedFramePrefix(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", func([]Sample) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A hostile length prefix far over maxFrameSize: the server must drop
	// the connection without attempting the allocation.
	var prefix [4]byte
	binary.LittleEndian.PutUint32(prefix[:], 1<<31)
	if _, err := conn.Write(prefix[:]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "oversized-frame drop", func() bool { return srv.dropped.Load() == 1 })
	// A short prefix (below the 2-byte count header) is also a violation.
	conn2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	binary.LittleEndian.PutUint32(prefix[:], 1)
	if _, err := conn2.Write(prefix[:]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "short-frame drop", func() bool { return srv.dropped.Load() == 2 })
}

func TestServerReadDeadlineDropsStalledExporter(t *testing.T) {
	var received atomic.Int64
	srv, err := newServer("127.0.0.1:0", func(b []Sample) { received.Add(int64(len(b))) }, nil, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A connection that writes half a frame and then stalls.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := EncodeFrame([]Sample{{Node: 1, Metric: MetricInputPower, T: 5, Value: 1.0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame[:6]); err != nil { // prefix + 2 bytes of payload
		t.Fatal(err)
	}
	waitFor(t, "stalled-connection drop", func() bool { return srv.dropped.Load() == 1 })

	// A healthy exporter on the same server still gets through afterwards.
	exp, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Push(Sample{Node: 2, Metric: MetricInputPower, T: 9, Value: 2.0}); err != nil {
		t.Fatal(err)
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "healthy frame after stall", func() bool { return received.Load() == 1 })
}

func TestServerDropsUndecodableFrame(t *testing.T) {
	var frames atomic.Int64
	srv, err := NewServer("127.0.0.1:0", func([]Sample) { frames.Add(1) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Valid prefix, payload whose sample count disagrees with its length.
	payload := []byte{100, 0, 1, 2, 3, 4}
	var prefix [4]byte
	binary.LittleEndian.PutUint32(prefix[:], uint32(len(payload)))
	if _, err := conn.Write(append(prefix[:], payload...)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "undecodable-frame drop", func() bool { return srv.dropped.Load() == 1 })
	if frames.Load() != 0 {
		t.Errorf("bad frame counted as ingested")
	}
}

func TestServerRejectsNilSink(t *testing.T) {
	if _, err := NewServer("127.0.0.1:0", nil, nil); err == nil {
		t.Error("nil sink accepted")
	}
}

func TestServerDoubleCloseSafe(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", func([]Sample) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func BenchmarkFrameEncodeDecode(b *testing.B) {
	samples := make([]Sample, 256)
	for i := range samples {
		samples[i] = Sample{
			Node: topology.NodeID(i), Metric: Metric(i % int(NumMetrics)),
			T: int64(i), Value: float64(i) * 1.5,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := EncodeFrame(samples)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeFrame(frame[4:]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSinkBatchIsBorrowed documents the sink contract: the server decodes
// every frame of a connection into one buffer, so a sink that keeps the
// slice instead of copying it finds the next frame in it.
func TestSinkBatchIsBorrowed(t *testing.T) {
	var mu sync.Mutex
	var kept [][]Sample // what a careless sink retains
	var copied []Sample // what a correct sink keeps
	var frameCount atomic.Int64
	srv, err := NewServer("127.0.0.1:0", func(batch []Sample) {
		mu.Lock()
		defer mu.Unlock()
		kept = append(kept, batch)
		copied = append(copied, batch...)
		frameCount.Add(1)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	exp, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	exp.BatchSize = 4
	const frames = 5
	for i := 0; i < frames*exp.BatchSize; i++ {
		if err := exp.Push(Sample{Node: topology.NodeID(i), Metric: MetricInputPower, T: int64(i), Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all frames", func() bool { return frameCount.Load() == frames })
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, s := range copied {
		if s.T != int64(i) || s.Node != topology.NodeID(i) {
			t.Fatalf("copied sample %d = %+v", i, s)
		}
	}
	// Every retained slice aliases the one buffer, which holds the last frame.
	for f, batch := range kept {
		if &batch[0] != &kept[0][0] {
			t.Fatalf("frame %d was decoded into a different buffer", f)
		}
		if batch[0].T != int64((frames-1)*exp.BatchSize) {
			t.Errorf("retained frame %d starts at t=%d: not overwritten by the last frame", f, batch[0].T)
		}
	}
}

// TestServeDoesNotAllocatePerFrame: after the first frame has sized the
// connection's buffers, reading, decoding and delivering a frame allocates
// nothing (it used to allocate the payload and the sample slice, 44 KB for
// a 1792-sample frame).
func TestServeDoesNotAllocatePerFrame(t *testing.T) {
	var delivered atomic.Int64
	srv, err := NewServer("127.0.0.1:0", func([]Sample) { delivered.Add(1) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := EncodeFrame(make([]Sample, 1792))
	if err != nil {
		t.Fatal(err)
	}
	send := func(n int) {
		t.Helper()
		want := delivered.Load() + int64(n)
		for i := 0; i < n; i++ {
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
		}
		for delivered.Load() < want {
			runtime.Gosched()
		}
	}
	send(50) // warm-up: buffers sized, connection goroutine running
	const frames = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	send(frames)
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / frames; per > 0.01 {
		t.Errorf("%.3f allocations per frame, want 0", per)
	}
}

// TestCloseEndsConnectionsThatStayOpen: Close returns although one peer
// stays connected and idle and another keeps sending, and every sample of
// an exporter that sent its frames and hung up before Close still reaches
// the sink; none of the three counts as a dropped connection. Connections
// are accepted in the order they were dialed, so once the sender's first
// frame is in, all three are being served.
func TestCloseEndsConnectionsThatStayOpen(t *testing.T) {
	const closedSamples = 1000
	var fromClosed, fromSender atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	srv, err := NewServer("127.0.0.1:0", func(b []Sample) {
		switch b[0].Node {
		case 1: // the closed exporter's first frame waits until Close has begun
			once.Do(func() { close(entered); <-release })
			fromClosed.Add(int64(len(b)))
		case 2:
			fromSender.Add(int64(len(b)))
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	exp, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	exp.BatchSize = 100
	for i := 0; i < closedSamples; i++ {
		if err := exp.Push(Sample{Node: 1, Metric: MetricInputPower, T: int64(i), Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the closed exporter's first frame", func() bool {
		select {
		case <-entered:
			return true
		default:
			return false
		}
	})
	sender, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	stop, sending := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sending)
		defer sender.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			if sender.Push(Sample{Node: 2, Metric: MetricInputPower, T: int64(i), Value: 2}) != nil || sender.Flush() != nil {
				return // the server has cut the connection off
			}
		}
	}()
	defer func() { close(stop); <-sending }()
	waitFor(t, "the sender's first frame", func() bool { return fromSender.Load() > 0 })

	time.AfterFunc(100*time.Millisecond, func() { close(release) })
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close still waits on its peers 2 s after the call")
	}
	if got := fromClosed.Load(); got != closedSamples {
		t.Errorf("the sink saw %d of the closed exporter's %d samples", got, closedSamples)
	}
	if d := srv.dropped.Load(); d != 0 {
		t.Errorf("dropped %d connections, want 0: Close's cut is not a drop", d)
	}
}
