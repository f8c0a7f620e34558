package telemetry

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// FuzzDecodeFrame holds the ingest decoder to the frame grammar on any
// payload a peer can send: DecodeFrame refuses it, or the n samples it
// returns fill exactly 2 + 22·n bytes and encode back to the length prefix
// and the payload, byte for byte.
func FuzzDecodeFrame(f *testing.F) {
	frame, err := EncodeFrame([]Sample{
		{Node: 4625, Metric: MetricGPU5MemTemp, T: 1_577_836_800, Value: math.NaN()},
		{Node: 0, Metric: MetricInputPower, T: -7, Value: 1234.5},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame[4:])
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{2, 0, 0, 0}) // two samples announced, none sent
	// The most samples that fit the 1 MiB cap, plus one: well-formed by its
	// count header, but no encoder may write it.
	over := (maxFrameSize-2)/sampleWire + 1
	big := make([]byte, 2+over*sampleWire)
	binary.LittleEndian.PutUint16(big, uint16(over))
	f.Add(big)
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := DecodeFrame(payload)
		if err != nil {
			return
		}
		if len(payload) != 2+sampleWire*len(got) {
			t.Fatalf("%d-byte payload decoded to %d samples", len(payload), len(got))
		}
		back, err := EncodeFrame(got)
		if err != nil {
			t.Fatalf("%d decoded samples do not encode: %v", len(got), err)
		}
		want := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		if want = append(want, payload...); !bytes.Equal(back, want) {
			t.Fatalf("re-encoded frame differs from the %d-byte payload it was decoded from", len(payload))
		}
	})
}

// FuzzServerReadLoop writes arbitrary bytes into one Server connection
// and holds the read loop to the frame grammar: no panic; the sink
// receives exactly the samples of the whole valid frames before the first
// violation, as Received reports; every end but a clean EOF at a frame
// boundary adds exactly one to the dropped counter; and the payload buffer
// never grows past the frame cap.
func FuzzServerReadLoop(f *testing.F) {
	two, err := EncodeFrame([]Sample{
		{Node: 17, Metric: MetricInputPower, T: 1_577_836_800, Value: 2200},
		{Node: 4625, Metric: MetricGPU0CoreTemp, T: 1_577_836_801, Value: math.NaN()},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})           // a 4 GiB length prefix
	f.Add(two[:len(two)-3])                         // a truncated frame
	f.Add(append(append([]byte{}, two...), two...)) // two valid frames
	// A frame of 40 000 samples, then one at the cap: growing the first
	// frame's buffer by append's rule would overshoot the cap.
	f.Add(append(emptyFrame(40_000), emptyFrame((maxFrameSize-2)/sampleWire)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		wantSamples, clean := wireSamples(data)
		var sunk atomic.Int64
		s := &Server{sink: func(b []Sample) { sunk.Add(int64(len(b))) }, dropped: new(atomic.Int64)}
		client, server := net.Pipe()
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			client.Write(data) // fails once the server stops reading: ignored
			client.Close()
		}()
		buf := new(connBuffers)
		s.serve(tcpLike{server}, buf)
		server.Close()
		<-wrote
		if s.Received() != wantSamples || sunk.Load() != wantSamples {
			t.Errorf("received %d, sink saw %d, want the %d samples of the valid frames", s.Received(), sunk.Load(), wantSamples)
		}
		wantDropped := int64(1)
		if clean {
			wantDropped = 0
		}
		if got := s.dropped.Load(); got != wantDropped {
			t.Errorf("dropped %d, want %d (clean end %v)", got, wantDropped, clean)
		}
		if cap(buf.payload) > maxFrameSize {
			t.Errorf("payload buffer grew to %d bytes, past the %d-byte cap", cap(buf.payload), maxFrameSize)
		}
	})
}

// wireSamples reads data as the frame grammar defines it: the samples in
// the whole valid frames before the first violation, and whether the data
// ends cleanly, exactly at a frame boundary with no violation.
func wireSamples(data []byte) (samples int64, clean bool) {
	for len(data) > 0 {
		if len(data) < 4 {
			return samples, false
		}
		size := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if size < 2 || size > maxFrameSize || len(data) < size {
			return samples, false
		}
		n := int(binary.LittleEndian.Uint16(data))
		if size != 2+n*sampleWire {
			return samples, false
		}
		samples += int64(n)
		data = data[size:]
	}
	return samples, true
}

// tcpLike is a net.Pipe end whose read deadline always sets, as a TCP
// socket's does: net.Pipe refuses one once the peer has closed, which
// would end the read loop before it reads what the peer wrote.
type tcpLike struct{ net.Conn }

func (tcpLike) SetReadDeadline(time.Time) error { return nil }

// emptyFrame encodes n zero samples.
func emptyFrame(n int) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(2+n*sampleWire))
	b = binary.LittleEndian.AppendUint16(b, uint16(n))
	return append(b, make([]byte, n*sampleWire)...)
}
