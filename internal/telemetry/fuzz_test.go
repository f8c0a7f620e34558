package telemetry

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
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
