package telemetry

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/topology"
)

// Network transport for the out-of-band path: the real system pushes
// metric changes over websockets on the management network (288 nodes per
// aggregator); this reproduction uses length-prefixed binary frames over
// TCP. One frame carries a batch of samples from one BMC.

// Frame format (little endian):
//
//	u32 payload length (bytes, excluding this prefix)
//	u16 sample count
//	per sample: u32 node | u16 metric | i64 t | f64 value
const (
	sampleWire   = 4 + 2 + 8 + 8
	maxFrameSize = 1 << 20

	// defaultReadTimeout bounds how long a connection may sit idle between
	// reads before the server drops it. The real aggregators see a sample
	// batch from every BMC at least once a second; two minutes of silence
	// means the exporter is gone or wedged.
	defaultReadTimeout = 2 * time.Minute

	// closeGrace is how long Close lets the open connections keep
	// delivering: what a peer sent before it hung up is read to its end
	// within it, and a peer that stays connected is cut off after it.
	closeGrace = time.Second
)

// EncodeFrame serializes a batch of samples.
func EncodeFrame(samples []Sample) ([]byte, error) {
	if len(samples) > 65535 {
		return nil, fmt.Errorf("telemetry: frame of %d samples exceeds u16", len(samples))
	}
	payload := 2 + len(samples)*sampleWire
	if payload > maxFrameSize {
		return nil, fmt.Errorf("telemetry: frame of %d bytes exceeds cap", payload)
	}
	buf := make([]byte, 4+payload)
	binary.LittleEndian.PutUint32(buf[0:], uint32(payload))
	binary.LittleEndian.PutUint16(buf[4:], uint16(len(samples)))
	off := 6
	for _, s := range samples {
		binary.LittleEndian.PutUint32(buf[off:], uint32(s.Node))
		binary.LittleEndian.PutUint16(buf[off+4:], uint16(s.Metric))
		binary.LittleEndian.PutUint64(buf[off+6:], uint64(s.T))
		binary.LittleEndian.PutUint64(buf[off+14:], math.Float64bits(s.Value))
		off += sampleWire
	}
	return buf, nil
}

// DecodeFrame parses one frame payload (without the length prefix) into a
// fresh slice.
func DecodeFrame(payload []byte) ([]Sample, error) {
	n, err := frameCount(payload)
	if err != nil {
		return nil, err
	}
	out := make([]Sample, n)
	decodeSamples(out, payload[2:])
	return out, nil
}

// frameCount validates a frame payload and returns its sample count: the
// length must be within the frame cap, as EncodeFrame's are, and exactly
// what the count header announces.
func frameCount(payload []byte) (int, error) {
	if len(payload) < 2 || len(payload) > maxFrameSize {
		return 0, fmt.Errorf("telemetry: frame payload of %d bytes outside [2, %d]", len(payload), maxFrameSize)
	}
	n := int(binary.LittleEndian.Uint16(payload))
	if want := 2 + n*sampleWire; len(payload) != want {
		return 0, fmt.Errorf("telemetry: frame length %d, want %d for %d samples",
			len(payload), want, n)
	}
	return n, nil
}

// decodeSamples is the one decode loop: it fills dst from len(dst) wire
// samples in body, which frameCount has sized.
//
//lint:allocfree
func decodeSamples(dst []Sample, body []byte) {
	le := binary.LittleEndian
	for i := range dst {
		w := body[i*sampleWire : (i+1)*sampleWire]
		dst[i] = Sample{
			Node:   topology.NodeID(le.Uint32(w)),           //lint:allow allocfree byte arithmetic, inlined
			Metric: Metric(le.Uint16(w[4:])),                //lint:allow allocfree byte arithmetic, inlined
			T:      int64(le.Uint64(w[6:])),                 //lint:allow allocfree byte arithmetic, inlined
			Value:  math.Float64frombits(le.Uint64(w[14:])), //lint:allow allocfree byte arithmetic, inlined
		}
	}
}

// Server is the aggregation tier's ingest endpoint: it accepts BMC
// connections and delivers decoded samples to the sink.
type Server struct {
	ln          net.Listener
	sink        func([]Sample)
	wg          sync.WaitGroup
	dropped     *atomic.Int64 // connections dropped for violations or stalls
	readTimeout time.Duration // the idle limit between reads
	// closeBy is Close's final read deadline (unix nanoseconds), 0 until
	// Close, which sets it once; conns are the connections being served,
	// for Close to set it on.
	closeBy atomic.Int64
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
}

// NewServer starts listening on addr (use "127.0.0.1:0" for tests) and
// serving connections. sink is called for every decoded frame, possibly
// from multiple goroutines concurrently. The batch is borrowed: each
// connection decodes into one buffer it reuses, so the slice is valid only
// until sink returns and a sink that keeps samples must copy them
// (stream.Pipeline.Ingest does). dropped counts the connections the server
// drops for protocol violations (oversized, short or undecodable frames)
// or read stalls of two minutes; nil gives the server a counter of its own.
func NewServer(addr string, sink func([]Sample), dropped *atomic.Int64) (*Server, error) {
	return newServer(addr, sink, dropped, defaultReadTimeout)
}

// newServer is NewServer with the idle limit between reads given.
func newServer(addr string, sink func([]Sample), dropped *atomic.Int64, readTimeout time.Duration) (*Server, error) {
	if sink == nil {
		return nil, fmt.Errorf("telemetry: nil sink")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if dropped == nil {
		dropped = new(atomic.Int64)
	}
	s := &Server{ln: ln, sink: sink, dropped: dropped, readTimeout: readTimeout, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.serve(conn, new(connBuffers))
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// connBuffers are one connection's payload and sample buffers, grown to
// the largest frame seen (at most maxFrameSize) and lent to the sink.
type connBuffers struct {
	payload []byte
	samples []Sample
}

// serve reads frames from conn and hands each to the sink until the peer
// closes between frames, a frame breaks the protocol, a read breaks or
// stalls, or Close's final deadline passes; the middle two count one
// dropped connection.
func (s *Server) serve(conn net.Conn, buf *connBuffers) {
	br := bufio.NewReaderSize(conn, 64<<10)
	var lenBuf [4]byte
	// arm pushes the read deadline forward before each wire read so a
	// connection that stops sending mid-frame (or between frames) times out
	// instead of pinning this goroutine. Once Close has begun the deadline
	// is its final one: Close stores it before setting it on the open
	// connections, so a push made before this load is overwritten by Close
	// and one made after it is replaced here.
	arm := func() bool {
		if conn.SetReadDeadline(time.Now().Add(s.readTimeout)) != nil {
			return false
		}
		if by := s.closeBy.Load(); by != 0 {
			return conn.SetReadDeadline(time.Unix(0, by)) == nil
		}
		return true
	}
	// lost counts a read error as a dropped connection unless Close's final
	// deadline ended it.
	lost := func(err error) {
		if s.closeBy.Load() == 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
			s.dropped.Add(1)
		}
	}
	for {
		if !arm() {
			return
		}
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			if !errors.Is(err, io.EOF) {
				lost(err) // stalled or broken mid-stream
			}
			return // EOF is a clean session end
		}
		// Bound the frame size BEFORE growing the buffer: a hostile or
		// corrupt length prefix must not drive a 4 GiB allocation.
		size := binary.LittleEndian.Uint32(lenBuf[:])
		if size > maxFrameSize || size < 2 {
			s.dropped.Add(1)
			return // protocol violation: drop the connection
		}
		if cap(buf.payload) < int(size) {
			// Exactly the frame: append's growth rule would overshoot the
			// cap by up to a quarter.
			buf.payload = make([]byte, size)
		}
		buf.payload = buf.payload[:size]
		if !arm() {
			return
		}
		if _, err := io.ReadFull(br, buf.payload); err != nil {
			lost(err) // truncated frame
			return
		}
		n, err := frameCount(buf.payload)
		if err != nil {
			s.dropped.Add(1)
			return
		}
		buf.samples = slices.Grow(buf.samples[:0], n)[:n]
		decodeSamples(buf.samples, buf.payload[2:])
		s.sink(buf.samples)
	}
}

// Close stops accepting, gives every open connection closeGrace to deliver
// what its peer has sent, and waits for them to finish. A peer that hung
// up is read to its end; one still connected when the grace runs out is
// cut off, and that is not a dropped connection.
func (s *Server) Close() error {
	by := time.Now().Add(closeGrace) //lint:allow determinism the shutdown grace bounds a wait; no sample or reply depends on it
	if !s.closeBy.CompareAndSwap(0, by.UnixNano()) {
		return nil // closed already
	}
	err := s.ln.Close()
	s.mu.Lock()
	for conn := range s.conns {
		_ = conn.SetReadDeadline(by) // fails only on a connection that is closing already
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Exporter is the node-side push client: it batches samples and writes
// frames to the aggregation tier. Not safe for concurrent use; run one
// exporter per BMC goroutine as the real system does.
type Exporter struct {
	conn  net.Conn
	bw    *bufio.Writer
	batch []Sample
	// BatchSize is the flush threshold (default 256 samples).
	BatchSize int
	sent      int64
}

// Dial connects an exporter to the aggregation tier.
func Dial(addr string) (*Exporter, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Exporter{
		conn:      conn,
		bw:        bufio.NewWriterSize(conn, 64<<10),
		BatchSize: 256,
	}, nil
}

// Push queues one sample, flushing when the batch fills.
func (e *Exporter) Push(s Sample) error {
	e.batch = append(e.batch, s)
	if len(e.batch) >= e.BatchSize {
		return e.Flush()
	}
	return nil
}

// Flush writes any queued samples as one frame.
func (e *Exporter) Flush() error {
	if len(e.batch) == 0 {
		return nil
	}
	frame, err := EncodeFrame(e.batch)
	if err != nil {
		return err
	}
	if _, err := e.bw.Write(frame); err != nil {
		return err
	}
	e.sent += int64(len(e.batch))
	e.batch = e.batch[:0]
	return e.bw.Flush()
}

// Sent returns the samples successfully written.
func (e *Exporter) Sent() int64 { return e.sent }

// Close flushes and closes the connection.
func (e *Exporter) Close() error {
	flushErr := e.Flush()
	closeErr := e.conn.Close()
	return errors.Join(flushErr, closeErr)
}
