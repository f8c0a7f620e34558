// Command streamd is the live analysis service of the reproduction: it
// terminates the out-of-band telemetry transport (the §2 collection path)
// in the streaming-analysis plane and serves the paper's statistics over
// HTTP while the run is still in flight — the online counterpart of
// queryd, which serves the same analyses over the finished archive.
//
// Samples arrive over the length-prefixed TCP transport on -ingest, flow
// through stream.Pipeline's one queue and fold goroutine (windowed
// coarsening, fleet/cabinet/MSB rollups, edge detection, thermal bands,
// early warning), and are queryable at:
//
//	GET /api/v1/live/rollup        — fleet/cabinet/MSB power windows
//	GET /api/v1/live/edges         — detected power edges
//	GET /api/v1/live/bands         — thermal-band histogram + occupancy
//	GET /api/v1/live/earlywarning  — precursor→outcome lift statistics
//	GET /api/v1/live/health        — ingest counters, watermark, degradation
//	GET /healthz                   — liveness
//
// With -sim-minutes M the service feeds itself: it runs the simulation
// twin for M simulated minutes and exports every node's power and GPU
// core temperatures through real TCP exporters into its own ingest port,
// so the full transport → pipeline → API path is exercised end to end.
//
// Usage:
//
//	streamd [-addr :8090] [-ingest :9090] [-nodes N] [-sim-minutes M]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"time"

	"repro"
	"repro/internal/failures"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/units"
)

// options is the parsed flag set.
type options struct {
	addr       string
	ingest     string
	nodes      int
	simMinutes float64
	quiet      bool
}

// parseFlags parses args (without the program name).
func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("streamd", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8090", "HTTP listen address")
	fs.StringVar(&o.ingest, "ingest", "127.0.0.1:9090", "telemetry ingest (TCP) listen address")
	fs.IntVar(&o.nodes, "nodes", 72, "system size in nodes")
	fs.Float64Var(&o.simMinutes, "sim-minutes", 0,
		"feed the service from an embedded simulated run of this many simulated minutes (0 = external feed only)")
	fs.BoolVar(&o.quiet, "q", false, "suppress startup output")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.nodes <= 0 {
		return o, fmt.Errorf("streamd: -nodes must be positive")
	}
	if !(o.simMinutes >= 0) || math.IsInf(o.simMinutes, 1) {
		return o, fmt.Errorf("streamd: -sim-minutes must be finite and not negative")
	}
	return o, nil
}

// service wires the transport, the pipeline and the HTTP tier together;
// the caller serves and shuts down (serve.Run, with stopIngest before the
// HTTP drain).
type service struct {
	pipe *stream.Pipeline
	tsrv *telemetry.Server
	srv  *http.Server
	ln   net.Listener
	// feed reports the embedded simulated feed's result; nil without
	// -sim-minutes. sent is the number of samples the feed exported, set
	// before its result is sent on feed.
	feed chan error
	sent int64
}

// newService builds the pipeline, binds the ingest and HTTP listeners, and
// (with o.simMinutes > 0) starts the embedded feed.
func newService(o options, out io.Writer) (*service, error) {
	startTime := int64(0)
	var simCfg sim.Config
	if o.simMinutes > 0 {
		simCfg = repro.ScaledConfig(o.nodes, time.Duration(o.simMinutes*float64(time.Minute)))
		startTime = simCfg.StartTime
	}
	pipe, err := stream.NewPipeline(stream.Config{Nodes: o.nodes, StartTime: startTime})
	if err != nil {
		return nil, err
	}
	tsrv, err := telemetry.NewServer(o.ingest, pipe.Ingest, pipe.DroppedConns())
	if err != nil {
		pipe.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		tsrv.Close()
		pipe.Close()
		return nil, err
	}
	handler := stream.NewHandler(pipe, stream.ServeConfig{})
	s := &service{pipe: pipe, tsrv: tsrv, ln: ln, srv: serve.NewServer(handler, stream.DefaultTimeout)}
	if o.simMinutes > 0 {
		s.feed = make(chan error, 1)
		go func() {
			var err error
			s.sent, err = runFeed(simCfg, pipe, tsrv.Addr(), o.quiet, out)
			s.feed <- err
		}()
	}
	return s, nil
}

// runFeed runs the simulation twin and exports every observed node's input
// power and GPU core temperatures into the service's own ingest port
// through one TCP exporter per 288 nodes, the paper's 288:1 fan-in tier;
// failure events go straight to the pipeline (the paper's failure feed is
// a log, not a telemetry channel). It returns the number of samples it
// sent: once the service has stopped ingesting, a lossless run has the
// pipeline's Received equal to it. Every exporter it dialed is closed
// however it returns.
func runFeed(cfg sim.Config, pipe *stream.Pipeline, addr string, quiet bool, out io.Writer) (int64, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return 0, err
	}
	var exporters []*telemetry.Exporter
	// closeAll flushes and closes every exporter dialed and returns the
	// samples they sent.
	closeAll := func() (sent int64, err error) {
		for _, exp := range exporters {
			err = errors.Join(err, exp.Close())
			sent += exp.Sent()
		}
		return sent, err
	}
	for range (cfg.Nodes + units.FanInRatio - 1) / units.FanInRatio {
		exp, err := telemetry.Dial(addr)
		if err != nil {
			_, cerr := closeAll()
			return 0, errors.Join(err, cerr)
		}
		exporters = append(exporters, exp)
	}
	var pushErr error
	res, err := s.Run(sim.ObserverFunc(func(snap *sim.Snapshot) {
		if pushErr != nil {
			return
		}
		for i := range snap.NodeStat {
			if snap.NodeStat[i].Count == 0 {
				continue // node unobserved this window (telemetry loss)
			}
			exp := exporters[i/units.FanInRatio]
			if perr := exp.Push(telemetry.Sample{
				Node: topology.NodeID(i), Metric: telemetry.MetricInputPower,
				T: snap.T, Value: snap.NodeStat[i].Mean,
			}); perr != nil {
				pushErr = perr
				return
			}
			for g := 0; g < units.GPUsPerNode; g++ {
				v := snap.GPUCoreTemp[i][g]
				if math.IsNaN(v) {
					continue
				}
				if perr := exp.Push(telemetry.Sample{
					Node: topology.NodeID(i), Metric: telemetry.GPUCoreTempMetric(topology.GPUSlot(g)),
					T: snap.T, Value: v,
				}); perr != nil {
					pushErr = perr
					return
				}
			}
		}
		if len(snap.Failures) > 0 {
			pipe.IngestEvents(append([]failures.Event(nil), snap.Failures...))
		}
	}))
	sent, cerr := closeAll()
	if err := errors.Join(err, pushErr, cerr); err != nil {
		return 0, err
	}
	if !quiet {
		fmt.Fprintf(out, "feed complete: %d simulated windows, %d samples over %d exporter connections, %d failure events\n",
			res.Steps, sent, len(exporters), len(res.Failures))
	}
	return sent, nil
}

// stopIngest is the first half of stopping the service back to front: close
// the transport so no new batches arrive, then flush the pipeline through
// the operators. In-flight HTTP requests drain after it.
func (s *service) stopIngest() error {
	err := s.tsrv.Close()
	s.pipe.Close()
	return err
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("streamd: ")
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	s, err := newService(o, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	if !o.quiet {
		fmt.Printf("ingesting telemetry on tcp://%s\n", s.tsrv.Addr())
		fmt.Printf("serving live analyses on http://%s\n", s.ln.Addr())
	}
	if s.feed != nil {
		go func() {
			if ferr := <-s.feed; ferr != nil {
				log.Printf("embedded feed: %v", ferr)
			}
		}()
	}
	if err := serve.Run(context.Background(), s.srv, s.ln, s.stopIngest); err != nil {
		log.Fatal(err)
	}
}
