// Command queryd serves a telemetry archive (as written by summitsim) over
// HTTP: the online query tier of the reproduction,
// standing in for the interactive analyst workflow over the paper's 8.5 TB
// parquet archive.
//
// Endpoints:
//
//	GET /api/v1/datasets    — archive inventory (days, rows, time span, columns)
//	GET /api/v1/range       — range query: ?dataset=&column=[&node=][&t0=][&t1=][&step=]
//	GET /api/v1/rollup      — fleet rollup: ?dataset=&column=&group=cabinet|msb|fleet[&t0=][&t1=][&step=]
//	GET /api/v1/analysis/…  — server-side analyses (summary, edges, swings, bands,
//	                          earlywarning, overcooling, validation, failures, jobs)
//	GET /healthz            — liveness
//	GET /debug/vars         — queries served, cache hit/miss, bytes decoded, latency histogram
//	GET /debug/pprof/…      — Go profiling endpoints (only with -pprof)
//
// Every archive (every fleet member) must carry its run-meta, the commit
// record a run writes last, and a cluster dataset: queryd refuses to start
// without them, naming the directory. The run-meta sizes the cabinet/MSB
// rollups and the analyses; -nodes, if given, must agree with it. Both tiers
// share one decoded-table cache budget (-cache-mb).
//
// The server reads the archive as it was at open: day partitions are listed
// once and never change, so analysis answers are computed once and served
// from their encoded bytes afterwards, and a fleet-wide range on the 600 s
// grid is read from the rollup companion each node-power day carries in its
// file (a day without one is scanned). Restart queryd to serve days added
// since.
//
// Usage:
//
//	queryd -data /path/to/archive [-addr :8080] [-nodes N] [-cache-mb 256]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"

	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/source"
	"repro/internal/store"
)

// options is the parsed flag set.
type options struct {
	data    string
	addr    string
	nodes   int
	cacheMB int
	pprof   bool
	quiet   bool
}

// parseFlags parses args (without the program name).
func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("queryd", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.data, "data", "", "archive or fleet directory (required)")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address")
	fs.IntVar(&o.nodes, "nodes", 0, "expected system size: 0, or the node count every archive's run-meta records (else queryd refuses to start)")
	fs.IntVar(&o.cacheMB, "cache-mb", 256, "decoded-table cache budget in MiB (per cluster; 0 = no cache)")
	fs.BoolVar(&o.pprof, "pprof", false, "expose Go profiling endpoints under /debug/pprof/")
	fs.BoolVar(&o.quiet, "q", false, "suppress startup output")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.data == "" {
		return o, errors.New("queryd: -data is required")
	}
	if o.cacheMB < 0 {
		return o, errors.New("queryd: -cache-mb must not be negative")
	}
	return o, nil
}

// openCluster builds one serving member over an archive directory: one
// open (query.Open), which refuses an archive without its run-meta (and a
// -nodes that contradicts it), serving the raw routes from its engine and
// the analyses from the same handle.
func openCluster(o options, name, dir string, out io.Writer) (query.Cluster, error) {
	// One decoded-table cache backs both the raw query tier and the
	// archive-backed analyses: a byte decoded for /api/v1/range is a byte
	// /api/v1/analysis/* does not decode again, and vice versa.
	eng, err := query.Open(query.Config{
		Dir:   dir,
		Nodes: o.nodes,
		Cache: store.NewTableCache(int64(o.cacheMB) << 20),
	})
	if errors.Is(err, source.ErrNodesMismatch) {
		err = fmt.Errorf("-nodes %d: %w", o.nodes, err)
	}
	if err != nil {
		return query.Cluster{}, err
	}
	infos, err := eng.Datasets()
	if err != nil {
		return query.Cluster{}, err
	}
	if !o.quiet {
		for _, info := range infos {
			fmt.Fprintf(out, "%-12s dataset %-14s %3d partition(s) %9d rows  span [%d, %d]\n",
				name, info.Name, info.Days, info.Rows, info.MinTime, info.MaxTime)
		}
	}
	return query.Cluster{Name: name, Engine: eng, Source: eng.Source()}, nil
}

// newServer opens the engine(s) and binds the listener; the caller serves
// and shuts down (serve.Run). -data may be a single archive or a fleet root
// (a directory with a fleet.json).
func newServer(o options, out io.Writer) (*http.Server, net.Listener, error) {
	var clusters []query.Cluster
	manifest, ferr := source.DiscoverFleet(o.data)
	switch {
	case ferr == nil:
		for _, e := range manifest.Clusters {
			c, err := openCluster(o, e.Name, e.Path(o.data), out)
			if err != nil {
				return nil, nil, fmt.Errorf("queryd: cluster %s: %w", e.Name, err)
			}
			clusters = append(clusters, c)
		}
	case errors.Is(ferr, source.ErrNotFleet):
		c, err := openCluster(o, "", o.data, out)
		if err != nil {
			return nil, nil, err
		}
		clusters = append(clusters, c)
	default:
		return nil, nil, ferr
	}
	handler, err := query.NewFleetHandler(clusters, query.ServerConfig{})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return nil, nil, err
	}
	// -pprof mounts the Go profiler in front of the query routes so the
	// serving path can be profiled under real HTTP load (see
	// EXPERIMENTS.md, "Profiling the read path"). Off by default: queryd
	// may face untrusted readers, profiles should be opt-in.
	var root http.Handler = handler
	if o.pprof {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		root = mux
	}
	return serve.NewServer(root, query.DefaultTimeout), ln, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("queryd: ")
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	srv, ln, err := newServer(o, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	if !o.quiet {
		fmt.Printf("serving %s on http://%s\n", o.data, ln.Addr())
	}
	// Until SIGINT/SIGTERM; then stop accepting and let in-flight queries
	// finish.
	if err := serve.Run(context.Background(), srv, ln, nil); err != nil {
		log.Fatal(err)
	}
}
