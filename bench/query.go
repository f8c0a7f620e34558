package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// reply is what one request brought back. Bodies are kept only until the
// repetition boundary, where they are checked outside the timed region.
type reply struct {
	latency time.Duration
	status  int
	body    []byte
	err     error
}

// driveOps runs ops against base with a closed loop of clients: each client
// sends its next request only after the previous reply is fully read. It
// returns one reply per op, in op order, and the wall time of the list.
func driveOps(ctx context.Context, client *http.Client, base string, ops []queryOp, clients int) ([]reply, time.Duration) {
	out := make([]reply, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				out[i] = fetch(ctx, client, base+ops[i].URL)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// fetch issues one GET and reads the whole body; the latency is what the
// client observes, request to last byte.
func fetch(ctx context.Context, client *http.Client, url string) reply {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return reply{err: err}
	}
	resp, err := client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return reply{latency: time.Since(start), status: resp.StatusCode, body: body, err: err}
}

// queryVars is the part of queryd's /debug/vars the harness reads.
type queryVars struct {
	Cache struct {
		StoreHits      int64 `json:"store_hits"`
		StoreMisses    int64 `json:"store_misses"`
		StoreEvictions int64 `json:"store_evictions"`
	} `json:"cache"`
}

func readVars(ctx context.Context, client *http.Client, base string) (queryVars, error) {
	var v queryVars
	r := fetch(ctx, client, base+"/debug/vars")
	if r.err != nil {
		return v, r.err
	}
	if r.status != http.StatusOK {
		return v, fmt.Errorf("/debug/vars: status %d", r.status)
	}
	return v, json.Unmarshal(r.body, &v)
}

// runQuery is the query-scan and query-dash workloads: one queryd over the
// archive generated at set-up, warmed once, then the same seeded operation
// list repeated back to back by a closed loop of clients.
func (h *harness) runQuery(res *runResult, tr *tracer) error {
	sz := h.sz
	scan := res.Workload == wScan
	cacheMB, ops := sz.DashCacheMB, dashOps(res.Seed, sz)
	if scan {
		cacheMB, ops = sz.ScanCacheMB, scanOps(res.Seed, sz)
	}

	// Set-up: generate the archive, start queryd, warm it.
	setupStart := time.Now()
	archive := filepath.Join(h.work, "query-archive")
	if _, err := runBatch(h.ctx, h.binary("summitsim"),
		twinArgs(sz.ArchiveNodes, float64(sz.ArchiveDays), res.Seed, archive)...); err != nil {
		return err
	}
	srv, err := startServer(h.ctx, []string{"http"}, h.binary("queryd"),
		"-data", archive, "-addr", "127.0.0.1:0", "-nodes", strconv.Itoa(sz.ArchiveNodes),
		"-cache-mb", strconv.Itoa(cacheMB))
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			_, _ = srv.stop()
		}
	}()
	base := "http://" + srv.Addrs["http"]
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: sz.QueryClients}}
	defer client.CloseIdleConnections()
	check, err := newReplyChecker(archive, sz)
	if err != nil {
		return err
	}
	warm := warmOps(res.Workload, sz)
	warmReplies, _ := driveOps(h.ctx, client, base, warm, sz.QueryClients)
	res.set("setup_s", time.Since(setupStart).Seconds(), 1)
	check.all(res, warm, warmReplies)

	// Timed repetitions, back to back; counters and CPU time are read at
	// the repetition boundaries.
	varsBefore, err := readVars(h.ctx, client, base)
	if err != nil {
		return err
	}
	var qps, cpuMS []float64
	var latMS []float64
	byClass := map[string][]float64{}
	for rep := 0; rep < h.reps; rep++ {
		cpu0, err := srv.cpuTime()
		if err != nil {
			return err
		}
		replies, wall := driveOps(h.ctx, client, base, ops, sz.QueryClients)
		cpu1, err := srv.cpuTime()
		if err != nil {
			return err
		}
		if err := h.ctx.Err(); err != nil {
			return err
		}
		good := check.all(res, ops, replies)
		qps = append(qps, float64(good)/wall.Seconds())
		cpuMS = append(cpuMS, ms(cpu1-cpu0)/float64(len(ops)))
		for i, r := range replies {
			latMS = append(latMS, ms(r.latency))
			byClass[ops[i].Class] = append(byClass[ops[i].Class], ms(r.latency))
		}
	}
	varsAfter, err := readVars(h.ctx, client, base)
	if err != nil {
		return err
	}
	check.verifyAgainstArchive(res)
	stopped = true
	u, err := srv.stop()
	if err != nil {
		return err
	}

	n := len(latMS)
	res.set("ops_per_s", stats.Median(qps), len(qps))
	res.set("op_p50_ms", stats.Median(latMS), n)
	res.set("cpu_ms_per_op", stats.Median(cpuMS), len(cpuMS))
	res.set("cmd.queryd.ready_ms", ms(srv.Ready), 1)
	hits := varsAfter.Cache.StoreHits - varsBefore.Cache.StoreHits
	misses := varsAfter.Cache.StoreMisses - varsBefore.Cache.StoreMisses
	if hits+misses > 0 {
		res.set("store.cache_hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	res.set("store.cache_evictions", float64(varsAfter.Cache.StoreEvictions-varsBefore.Cache.StoreEvictions), 0)
	prefix := "loadgen.dash."
	if scan {
		prefix = "loadgen.scan."
		res.set("cmd.queryd.scan_peak_rss_mb", u.MaxRSSMB, 1)
		res.setTail("loadgen.scan_p95_ms", latMS, 95)
	} else {
		res.set("cmd.queryd.dash_peak_rss_mb", u.MaxRSSMB, 1)
		res.setTail("query_p95_ms", latMS, 95)
		res.setTail("loadgen.dash_p99_ms", latMS, 99)
	}
	for class, xs := range byClass {
		res.set(prefix+class+"_p50_ms", stats.Median(xs), len(xs))
	}
	if tr != nil {
		return h.traceQuery(res, tr, archive, cacheMB, ops)
	}
	return nil
}

// stripStats returns a reply body without its trailing "stats" block (the
// only part that legitimately differs between two answers to one URL).
func stripStats(body []byte) []byte {
	if i := bytes.LastIndex(body, []byte(`,"stats":{`)); i >= 0 {
		return body[:i]
	}
	return body
}

// bodyKey is the identity of a reply's payload, stats aside.
func bodyKey(body []byte) [sha256.Size]byte { return sha256.Sum256(stripStats(body)) }
