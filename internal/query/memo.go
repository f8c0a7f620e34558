package query

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/source"
)

// memo is the compute-once table behind the /api/v1/analysis/* routes and
// /api/v1/fleet/summary: the encoded reply bytes per (route, cluster,
// parsed parameters). The first request of a key runs the analysis and
// encodes it; concurrent first requests wait for that one run (each on its
// own context), and every later request is answered from the stored bytes.
//
// Nothing invalidates an entry, because nothing the answer depends on can
// change under a running server: the engine and the archive source list
// their day partitions once, at open (store.Index), so a partition added
// later is invisible to every route alike, and a written partition is
// immutable. The job and failure logs are read by directory listing, but
// the collector writes them once, beside the run's first day. Serving a
// grown archive means restarting queryd, with or without the memo.
//
// Never stored: an error, an answer computed while a federated member was
// degraded (AllowPartial left a day NaN — the next request may find the
// shard healed), and a body over memoMaxEntryBytes. Those are returned to
// the requests that shared the run and recomputed for the next one.
type memo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry

	hits, computes, waits                atomic.Int64
	notStoredDegraded, notStoredTooLarge atomic.Int64
}

// memoEntry is one key's run. body and err are written by the request that
// computes, before it closes done; an entry still in the table once done is
// closed holds a stored body.
type memoEntry struct {
	done chan struct{}
	body []byte
	err  error
}

// The table holds at most memoMaxEntries answers of at most
// memoMaxEntryBytes each (64 MB in all): ten routes per cluster plus one
// early-warning entry per distinct window fit with room to spare, and a
// client sweeping the window parameter can only displace entries, never
// grow the table.
const (
	memoMaxEntries    = 256
	memoMaxEntryBytes = 256 << 10
)

var errMemoAborted = errors.New("query: analysis did not complete")

func newMemo() *memo { return &memo{entries: map[string]*memoEntry{}} }

// memoReply is a memoized route's answer: the encoded body, and in its
// Server-Timing header whether this request found it (or waited for it)
// rather than computed it and how long the request spent getting it.
func memoReply(body []byte, hit bool, start time.Time) *serve.Body {
	desc := "miss"
	if hit {
		desc = "hit"
	}
	return &serve.Body{JSON: body, Timing: fmt.Sprintf("memo;desc=%s, engine;dur=%.3f", desc, serve.DurMS(time.Since(start)))}
}

// do answers key from the table, or runs compute, encodes its value and
// stores the bytes. members are the clusters the answer reads, watched for
// federated degradation while compute runs.
func (m *memo) do(ctx context.Context, key string, members []*Cluster, compute func() (any, error)) (*serve.Body, error) {
	start := time.Now()
	m.mu.Lock()
	e, found := m.entries[key]
	if !found {
		e = &memoEntry{done: make(chan struct{}), err: errMemoAborted}
		m.entries[key] = e
	}
	m.mu.Unlock()
	if found {
		select {
		case <-e.done:
			m.hits.Add(1)
		default:
			m.waits.Add(1)
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if e.err != nil {
			return nil, e.err
		}
		return memoReply(e.body, true, start), nil
	}

	m.computes.Add(1)
	store := false
	defer func() { // also on a panic in compute: waiters get errMemoAborted
		m.mu.Lock()
		if !store {
			delete(m.entries, key)
		}
		for k, o := range m.entries { // full: displace any other finished entry
			if len(m.entries) <= memoMaxEntries {
				break
			}
			if o != e && o.finished() {
				delete(m.entries, k)
			}
		}
		m.mu.Unlock()
		close(e.done)
	}()
	before := partialResults(members)
	v, err := compute()
	if err != nil {
		e.err = err
		return nil, err
	}
	if e.body, e.err = serve.MarshalJSON(v); e.err != nil {
		return nil, e.err
	}
	switch {
	case partialResults(members) != before:
		m.notStoredDegraded.Add(1)
	case len(e.body) > memoMaxEntryBytes:
		m.notStoredTooLarge.Add(1)
	default:
		store = true
	}
	return memoReply(e.body, false, start), nil
}

func (e *memoEntry) finished() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// partialResults sums the degraded reads the members' federated sources
// have answered so far. A rise across a compute marks its answer as
// possibly partial; a concurrent degraded read of another route raises it
// too, which only costs a recompute.
func partialResults(members []*Cluster) (n int64) {
	for _, c := range members {
		if fed, ok := c.Source.(*source.FederatedSource); ok {
			n += fed.Stats().PartialResults
		}
	}
	return n
}

// snapshot renders the counters for /debug/vars.
func (m *memo) snapshot() map[string]int64 {
	m.mu.Lock()
	entries := len(m.entries)
	m.mu.Unlock()
	return map[string]int64{
		"hits":                 m.hits.Load(),
		"computes":             m.computes.Load(),
		"waits":                m.waits.Load(),
		"not_stored_degraded":  m.notStoredDegraded.Load(),
		"not_stored_too_large": m.notStoredTooLarge.Load(),
		"entries":              int64(entries),
	}
}
