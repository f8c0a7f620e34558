package serve

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
)

// ReplyCache is the encoded-reply cache under a service's pure routes
// (Kernel.GuardCached): the reply bytes per canonical request key. The
// first request of a key runs its compute; concurrent first requests wait
// for that one run, each on its own context; every later request is
// answered from the stored bytes until the byte budget displaces them,
// least recently used first.
//
// Nothing invalidates an entry: a route belongs here only if its answer is
// a pure function of the parsed request for as long as the service runs.
//
// Never stored: an error and a reply over the per-entry cap. Those go to
// the requests that shared the run and are computed again for the next one. A waiter never fails with its
// leader's context.Canceled or DeadlineExceeded — that was the leader's
// client, not the answer — it becomes, or waits for, the next leader.
type ReplyCache struct {
	// Always ReplyCacheBudget and ReplyCacheMaxEntry; fields only so the
	// package's tests can shrink them.
	budget, maxEntry int64

	mu      sync.Mutex
	entries map[string]*cacheEntry // stored, or in flight (elem == nil)
	lru     list.List              // stored entries, most recently used first
	bytes   int64

	hits, computes, waits, evictions atomic.Int64
	notStoredTooLarge, notModified   atomic.Int64
}

// The cache holds ReplyCacheBudget bytes of replies of at most
// ReplyCacheMaxEntry each. A dashboard's working set (a few hundred
// downsampled panels of 15–170 KB) fits several times over; a client
// sweeping a parameter can only displace entries, never grow the cache.
const (
	ReplyCacheBudget   = 64 << 20
	ReplyCacheMaxEntry = 256 << 10
)

// Encoded is one reply as the cache keeps it.
type Encoded struct {
	// Payload is the whole body, newline included — or, with Tail set, the
	// body up to the tail. What a compute returns stays its request's own
	// buffer: the cache copies it, once, if it stores it or another request
	// waited for it. What a hit or a wait gets is that copy, shared and not
	// to be modified.
	Payload []byte
	// Tail closes a reply whose last block describes the request rather
	// than the answer; nil for a reply that is all payload.
	Tail Tail
	// ETag is set by the cache when it stores the reply: a weak validator
	// over Payload, so it survives a restart over unchanged data.
	ETag string
}

// cacheEntry is one key's run. reply and err are written by the request
// that computes, before it closes done; waiters and elem (set once the
// reply is stored) are read and written under the cache's lock.
type cacheEntry struct {
	key     string
	done    chan struct{}
	reply   Encoded
	err     error
	waiters int
	elem    *list.Element
}

func (e *cacheEntry) cost() int64 { return int64(len(e.key) + len(e.reply.Payload)) }

var errReplyAborted = errors.New("serve: reply computation did not complete")

// NewReplyCache returns an empty cache with the fixed byte budget.
func NewReplyCache() *ReplyCache {
	return &ReplyCache{budget: ReplyCacheBudget, maxEntry: ReplyCacheMaxEntry, entries: map[string]*cacheEntry{}}
}

// Do answers key from the cache, or runs compute and stores what it
// returns. how says which: "hit" (stored bytes), "wait" (another request's
// run, shared) or "miss" (this request computed).
func (c *ReplyCache) Do(ctx context.Context, key string, compute func(context.Context) (Encoded, error)) (rep Encoded, how string, err error) {
	for waited := false; ; {
		c.mu.Lock()
		e, found := c.entries[key]
		stored := found && e.elem != nil
		switch {
		case stored:
			c.lru.MoveToFront(e.elem)
		case found:
			e.waiters++
		default:
			e = &cacheEntry{key: key, done: make(chan struct{}), err: errReplyAborted}
			c.entries[key] = e
		}
		c.mu.Unlock()
		if stored {
			c.hits.Add(1)
			return e.reply, "hit", nil
		}
		if !found {
			return c.lead(ctx, e, compute)
		}
		if !waited { // once per request, however many leaders it outlives
			waited = true
			c.waits.Add(1)
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			return Encoded{}, "", ctx.Err()
		}
		if e.err == nil {
			return e.reply, "wait", nil
		}
		if !errors.Is(e.err, context.Canceled) && !errors.Is(e.err, context.DeadlineExceeded) {
			return Encoded{}, "", e.err
		}
		// The leader's client gave up; this request has not. Go round.
	}
}

// lead runs compute for e, which this request put in the table. The reply
// it returns is compute's own; e gets a copy only if it is stored or some
// request waited for it, so a reply nobody else will read — the oversize raw
// range of a lone client — is never copied.
func (c *ReplyCache) lead(ctx context.Context, e *cacheEntry, compute func(context.Context) (Encoded, error)) (rep Encoded, how string, err error) {
	c.computes.Add(1)
	store := false
	keep := func() {
		e.reply = rep
		e.reply.Payload = bytes.Clone(rep.Payload)
	}
	defer func() { // also on a panic in compute: waiters get errReplyAborted
		if store {
			keep()
		}
		c.mu.Lock()
		if store {
			e.elem = c.lru.PushFront(e)
			c.bytes += e.cost()
			for c.bytes > c.budget && c.lru.Len() > 1 {
				old := c.lru.Remove(c.lru.Back()).(*cacheEntry)
				delete(c.entries, old.key)
				c.bytes -= old.cost()
				c.evictions.Add(1)
			}
		} else {
			delete(c.entries, e.key) // no request can start waiting on e now
		}
		shared := !store && e.err == nil && e.waiters > 0
		c.mu.Unlock()
		if shared {
			keep()
		}
		close(e.done)
	}()
	rep, err = compute(ctx)
	e.err = err
	if err != nil {
		return Encoded{}, "", err
	}
	if int64(len(e.key)+len(rep.Payload)) > c.maxEntry {
		c.notStoredTooLarge.Add(1)
	} else {
		sum := sha256.Sum256(rep.Payload)
		rep.ETag = `W/"` + hex.EncodeToString(sum[:12]) + `"`
		store = true
	}
	return rep, "miss", nil
}

// etagMatches reports whether an If-None-Match header names etag, by the
// weak comparison a conditional GET uses.
func etagMatches(header, etag string) bool {
	opaque := strings.TrimPrefix(etag, "W/")
	for header != "" {
		var tag string
		tag, header, _ = strings.Cut(header, ",")
		if tag = strings.TrimSpace(tag); tag == "*" || strings.TrimPrefix(tag, "W/") == opaque {
			return true
		}
	}
	return false
}

// Snapshot renders the counters for /debug/vars.
func (c *ReplyCache) Snapshot() map[string]int64 {
	c.mu.Lock()
	entries, bytes := c.lru.Len(), c.bytes
	c.mu.Unlock()
	return map[string]int64{
		"hits":                 c.hits.Load(),
		"computes":             c.computes.Load(),
		"waits":                c.waits.Load(),
		"not_stored_too_large": c.notStoredTooLarge.Load(),
		"not_modified":         c.notModified.Load(),
		"evictions":            c.evictions.Load(),
		"entries":              int64(entries),
		"bytes":                bytes,
	}
}
