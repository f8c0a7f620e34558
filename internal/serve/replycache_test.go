package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fixed is a compute that answers body and counts its runs.
func fixed(runs *int, body string) func(context.Context) (Encoded, error) {
	return func(context.Context) (Encoded, error) {
		*runs++
		return Encoded{Payload: []byte(body)}, nil
	}
}

// waitFor polls the cache's counters until one reaches want.
func waitFor(t *testing.T, c *ReplyCache, counter string, want int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); c.Snapshot()[counter] < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, never reached %d", counter, c.Snapshot()[counter], want)
		}
	}
}

// TestReplyCacheComputesOnceUnderConcurrency: 32 concurrent first requests
// run compute once; a waiter whose own deadline passes gets its own error
// while the computing request goes on to finish and store.
func TestReplyCacheComputesOnceUnderConcurrency(t *testing.T) {
	c := NewReplyCache()
	gate, reached := make(chan struct{}), make(chan struct{})
	runs := 0
	compute := func(context.Context) (Encoded, error) {
		runs++
		close(reached)
		<-gate
		return Encoded{Payload: []byte("answer")}, nil
	}
	const clients = 32
	hows := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, how, err := c.Do(context.Background(), "k", compute)
			if err != nil || string(rep.Payload) != "answer" || rep.ETag == "" {
				t.Errorf("client %d: %q, ETag %q, err %v", i, rep.Payload, rep.ETag, err)
			}
			hows[i] = how
		}(i)
	}
	<-reached
	waitFor(t, c, "waits", clients-1)
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := c.Do(expired, "k", compute); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired waiter: err %v, want its own deadline", err)
	}
	close(gate)
	wg.Wait()
	if got := strings.Count(strings.Join(hows, " "), "miss"); got != 1 {
		t.Errorf("outcomes %v: %d misses, want 1", hows, got)
	}
	if s := c.Snapshot(); runs != 1 || s["computes"] != 1 || s["waits"] != clients || s["entries"] != 1 || s["bytes"] != int64(len("k")+len("answer")) {
		t.Errorf("%d runs, cache = %v; want 1 compute, %d waits, 1 entry", runs, s, clients)
	}
	if _, how, _ := c.Do(context.Background(), "k", compute); how != "hit" || runs != 1 || c.Snapshot()["hits"] != 1 {
		t.Errorf("stored reply: %s, %d runs, cache = %v", how, runs, c.Snapshot())
	}
}

// TestReplyCacheNeverStores: an error and a reply over the per-entry cap are
// answered and computed again for the next request.
func TestReplyCacheNeverStores(t *testing.T) {
	c := NewReplyCache()
	c.budget, c.maxEntry = 1<<20, 64
	ctx := context.Background()
	boom := errors.New("boom")
	for i := int64(1); i <= 2; i++ {
		if _, _, err := c.Do(ctx, "err", func(context.Context) (Encoded, error) { return Encoded{}, boom }); err != boom {
			t.Fatalf("error run %d: %v", i, err)
		}
		big := make([]byte, 64) // + the key: over
		rep, how, err := c.Do(ctx, "big", func(context.Context) (Encoded, error) { return Encoded{Payload: big}, nil })
		if err != nil || how != "miss" || len(rep.Payload) != 64 || rep.ETag != "" {
			t.Fatalf("oversize run %d: %d bytes %s ETag %q, err %v", i, len(rep.Payload), how, rep.ETag, err)
		}
		if &rep.Payload[0] != &big[0] {
			t.Fatalf("oversize run %d: a reply nobody else reads was copied", i)
		}
		if s := c.Snapshot(); s["computes"] != 2*i || s["not_stored_too_large"] != i ||
			s["entries"] != 0 || s["bytes"] != 0 || s["hits"] != 0 {
			t.Fatalf("after round %d: cache = %v, want everything recomputed and nothing stored", i, s)
		}
	}
}

// TestReplyCacheSharesACopy: the computing request keeps its own buffer; a
// request that waited for an unstorable reply, and every hit on a stored
// one, reads a copy the computing request cannot touch.
func TestReplyCacheSharesACopy(t *testing.T) {
	c := NewReplyCache()
	c.maxEntry = 8
	for n, key := range []string{"k", "an oversize key"} {
		gate := make(chan struct{})
		own := []byte("answer")
		leader, waiter := make(chan Encoded), make(chan Encoded)
		go func() {
			rep, how, err := c.Do(context.Background(), key, func(context.Context) (Encoded, error) {
				<-gate
				return Encoded{Payload: own}, nil
			})
			if err != nil || how != "miss" {
				t.Errorf("%s leader: %s, err %v", key, how, err)
			}
			leader <- rep
		}()
		waitFor(t, c, "computes", int64(n+1))
		go func() {
			rep, how, err := c.Do(context.Background(), key, nil) // never the leader
			if err != nil || how != "wait" {
				t.Errorf("%s waiter: %s, err %v", key, how, err)
			}
			waiter <- rep
		}()
		waitFor(t, c, "waits", int64(n+1))
		close(gate)
		if rep := <-leader; &rep.Payload[0] != &own[0] {
			t.Errorf("%s: the leader's reply is not its own buffer", key)
		}
		copy(own, "XXXXXX") // the leader recycles its buffer
		if rep := <-waiter; string(rep.Payload) != "answer" {
			t.Errorf("%s waiter read %q: it shares the leader's buffer", key, rep.Payload)
		}
	}
	if rep, how, _ := c.Do(context.Background(), "k", nil); how != "hit" || string(rep.Payload) != "answer" {
		t.Errorf("stored reply: %s %q", how, rep.Payload)
	}
	if s := c.Snapshot(); s["entries"] != 1 || s["not_stored_too_large"] != 1 {
		t.Errorf("cache = %v, want one stored and one oversize", s)
	}
}

// TestReplyCachePanicReleasesWaiters: a compute that panics takes its own
// request down; the requests waiting on it get an error, not a hang, and
// the key is free for the next one.
func TestReplyCachePanicReleasesWaiters(t *testing.T) {
	c := NewReplyCache()
	gate := make(chan struct{})
	leaderDone := make(chan any)
	go func() {
		defer func() { leaderDone <- recover() }()
		_, _, _ = c.Do(context.Background(), "k", func(context.Context) (Encoded, error) {
			<-gate
			panic("analysis blew up")
		})
	}()
	waitFor(t, c, "computes", 1)
	waiterErr := make(chan error)
	go func() {
		_, _, err := c.Do(context.Background(), "k", nil) // never the leader
		waiterErr <- err
	}()
	waitFor(t, c, "waits", 1)
	close(gate)
	if r := <-leaderDone; r != "analysis blew up" {
		t.Errorf("leader recovered %v", r)
	}
	if err := <-waiterErr; err != errReplyAborted {
		t.Errorf("waiter: err %v, want %v", err, errReplyAborted)
	}
	runs := 0
	if rep, how, err := c.Do(context.Background(), "k", fixed(&runs, "ok")); err != nil || how != "miss" || string(rep.Payload) != "ok" {
		t.Errorf("after the panic: %q %s, err %v", rep.Payload, how, err)
	}
}

// TestReplyCacheWaiterOutlivesCancelledLeader: the leader's client hangs up
// mid-compute with two requests waiting. Neither fails with the leader's
// error: exactly one of them computes again, both are answered, and nothing
// of the cancelled run is stored. A cancelled leader nobody waits on just
// stops.
func TestReplyCacheWaiterOutlivesCancelledLeader(t *testing.T) {
	c := NewReplyCache()
	var mu sync.Mutex
	runs := 0
	compute := func(ctx context.Context) (Encoded, error) {
		mu.Lock()
		runs++
		first := runs == 1
		mu.Unlock()
		if first { // the leader's scan notices its context
			<-ctx.Done()
			return Encoded{Payload: []byte("half a scan")}, ctx.Err()
		}
		return Encoded{Payload: []byte("answer")}, nil
	}
	leaderCtx, hangUp := context.WithCancel(context.Background())
	leaderErr := make(chan error)
	go func() {
		_, _, err := c.Do(leaderCtx, "k", compute)
		leaderErr <- err
	}()
	waitFor(t, c, "computes", 1)
	hows := make(chan string, 2)
	for i := 0; i < 2; i++ {
		go func() {
			rep, how, err := c.Do(context.Background(), "k", compute)
			if err != nil || string(rep.Payload) != "answer" {
				t.Errorf("waiter: %q, err %v; want the answer", rep.Payload, err)
			}
			hows <- how
		}()
	}
	waitFor(t, c, "waits", 2)
	hangUp()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader: err %v, want its own cancellation", err)
	}
	a, b := <-hows, <-hows
	if (a == "miss") == (b == "miss") {
		t.Errorf("waiters finished %s and %s, want exactly one to have computed", a, b)
	}
	if s := c.Snapshot(); runs != 2 || s["computes"] != 2 || s["entries"] != 1 || s["waits"] != 2 {
		t.Errorf("%d runs, cache = %v; want 2 computes, the second one stored, each waiter counted once", runs, s)
	}

	alone, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(alone, "other", func(ctx context.Context) (Encoded, error) { return Encoded{}, ctx.Err() })
	if s := c.Snapshot(); !errors.Is(err, context.Canceled) || s["computes"] != 3 || s["entries"] != 1 {
		t.Errorf("lone cancelled leader: err %v, cache = %v", err, s)
	}
}

// TestReplyCacheByteBudget: a client sweeping a parameter displaces the
// least recently used entries and never grows the cache past its budget; an
// entry that keeps being asked for stays.
func TestReplyCacheByteBudget(t *testing.T) {
	c := NewReplyCache()
	const budget = 10_000
	c.budget, c.maxEntry = budget, 2_000
	ctx := context.Background()
	runs := 0
	body := strings.Repeat("x", 990)
	for i := 0; i < 200; i++ {
		if _, _, err := c.Do(ctx, fmt.Sprintf("sweep-%04d", i), fixed(&runs, body)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Do(ctx, "polled-key", fixed(&runs, body)); err != nil {
			t.Fatal(err)
		}
		if s := c.Snapshot(); s["bytes"] > budget || s["bytes"] != s["entries"]*1000 {
			t.Fatalf("after %d keys: cache = %v, budget %d", i+1, s, budget)
		}
	}
	s := c.Snapshot()
	if s["entries"] != 10 || s["evictions"] != 201-10 || s["hits"] != 199 || runs != 201 {
		t.Errorf("cache = %v after %d runs; want 10 entries, the polled key computed once", s, runs)
	}
	if _, how, _ := c.Do(ctx, "sweep-0199", fixed(&runs, body)); how != "hit" {
		t.Errorf("the newest swept key: %s, want hit", how)
	}
	if _, how, _ := c.Do(ctx, "sweep-0000", fixed(&runs, body)); how != "miss" {
		t.Errorf("the oldest swept key: %s, want miss (displaced)", how)
	}
}

// TestReplyCacheETag: the validator is a function of the payload alone — the
// same across two caches (a restart over unchanged data), different for a
// different payload — and If-None-Match compares weakly.
func TestReplyCacheETag(t *testing.T) {
	ctx := context.Background()
	runs := 0
	a, _, _ := NewReplyCache().Do(ctx, "k", fixed(&runs, "payload"))
	b, _, _ := NewReplyCache().Do(ctx, "other key", fixed(&runs, "payload"))
	d, _, _ := NewReplyCache().Do(ctx, "k", fixed(&runs, "rewritten"))
	if !strings.HasPrefix(a.ETag, `W/"`) || a.ETag != b.ETag || a.ETag == d.ETag {
		t.Errorf("ETags %q, %q (same payload), %q (different)", a.ETag, b.ETag, d.ETag)
	}
	strong := strings.TrimPrefix(a.ETag, "W/")
	for header, want := range map[string]bool{
		"":                        false,
		a.ETag:                    true,
		strong:                    true,
		"*":                       true,
		`"nope", ` + a.ETag:       true,
		`W/"nope" ,` + strong:     true,
		`"nope"`:                  false,
		strings.Trim(strong, `"`): false,
	} {
		if got := etagMatches(header, a.ETag); got != want {
			t.Errorf("If-None-Match %q against %q = %v, want %v", header, a.ETag, got, want)
		}
	}
}

// TestGuardCachedWaiterOutlivesDisconnectedLeader is the cancelled-leader
// rule over HTTP: the first client hangs up while two more wait on its run;
// they are answered 200 by one fresh compute, not failed by proxy.
func TestGuardCachedWaiterOutlivesDisconnectedLeader(t *testing.T) {
	k := NewKernel(time.Minute, 8, nil)
	c := NewReplyCache()
	var runs atomic.Int64
	h := k.GuardCached("r", c, func(url.Values) (string, func(context.Context) (any, error), error) {
		return "", func(ctx context.Context) (any, error) {
			if runs.Add(1) == 1 { // the scan that notices its client is gone
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return map[string]bool{"ok": true}, nil
		}, nil
	})
	get := func(ctx context.Context) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, "/r", nil).WithContext(ctx))
		return rec
	}
	leaderCtx, hangUp := context.WithCancel(context.Background())
	leader := make(chan *httptest.ResponseRecorder)
	go func() { leader <- get(leaderCtx) }()
	waitFor(t, c, "computes", 1)
	waiters := make(chan *httptest.ResponseRecorder, 2)
	for i := 0; i < 2; i++ {
		go func() { waiters <- get(context.Background()) }()
	}
	waitFor(t, c, "waits", 2)
	hangUp()
	if rec := <-leader; rec.Code == 200 || rec.Header().Get("ETag") != "" {
		t.Errorf("disconnected leader = %d %q", rec.Code, rec.Body)
	}
	for i := 0; i < 2; i++ {
		if rec := <-waiters; rec.Code != 200 || rec.Body.String() != `{"ok":true}`+"\n" {
			t.Errorf("waiter = %d %q, want the answer", rec.Code, rec.Body)
		}
	}
	if s := c.Snapshot(); runs.Load() != 2 || s["computes"] != 2 || s["entries"] != 1 {
		t.Errorf("%d runs, cache = %v; want one recompute, stored", runs.Load(), s)
	}
}
