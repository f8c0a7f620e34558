package serve_test

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestRunDrainsBackToFront: told to stop while a request is in flight, Run
// first runs the service's pre-drain step, then lets the request finish —
// here the request cannot finish until the pre-drain step has run, so a
// drain that started first would time out — and returns nil.
func TestRunDrainsBackToFront(t *testing.T) {
	inFlight, preDrained := make(chan struct{}), make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(inFlight)
		<-preDrained
		_, _ = io.WriteString(w, "final state")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(mux, time.Second)
	if srv.ReadHeaderTimeout != 5*time.Second || srv.WriteTimeout != 31*time.Second || srv.IdleTimeout != 2*time.Minute {
		t.Errorf("server timeouts = %v / %v / %v", srv.ReadHeaderTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	ran := make(chan error, 1)
	go func() {
		ran <- serve.Run(ctx, srv, ln, func() error {
			close(preDrained)
			return nil
		})
	}()

	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- result{string(b), err}
	}()
	<-inFlight
	stop()

	select {
	case err := <-ran:
		if err != nil {
			t.Errorf("Run = %v after a clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return: the HTTP drain started before the pre-drain step")
	}
	if r := <-got; r.err != nil || r.body != "final state" {
		t.Errorf("in-flight request = %q, %v; want it to complete", r.body, r.err)
	}
	if _, err := http.Get("http://" + ln.Addr().String() + "/slow"); err == nil {
		t.Error("listener still accepting after Run returned")
	}
}

// TestRunReportsServeFailure: a listener that is already closed is an
// error from Run, not a hang.
func TestRunReportsServeFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	if err := serve.Run(context.Background(), serve.NewServer(http.NotFoundHandler(), time.Second), ln, nil); err == nil {
		t.Error("Run on a closed listener returned nil")
	}
}
