package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// drainTimeout is how long Run waits for in-flight requests once told to
// stop.
const drainTimeout = 10 * time.Second

// NewServer returns the http.Server a daemon runs h on. timeout is the
// per-request deadline the kernel enforces; WriteTimeout backs it up with
// headroom for slow readers of large responses.
func NewServer(h http.Handler, timeout time.Duration) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      timeout + 30*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// Run serves srv on ln until ctx is cancelled or the process gets SIGINT or
// SIGTERM, then shuts down back to front: preDrain (nil: nothing) stops
// whatever feeds the service — streamd closes its transport and flushes the
// pipeline, so requests still in flight read the final state — and then the
// listener closes and in-flight requests get drainTimeout to finish. It
// returns nil after a clean drain, and the error if serving itself failed.
func Run(ctx context.Context, srv *http.Server, ln net.Listener, preDrain func() error) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	var perr error
	if preDrain != nil {
		perr = preDrain()
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := errors.Join(perr, srv.Shutdown(drainCtx))
	<-errc // Serve returned the moment Shutdown began
	return err
}
