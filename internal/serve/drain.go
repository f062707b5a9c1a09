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

// ListenAndDrain serves h on addr until ctx is cancelled or the process
// receives SIGINT/SIGTERM, then drains in-flight requests within the
// grace budget before returning — the shutdown path every long-running
// server in this repo shares (llmserve, queryd, the dashboards), so a
// deploy's TERM never cuts a response mid-body. The server bounds how
// long a client may take to send its headers. A listener error before
// any signal (a failed bind, typically) is returned immediately. A
// clean drain returns nil; requests still open past grace are abandoned
// and the Shutdown error returned.
func ListenAndDrain(ctx context.Context, addr string, h http.Handler, grace time.Duration, logf func(string, ...any)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return Drain(ctx, &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, ln, grace, logf)
}

// Drain is ListenAndDrain over an existing listener, for callers that
// bind port 0 and need the chosen address (tests, the queryload
// harness's self-hosted mode).
func Drain(ctx context.Context, srv *http.Server, ln net.Listener, grace time.Duration, logf func(string, ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		// Listener failure before any signal.
		return err
	case <-ctx.Done():
		stop() // restore default handling: a second signal kills hard
		logf("shutting down (draining in-flight requests, %s budget)", grace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		logf("bye")
		return nil
	}
}
