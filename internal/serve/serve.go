// Package serve is the graceful-HTTP-shutdown plumbing shared by
// rocosim -serve and rocoserve: serve a handler until SIGINT/SIGTERM,
// then drain in-flight requests under a timeout before forcing the
// remaining connections closed. It exists so both
// binaries shut down the same way — previously rocosim -serve lingered
// forever after a run and had to be killed.
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

// DefaultDrain is the in-flight drain timeout when Options.Drain is zero.
const DefaultDrain = 10 * time.Second

// Options parameterizes Start.
type Options struct {
	// Drain caps how long Wait lets in-flight requests finish after the
	// stop signal before forcing connections closed (0 = DefaultDrain).
	Drain time.Duration
	// BeforeDrain runs after the stop signal and before the drain begins
	// — the place to end long-lived streams (SSE subscribers, campaign
	// workers) that would otherwise hold the drain open to its timeout.
	BeforeDrain func()
	// Logf receives shutdown progress lines (nil discards them).
	Logf func(format string, args ...any)
}

// Server is an http.Server being drained by Wait when the process is
// told to stop.
type Server struct {
	srv  *http.Server
	errc chan error
	opts Options
}

// Start begins serving h on ln in a background goroutine and returns
// immediately. A nil h serves http.DefaultServeMux (where expvar and
// net/http/pprof register themselves). Call Wait to block until the
// process is told to stop.
func Start(ln net.Listener, h http.Handler, opts Options) *Server {
	if opts.Drain <= 0 {
		opts.Drain = DefaultDrain
	}
	s := &Server{
		srv:  &http.Server{Handler: h},
		errc: make(chan error, 1),
		opts: opts,
	}
	go func() { s.errc <- s.srv.Serve(ln) }()
	return s
}

// Wait blocks until SIGINT/SIGTERM arrives, runs BeforeDrain, then shuts
// the server down gracefully: no new connections, in-flight requests
// drained for at most Options.Drain, stragglers force-closed. It returns
// nil after a clean shutdown, the serve error if the listener failed
// first, or the shutdown error when the drain timed out.
func (s *Server) Wait() error {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	logf := s.opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	select {
	case err := <-s.errc:
		// The listener died on its own; nothing left to drain.
		return err
	case sig := <-sigc:
		logf("caught %v; draining for up to %v", sig, s.opts.Drain)
	}
	if s.opts.BeforeDrain != nil {
		s.opts.BeforeDrain()
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.Drain)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		logf("drain timed out; forcing connections closed")
		_ = s.srv.Close()
	}
	if serr := <-s.errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}
