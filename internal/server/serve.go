package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"
)

// Service is a job front end as ListenAndServe runs it: the daemon's
// Server or the cluster's Coordinator.
type Service interface {
	Handler() *http.ServeMux
	Drain(ctx context.Context) error
	Close() error
}

// ListenAndServe runs a job front end as a process; name prefixes its log
// lines. It listens on addr before calling start, so the address is claimed
// (and written to addrFile, when set) while start replays the journal, and
// probes get an honest answer meanwhile: 200 /healthz, 503 /readyz, 503
// with Retry-After for everything else. Once start returns, the service's
// API is swapped in atomically. SIGINT or SIGTERM drains the service,
// giving running jobs grace to finish, then shuts the HTTP server down.
func ListenAndServe(name, addr, addrFile string, grace time.Duration, start func() (Service, error)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			return errors.Join(fmt.Errorf("writing -addr-file: %w", err), ln.Close())
		}
	}
	fmt.Fprintf(os.Stderr, "%s: listening on %s\n", name, bound)

	var handler atomic.Pointer[http.ServeMux]
	handler.Store(bootstrapHandler())
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().ServeHTTP(w, r)
	})}
	errCh := make(chan error, 1)
	go serveHTTP(hs, ln, errCh)

	svc, err := start()
	if err != nil {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		return errors.Join(err, hs.Shutdown(sctx))
	}
	handler.Store(svc.Handler())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errCh:
		// The listener died on its own; take the jobs down with it.
		if cerr := svc.Close(); cerr != nil {
			return fmt.Errorf("serve: %v; close: %w", err, cerr)
		}
		return err
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "%s: %v: draining (grace %s)\n", name, sig, grace)
		dctx, dcancel := context.WithTimeout(context.Background(), grace)
		defer dcancel()
		derr := svc.Drain(dctx)
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		if serr := hs.Shutdown(sctx); serr != nil && derr == nil {
			derr = serr
		}
		fmt.Fprintf(os.Stderr, "%s: drained\n", name)
		return derr
	}
}

// bootstrapHandler serves the pre-replay window: alive but not ready.
func bootstrapHandler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", healthz)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting"})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, &APIError{Status: http.StatusServiceUnavailable, Msg: "starting: journal replay in progress", RetryAfter: 1})
	})
	return mux
}

// serveHTTP runs the HTTP server and reports its exit; a separate function
// so the accept loop's goroutine shares nothing mutable with the caller.
func serveHTTP(hs *http.Server, ln net.Listener, errCh chan<- error) {
	err := hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	errCh <- err
}
