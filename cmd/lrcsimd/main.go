// Command lrcsimd is the simulator as a service: a long-running daemon
// that accepts evaluation sweeps — the paper's matrix down to a single
// cell — over HTTP/JSON, executes them on a shared worker pool,
// deduplicates identical submissions by content fingerprint, persists
// every result in an indexed segment store (so a re-submitted experiment
// — even across daemon restarts — is served without re-simulation),
// streams each sweep's job lifecycle events to its clients over SSE, and
// serves rendered HTML reports and Perfetto traces live.
//
// Usage:
//
//	lrcsimd [-addr 127.0.0.1:7077] [-store DIR] [-j N] [-grace 30s]
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener stops
// accepting, in-flight sweeps drain (bounded by -grace, after which they
// are canceled cooperatively), the event bus closes every streaming
// client, and the store is flushed and closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"lazyrc/internal/api"
	"lazyrc/internal/obs"
	"lazyrc/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lrcsimd: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:7077", "listen address")
		storeDir = flag.String("store", "", "segment-store directory for persistent results (empty: in-memory only)")
		workers  = flag.Int("j", runtime.GOMAXPROCS(0), "simulation worker count")
		grace    = flag.Duration("grace", 30*time.Second, "shutdown drain budget before in-flight work is canceled")
		version  = flag.Bool("version", false, "print build info and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("lrcsimd", obs.ReadBuildInfo().String())
		return
	}
	if err := run(*addr, *storeDir, *workers, *grace); err != nil {
		log.Fatal(err)
	}
}

func run(addr, storeDir string, workers int, grace time.Duration) error {
	// Two log streams, one destination: the legacy line logger keeps the
	// startup/shutdown banner; slog carries the structured request and
	// job-lifecycle records the daemon's observability layer emits.
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	var st *store.Store
	if storeDir != "" {
		var err error
		st, err = store.Open(storeDir)
		if err != nil {
			return err
		}
		if n := st.Recovered(); n > 0 {
			log.Printf("store: dropped %d corrupt line(s) in %s; affected results will re-simulate", n, storeDir)
		}
		log.Printf("store: %s (%d results)", storeDir, st.Len())
	}

	svc := api.NewService(workers, st, logger)
	srv := &http.Server{Handler: api.NewServer(svc)}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("listening on http://%s (%d workers)", ln.Addr(), workers)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		log.Printf("shutting down (drain budget %s)", grace)
	case err := <-errc:
		if st != nil {
			st.Close()
		}
		return fmt.Errorf("serve: %w", err)
	}

	// Orderly teardown. The service drains first (new submissions get
	// 503, in-flight sweeps finish or are canceled at the grace budget)
	// and its bus closes, which ends every SSE stream — only then can
	// srv.Shutdown see idle connections and return promptly.
	shutCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := svc.Close(shutCtx); err != nil {
		log.Printf("drain: %v (in-flight work was canceled)", err)
	}
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if st != nil {
		if err := st.Close(); err != nil {
			return fmt.Errorf("store close: %w", err)
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("bye")
	return nil
}
