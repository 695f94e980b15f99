package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"edn/internal/serve"
)

func cmdServe(fs *flag.FlagSet, stdin io.Reader, stdout io.Writer) func() error {
	httpAddr := fs.String("http", "", "serve the HTTP API on this address (e.g. :8080); empty = stdio only")
	stdio := fs.Bool("stdio", true, "speak the JSON-line protocol on stdin/stdout")
	workers := fs.Int("workers", 0, "concurrently running jobs (0 = GOMAXPROCS); excess jobs queue")
	cacheBytes := fs.Int64("cache-bytes", 0, "geometry/mask cache budget in bytes (0 = 256 MiB)")
	spans := fs.Bool("spans", true, "record a span tree per job, delivered on the terminal event")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (requires -http)")
	logOn := fs.Bool("log", false, "emit structured JSON job-completion logs on stderr")
	return func() error {
		if !*stdio && *httpAddr == "" {
			return fmt.Errorf("nothing to serve: enable -stdio or set -http")
		}
		if *pprofOn && *httpAddr == "" {
			return fmt.Errorf("-pprof needs -http: profiles are served over the HTTP API")
		}

		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()

		var logger *slog.Logger
		if *logOn {
			logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
		}
		srv := serve.New(serve.Options{
			Workers:      *workers,
			CacheBytes:   *cacheBytes,
			DisableSpans: !*spans,
			Pprof:        *pprofOn,
			Log:          logger,
		})

		errc := make(chan error, 2)
		if *httpAddr != "" {
			hs := &http.Server{Addr: *httpAddr, Handler: srv.Handler()}
			go func() { errc <- hs.ListenAndServe() }()
			go func() {
				<-ctx.Done()
				hs.Shutdown(context.Background()) //nolint:errcheck
			}()
			fmt.Fprintf(os.Stderr, "edn: serve: http on %s\n", *httpAddr)
		}
		if *stdio {
			go func() { errc <- srv.ServeStdio(ctx, stdin, stdout) }()
		}

		select {
		case err := <-errc:
			if err == http.ErrServerClosed || err == context.Canceled {
				return nil
			}
			return err
		case <-ctx.Done():
			srv.CancelAll()
			return nil
		}
	}
}
