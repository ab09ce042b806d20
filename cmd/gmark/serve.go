package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"gmark/internal/serve"
)

// Requests are a URL or a job spec of at most a megabyte, so a client
// that has not finished sending one in these times is stalled or
// hostile. There is no WriteTimeout: the time an enc=text "all" slice
// of a large job takes to reach a slow client has no honest bound.
const (
	serveReadHeaderTimeout = 10 * time.Second
	serveReadTimeout       = 30 * time.Second
	serveIdleTimeout       = 2 * time.Minute
	// serveDrainTimeout is how long requests in flight get to finish
	// after SIGINT or SIGTERM.
	serveDrainTimeout = 30 * time.Second
)

// serveMain runs the deterministic slice server:
//
//	gmark serve -addr :8080
//
// Clients POST job specs to /v1/jobs and fetch graph shards and
// workload windows on demand; every slice is generated from the spec
// at request time and its bytes are pinned equal to what the batch
// sinks write for the same coordinates (see docs/SERVING.md). SIGINT
// and SIGTERM stop the listener and let requests in flight finish.
func serveMain(args []string) {
	addr, opt, err := parseServeFlags(args)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	srv := serve.New(opt)
	hs := &http.Server{
		Addr:              addr,
		Handler:           srv,
		ReadHeaderTimeout: serveReadHeaderTimeout,
		ReadTimeout:       serveReadTimeout,
		IdleTimeout:       serveIdleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	drained := make(chan error, 1)
	//lint:ignore concurrency joined by the receive from drained once ListenAndServe returns; until a signal arrives the process exits without it
	go func() {
		<-ctx.Done()
		stop() // a second signal kills the process the default way
		log.Printf("slice server draining (up to %s)", serveDrainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), serveDrainTimeout)
		defer cancel()
		drained <- hs.Shutdown(drainCtx)
	}()
	log.Printf("slice server listening on %s", addr)
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("serve: %v", err)
	}
	if err := <-drained; err != nil {
		log.Fatalf("serve: draining: %v", err)
	}
}

// parseServeFlags reads serve's flags into the listen address and the
// server options. A negative budget or limit is rejected rather than
// read as its default.
func parseServeFlags(args []string) (string, serve.Options, error) {
	fs := flag.NewFlagSet("gmark serve", flag.ExitOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		cacheMB    = fs.Int("cache-mb", 0, "cache budget in MiB: a quarter for predicates' emitted columns, the rest for rendered slices (0 = default 256 MiB)")
		maxJobs    = fs.Int("max-jobs", 0, "registered-job ceiling (0 = default 1024)")
		maxNodes   = fs.Int("max-nodes", 0, "largest graph a job may configure, in nodes (0 = default 10M)")
		maxQueries = fs.Int("max-queries", 0, "largest workload a job may configure, in queries (0 = default 1M)")
		par        = fs.Int("parallelism", 0, "generation workers per slice (0 = all cores; slice bytes are identical for any value)")
	)
	if err := fs.Parse(args); err != nil {
		return "", serve.Options{}, err
	}
	if fs.NArg() > 0 {
		return "", serve.Options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	cacheBytes, err := mibBytes("cache-mb", *cacheMB)
	if err = errors.Join(err,
		checkLimit("max-jobs", *maxJobs),
		checkLimit("max-nodes", *maxNodes),
		checkLimit("max-queries", *maxQueries),
		checkWorkers("parallelism", *par)); err != nil {
		return "", serve.Options{}, err
	}
	return *addr, serve.Options{
		CacheBytes:  cacheBytes,
		MaxJobs:     *maxJobs,
		MaxNodes:    *maxNodes,
		MaxQueries:  *maxQueries,
		Parallelism: *par,
	}, nil
}
