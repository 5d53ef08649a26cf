// Command colord is the coloring-simulation daemon: an HTTP JSON API
// over internal/serve that runs the paper's protocol as queued,
// cancellable jobs with streaming progress and Prometheus metrics.
//
// Endpoints:
//
//	POST   /v1/jobs                submit (429 + Retry-After under backpressure)
//	GET    /v1/jobs                list (?state=queued|running|done|failed|canceled|timed_out, ?limit=n)
//	GET    /v1/jobs/{id}           poll
//	GET    /v1/jobs/{id}/stream    NDJSON (or SSE with Accept: text/event-stream)
//	DELETE /v1/jobs/{id}           cancel
//	POST   /v1/sweeps              submit a parameter grid (n × seed × wakeup × faults × medium)
//	GET    /v1/sweeps/{id}         poll a sweep (aggregate once terminal)
//	GET    /v1/sweeps/{id}/stream  per-cell progress + final aggregate
//	DELETE /v1/sweeps/{id}         cancel a sweep and its cells
//	GET    /healthz                liveness
//	GET    /metrics                Prometheus text
//
// Example session:
//
//	colord -addr :8080 -store /var/lib/colord -workers 4 &
//	curl -s localhost:8080/v1/jobs -d '{"topology":{"kind":"udg","n":200},"seed":7}'
//	curl -sN localhost:8080/v1/jobs/j-000001/stream
//	curl -s localhost:8080/v1/sweeps -d '{"base":{"topology":{"kind":"udg","n":100}},"seed":[1,2,3],"wakeup":["synchronous","uniform"]}'
//	curl -s localhost:8080/metrics | grep colord_
//
// With -store, every accepted job is persisted before its 202 and the
// backlog survives SIGKILL: the next boot on the same directory resumes
// it. Several colord processes pointed at one -store directory form a
// replica group — the store's leases guarantee each job runs exactly
// once; give each process a distinct -replica name (the default is
// derived from the pid).
//
// SIGINT/SIGTERM starts a graceful drain: in-flight jobs get
// -drain-timeout to finish. With a durable store, interrupted jobs are
// released back to the queue instead of canceled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"radiocolor/internal/obs"
	"radiocolor/internal/serve"
	"radiocolor/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		storeDir = flag.String("store", "", "durable job-store directory (empty = in-memory, nothing survives the process)")
		replica  = flag.String("replica", "", "replica name for lease ownership (default: derived from the pid)")
		lease    = flag.Duration("lease", 10*time.Second, "job lease TTL; a replica silent this long is presumed dead")
		claim    = flag.Duration("claim-interval", 250*time.Millisecond, "idle poll period for work admitted by other replicas")
		queueCap = flag.Int("queue", 64, "queued-backlog admission bound (full backlog → 429)")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent job executions")
		sweepCap = flag.Int("max-sweep-cells", 256, "largest admissible sweep grid")
		cache    = flag.Int("cache", 128, "deployment cache entries (negative disables)")
		maxNodes = flag.Int("max-nodes", 200_000, "largest admissible job")
		drain    = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline for in-flight jobs")
		stream   = flag.Duration("stream-interval", 250*time.Millisecond, "progress sampling period of /stream")
		jobTO    = flag.Duration("job-timeout", 0, "wall-clock bound per job, 0 = unlimited (a request's timeout_ms overrides it)")
		fsync    = flag.Bool("fsync", false, "fsync the store log after every append (power-loss durability; page-cache durability without it)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ctrl := obs.NewControl()
	var st store.Store
	if *storeDir != "" {
		fs, err := store.OpenFile(*storeDir, store.FileOptions{Control: ctrl, Sync: *fsync})
		if err != nil {
			fmt.Fprintln(os.Stderr, "colord:", err)
			os.Exit(1)
		}
		defer fs.Close()
		st = fs
	}

	srv := serve.New(serve.Config{
		Store:          st,
		Replica:        *replica,
		LeaseTTL:       *lease,
		ClaimInterval:  *claim,
		Control:        ctrl,
		QueueCap:       *queueCap,
		Workers:        *workers,
		MaxSweepCells:  *sweepCap,
		CacheSize:      *cache,
		MaxNodes:       *maxNodes,
		StreamInterval: *stream,
		JobTimeout:     *jobTO,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	durable := "memory"
	if st != nil {
		durable = *storeDir
	}
	fmt.Fprintf(os.Stderr, "colord: listening on %s (store=%s queue=%d workers=%d)\n", *addr, durable, *queueCap, *workers)

	select {
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills hard
		fmt.Fprintf(os.Stderr, "colord: draining (deadline %s)\n", *drain)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Stop accepting connections first, then drain the job pool.
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "colord: http shutdown:", err)
		}
		if err := srv.Shutdown(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "colord: drain deadline hit, interrupted in-flight jobs:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "colord: drained cleanly")
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "colord:", err)
			os.Exit(1)
		}
	}
}
