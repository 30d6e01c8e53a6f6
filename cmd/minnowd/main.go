// Command minnowd serves Minnow simulations over HTTP: jobs are
// submitted as JSON configs, queued by priority, executed on a sharded
// worker pool, and deduplicated through a content-addressed result
// cache keyed by the canonical form of the validated config. Because
// every simulation is bit-reproducible, a cache hit returns the exact
// bytes a fresh run would produce — see docs/SERVICE.md for the API
// reference and cache-key canonicalization rules.
//
// Usage:
//
//	minnowd -addr :8080
//	minnowd -addr :8080 -shards 4 -cache-dir /var/lib/minnowd
//	minnowd -addr :8080 -job-max-cycles 500000000 -progress-every 1000000
//	minnowd -cache-dir /var/lib/minnowd -journal /var/lib/minnowd/journal.jsonl
//
// SIGINT/SIGTERM drains: submissions are refused with 503, accepted
// jobs finish, then the process exits. With -journal, accepted jobs
// additionally survive a crash (kill -9): the next start replays the
// journal, serves since-completed jobs from the cache, and re-enqueues
// the rest — determinism guarantees the re-runs reproduce the exact
// results the lost runs would have produced.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"minnow/internal/inspect"
	"minnow/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address (host:port)")
		shards   = flag.Int("shards", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cacheDir = flag.String("cache-dir", "", "persist the result cache under this directory (empty = memory only)")
		cacheMax = flag.Int64("cache-max-bytes", 0, "evict least-recently-used cache entries past this many bytes (0 = unbounded)")
		jpath    = flag.String("journal", "", "append-only job journal for crash recovery; replayed on startup (empty = no journal)")
		queueCap = flag.Int("queue-limit", 0, "refuse submissions beyond this many queued jobs with 429 (0 = 65536)")
		maxCyc   = flag.Int64("job-max-cycles", 0, "watchdog bound applied to jobs that leave MaxCycles 0: halt past this many simulated cycles (0 = simulator default)")
		progress = flag.Int64("progress-every", 0, "metrics-sampling cadence in simulated cycles for jobs that leave MetricsEvery 0; feeds /jobs/{id}/stream (0 = off)")
		inspAddr = flag.String("inspect", "", "also serve the live inspector (host pprof + metrics) on this address; minnowd's counters are registered onto its /metrics")
		traceDir = flag.String("trace-dir", "", "persist each job's merged lifecycle+simulation trace (Chrome-trace JSON) under this directory; also where flight-recorder dumps land on panic, watchdog halt, or SIGTERM (empty = in-memory only)")
		flightN  = flag.Int("flightrec-events", 0, "flight-recorder ring capacity: recent structured service events retained for /debug/flightrec and crash dumps (0 = 4096)")
		drainFor = flag.Duration("drain-timeout", 10*time.Minute, "on SIGINT/SIGTERM, cancel still-queued jobs after this long (running jobs ride their watchdog)")
	)
	flag.Parse()

	s, err := service.New(service.Config{
		Shards:          *shards,
		CacheDir:        *cacheDir,
		CacheMaxBytes:   *cacheMax,
		JournalPath:     *jpath,
		QueueLimit:      *queueCap,
		MaxCycles:       *maxCyc,
		ProgressEvery:   *progress,
		TraceDir:        *traceDir,
		FlightRecEvents: *flightN,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "minnowd:", err)
		os.Exit(1)
	}

	bound, stop, err := s.Serve(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "minnowd:", err)
		os.Exit(1)
	}
	fmt.Printf("minnowd: serving on %s (%d shards, cache %s)\n", bound, s.Shards(), cacheDesc(*cacheDir, s.Cache().Len()))
	if s.Cache().Degraded() {
		fmt.Fprintf(os.Stderr, "minnowd: WARNING: cache degraded to memory-only: %s\n", s.Cache().DegradedReason())
	}
	if rec := s.Recovery(); *jpath != "" && (rec.Requeued > 0 || rec.Completed > 0) {
		fmt.Printf("minnowd: journal replay: %d jobs re-enqueued, %d served from cache\n", rec.Requeued, rec.Completed)
	}
	if *traceDir != "" {
		fmt.Printf("minnowd: tracing to %s (GET /jobs/{id}/trace; flight-recorder dumps on crash)\n", *traceDir)
	}

	if *inspAddr != "" {
		insp, err := inspect.Start(*inspAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "minnowd:", err)
			os.Exit(1)
		}
		insp.Register(s.MetricsText)
		defer insp.Close()
		fmt.Printf("minnowd: inspector on %s (host pprof + service metrics)\n", insp.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("minnowd: draining (accepted jobs finish; submissions now refused)")
	if path, err := s.DumpFlight("sigterm"); err != nil {
		fmt.Fprintln(os.Stderr, "minnowd: flight-recorder dump failed:", err)
	} else if path != "" {
		fmt.Println("minnowd: flight recorder dumped to", path)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "minnowd: drain timeout, queued jobs canceled:", err)
	}
	stop() //nolint:errcheck // listener teardown on exit
	fmt.Println("minnowd: drained, bye")
}

// cacheDesc renders the startup cache summary line.
func cacheDesc(dir string, entries int) string {
	if dir == "" {
		return "in-memory"
	}
	return fmt.Sprintf("%s with %d entries", dir, entries)
}
