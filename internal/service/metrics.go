package service

import (
	"fmt"
	"strings"
)

// counters aggregates the server's operational metrics. All fields are
// guarded by Server.mu; MetricsText snapshots them under the lock.
type counters struct {
	submitted int64 // jobs accepted (all paths)
	sims      int64 // simulations actually started (cache misses)
	hits      int64 // submissions served from the stored cache
	coalesced int64 // submissions coalesced onto an in-flight duplicate
	conflicts int64 // cache Put refusals: summary-hash conflicts (should stay 0)

	done     int64 // jobs finished successfully
	failed   int64 // jobs whose simulation errored
	canceled int64 // jobs canceled by client DELETE or shutdown

	journalErrs int64 // journal appends that failed (durability degraded)
}

// observe counts one job reaching a terminal status.
func (m *counters) observe(status string) {
	switch status {
	case StatusDone:
		m.done++
	case StatusFailed:
		m.failed++
	case StatusCanceled:
		m.canceled++
	}
}

// MetricsText renders the server's operational metrics in the
// Prometheus text exposition format: queue depth, worker utilization,
// cache effectiveness, job throughput and latency. It is served on the
// API's /metrics endpoint and can be registered onto a live inspector
// (inspect.Server.Register) so one scrape covers the simulation's
// interval registry and the service together.
func (s *Server) MetricsText() string {
	s.mu.Lock()
	m := s.m
	depth := s.queue.Len()
	busy := s.busy
	rec := s.rec
	s.mu.Unlock()

	var b strings.Builder
	gauge := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}

	gauge("minnowd_queue_depth", "Jobs queued and not yet running.", depth)
	gauge("minnowd_workers", "Worker shards (concurrent simulations).", s.shards)
	gauge("minnowd_workers_busy", "Worker shards currently simulating.", busy)
	gauge("minnowd_cache_entries", "Entries the result cache can serve.", s.cache.Len())

	counter("minnowd_jobs_submitted_total", "Jobs accepted for execution or cache service.", m.submitted)
	fmt.Fprintf(&b, "# HELP minnowd_jobs_total Jobs by terminal status.\n# TYPE minnowd_jobs_total counter\n")
	fmt.Fprintf(&b, "minnowd_jobs_total{status=\"done\"} %d\n", m.done)
	fmt.Fprintf(&b, "minnowd_jobs_total{status=\"failed\"} %d\n", m.failed)
	fmt.Fprintf(&b, "minnowd_jobs_total{status=\"canceled\"} %d\n", m.canceled)

	counter("minnowd_sims_total", "Simulations executed (cache misses).", m.sims)
	counter("minnowd_cache_hits_total", "Submissions served from the stored cache.", m.hits)
	counter("minnowd_cache_coalesced_total", "Submissions coalesced onto an identical in-flight run (singleflight).", m.coalesced)
	counter("minnowd_cache_conflicts_total", "Cache writes refused for a summary-hash conflict (determinism violations; must stay 0).", m.conflicts)
	dedup := m.hits + m.coalesced
	ratio := 0.0
	if dedup+m.sims > 0 {
		ratio = float64(dedup) / float64(dedup+m.sims)
	}
	gauge("minnowd_cache_hit_ratio", "Deduplicated share of resolved submissions: (hits+coalesced)/(hits+coalesced+sims).", fmt.Sprintf("%.6f", ratio))

	counter("minnowd_cache_evictions_total", "Entries dropped by the cache byte budget (each later reads back as a miss).", s.cache.Evictions())
	gauge("minnowd_cache_bytes", "Accounted size of the result cache.", s.cache.Bytes())
	gauge("minnowd_cache_capacity_bytes", "Configured cache byte budget (0 = unbounded).", s.cache.Budget())
	degraded := 0
	if s.cache.Degraded() {
		degraded = 1
	}
	gauge("minnowd_cache_degraded", "1 when disk failures forced the cache to memory-only persistence.", degraded)

	counter("minnowd_recovered_requeued_total", "Never-completed jobs re-enqueued by the startup journal replay.", rec.Requeued)
	counter("minnowd_recovered_completed_total", "Replayed jobs served straight from the cache at startup.", rec.Completed)
	counter("minnowd_journal_errors_total", "Journal appends that failed (durability degraded; must stay 0).", m.journalErrs)

	// Lifecycle latency histograms (internal/service/tracing), labeled by
	// terminal status and cache outcome. Each HistVec locks itself —
	// s.mu is already released.
	b.WriteString(s.hQueueWait.Text())
	b.WriteString(s.hExec.Text())
	b.WriteString(s.hSojourn.Text())
	b.WriteString(s.hCacheWrite.Text())
	gauge("minnowd_flightrec_events_seen", "Events ever recorded by the crash flight recorder (ring may have displaced older ones).", s.flight.Seen())
	return b.String()
}
