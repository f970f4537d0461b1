//! The server's metric surface: one [`snc_metrics::Registry`] per
//! process, the reactor instruments both tiers register on theirs, and
//! the scrape-time sync that mirrors pre-existing counters (caches,
//! jobs) onto the registry.
//!
//! ## Data flow
//!
//! Hot-path instruments — request latency histograms, reactor tick
//! timers, connection gauges and reaper/shed totals — are recorded
//! *live* (a few relaxed atomics per event, no locks on the recording
//! side). Values that already have an owner elsewhere — cache
//! hit/miss/eviction tallies, jobs stored — are **mirrored at scrape time**
//! instead: the `GET /metrics` handler copies them into registry
//! counters/gauges just before rendering. Mirroring avoids giving the
//! registry closures that capture server state (the workspace's
//! ownership rule: nothing that outlives a request may own the worker
//! pool, even transitively), keeps `/healthz` as the compatibility
//! surface it always was, and costs one copy per scrape instead of one
//! indirection per request.
//!
//! Metric names follow the fleet convention `snc_<layer>_<name>_<unit>`
//! (see `snc_metrics`): `snc_server_*` for the request plane,
//! `snc_reactor_*` for the event loop, `snc_solver_*` for stage
//! timers, `snc_cache_*` for both caches.

use snc_maxcut::{CacheStats, StageTimings};
use snc_metrics::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// The reactor's instruments, registered on the owning service's
/// registry (so one scrape covers both) and recorded live by the loop.
/// Names are `snc_reactor_*` on both tiers; the reaper and shedding
/// tallies carry the service layer (`snc_server_*`, `snc_router_*`).
#[derive(Debug)]
pub struct ReactorMetrics {
    /// Time the reactor spent blocked in the poller per tick (µs).
    pub poll_wait_us: Arc<Histogram>,
    /// Time the reactor spent doing work per tick (µs).
    pub work_us: Arc<Histogram>,
    /// Reactor loop iterations.
    pub ticks: Arc<Counter>,
    /// Connections currently owned by the reactor (also the budget the
    /// acceptor sheds against).
    pub connections_active: Arc<Gauge>,
    /// Connections currently parked on a dispatched request.
    pub connections_waiting: Arc<Gauge>,
    /// Completions sitting in the mailbox.
    pub mailbox_depth: Arc<Gauge>,
    /// Connections closed by the idle-deadline reaper.
    pub connections_reaped: Arc<Counter>,
    /// Accepts shed with a fast 503 over the connection budget.
    pub connections_shed: Arc<Counter>,
}

impl ReactorMetrics {
    /// Registers the reactor instruments on `registry`; `layer` names
    /// the service (`server`, `router`) in the reaped/shed totals.
    pub fn register(registry: &Registry, layer: &str) -> ReactorMetrics {
        ReactorMetrics {
            poll_wait_us: registry.histogram(
                "snc_reactor_poll_wait_us",
                "Time the reactor spent blocked waiting for readiness per tick",
                &[],
            ),
            work_us: registry.histogram(
                "snc_reactor_work_us",
                "Time the reactor spent processing events per tick",
                &[],
            ),
            ticks: registry.counter("snc_reactor_ticks_total", "Reactor loop iterations", &[]),
            connections_active: registry.gauge(
                "snc_reactor_connections_active",
                "Connections currently owned by the reactor",
                &[],
            ),
            connections_waiting: registry.gauge(
                "snc_reactor_connections_waiting",
                "Connections parked on an in-flight dispatch",
                &[],
            ),
            mailbox_depth: registry.gauge(
                "snc_reactor_mailbox_depth",
                "Dispatch completions queued in the mailbox",
                &[],
            ),
            connections_reaped: registry.counter(
                &format!("snc_{layer}_connections_reaped_total"),
                "Connections closed by the idle-deadline reaper",
                &[],
            ),
            connections_shed: registry.counter(
                &format!("snc_{layer}_connections_shed_total"),
                "Accepts shed with a fast 503 over the connection budget",
                &[],
            ),
        }
    }
}

/// Per-process metric state of the solve service: the registry (which
/// also carries the [`ReactorMetrics`]) and the solve-plane series.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// The process-wide registry rendered by `GET /metrics`.
    pub registry: Registry,
}

impl ServerMetrics {
    /// Builds an empty registry (the reactor registers its instruments
    /// when it binds).
    pub fn new() -> ServerMetrics {
        ServerMetrics::default()
    }

    /// The per-request latency histogram for one `(route, family,
    /// outcome)` cell. Get-or-create on the registry — callers on the
    /// warm path should cache the returned `Arc` (the reactor keeps a
    /// local map keyed by the label triple).
    pub fn request_duration(
        &self,
        route: &'static str,
        family: &'static str,
        outcome: &'static str,
    ) -> Arc<Histogram> {
        self.registry.histogram(
            "snc_server_request_duration_us",
            "End-to-end request latency by route, circuit family, and cache outcome",
            &[("route", route), ("family", family), ("outcome", outcome)],
        )
    }

    /// Records one solve's stage breakdown into the per-family stage
    /// histograms: `total` always, `sdp` only when a real SDP ran this
    /// call (cache hits report none, keeping the series a census of
    /// actual solves), `sampling` when the workload separates it.
    pub fn record_solve_stages(&self, family: &'static str, stages: &StageTimings, total_us: u64) {
        self.stage_histogram("total", family).record(total_us);
        if let Some(sdp_us) = stages.sdp_us {
            self.stage_histogram("sdp", family).record(sdp_us);
        }
        if stages.sampling_us > 0 {
            self.stage_histogram("sampling", family)
                .record(stages.sampling_us);
        }
    }

    fn stage_histogram(&self, stage: &'static str, family: &'static str) -> Arc<Histogram> {
        self.registry.histogram(
            "snc_solver_stage_duration_us",
            "Wall-clock time per solver stage (sdp = offline stage on real solves only)",
            &[("stage", stage), ("family", family)],
        )
    }

    /// Mirrors one cache's lifetime stats onto the registry (called at
    /// scrape time with values read from the owning cache).
    pub fn sync_cache(&self, cache: &'static str, stats: &CacheStats) {
        let labels = [("cache", cache)];
        self.registry
            .counter("snc_cache_hits_total", "Cache hits", &labels)
            .set_total(stats.hits);
        self.registry
            .counter("snc_cache_misses_total", "Cache misses", &labels)
            .set_total(stats.misses);
        self.registry
            .counter("snc_cache_evictions_total", "Cache evictions", &labels)
            .set_total(stats.evictions);
        self.registry
            .gauge("snc_cache_entries", "Entries resident in the cache", &labels)
            .set(stats.entries as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reactor_instruments_render_under_fleet_names() {
        let registry = Registry::new();
        let m = ReactorMetrics::register(&registry, "router");
        m.ticks.inc();
        m.poll_wait_us.record(120);
        m.connections_active.set(3);
        m.connections_shed.inc();
        let text = registry.render();
        assert!(text.contains("snc_router_connections_shed_total 1"));
        assert!(text.contains("# TYPE snc_reactor_ticks_total counter"));
        assert!(text.contains("snc_reactor_ticks_total 1"));
        assert!(text.contains("# TYPE snc_reactor_poll_wait_us histogram"));
        assert!(text.contains("snc_reactor_connections_active 3"));
    }

    #[test]
    fn stage_recording_skips_sdp_on_cache_hits() {
        let m = ServerMetrics::new();
        let hit = StageTimings {
            sdp_us: None,
            sampling_us: 40,
        };
        m.record_solve_stages("lif-gw", &hit, 55);
        let text = m.registry.render();
        assert!(text.contains("snc_solver_stage_duration_us_count{stage=\"total\",family=\"lif-gw\"} 1"));
        assert!(text.contains("snc_solver_stage_duration_us_count{stage=\"sampling\",family=\"lif-gw\"} 1"));
        assert!(!text.contains("stage=\"sdp\""));
        let miss = StageTimings {
            sdp_us: Some(1000),
            sampling_us: 40,
        };
        m.record_solve_stages("lif-gw", &miss, 1100);
        let text = m.registry.render();
        assert!(text.contains("snc_solver_stage_duration_us_count{stage=\"sdp\",family=\"lif-gw\"} 1"));
    }

    #[test]
    fn cache_sync_is_idempotent_per_scrape() {
        let m = ServerMetrics::new();
        let stats = |hits, misses, entries| CacheStats {
            hits,
            misses,
            evictions: 1,
            entries,
            ..CacheStats::default()
        };
        m.sync_cache("sdp", &stats(5, 2, 2));
        m.sync_cache("sdp", &stats(7, 3, 3));
        let text = m.registry.render();
        assert!(text.contains("snc_cache_hits_total{cache=\"sdp\"} 7"));
        assert!(text.contains("snc_cache_entries{cache=\"sdp\"} 3"));
    }

    #[test]
    fn request_duration_returns_one_series_per_label_cell() {
        let m = ServerMetrics::new();
        let a = m.request_duration("solve", "lif-gw", "hit");
        let b = m.request_duration("solve", "lif-gw", "hit");
        assert!(Arc::ptr_eq(&a, &b));
        let c = m.request_duration("solve", "lif-gw", "miss");
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
