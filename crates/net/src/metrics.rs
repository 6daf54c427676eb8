//! Per-tenant service metrics: latency quantiles over a sliding sample
//! window, shed/reject/error counters and each tenant's SLO verdict, plus
//! a mirror of the serve-side cache counters — everything the wire
//! `STATS` request reads.
//!
//! The struct is shared behind a mutex: connection threads record
//! admission-edge events (sheds, rejections), the service thread records
//! completions and mirrors `ServeStats` after each batch.

use std::time::{Duration, Instant};

use crate::server::TenantSpec;

/// Latency samples kept per tenant (a ring: oldest overwritten first).
pub const LATENCY_WINDOW: usize = 4096;

/// One tenant's counters and latency window.
#[derive(Debug)]
pub struct TenantMetrics {
    /// Tenant display name (from the server config).
    pub name: String,
    /// The tenant's p99 latency bound in milliseconds, from its
    /// [`SloContract`](crate::SloContract); `None` without one.
    pub slo_p99_ms: Option<f64>,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests shed from the queue (shed-oldest victims).
    pub shed: u64,
    /// Requests refused at admission (queue full, draining).
    pub rejected: u64,
    /// Requests refused by the tenant's token bucket.
    pub rate_limited: u64,
    /// Requests that failed because the tenant's plan crashed
    /// (`PlanPanicked` replies).
    pub panicked: u64,
    /// Requests that expired before finishing (`DeadlineExceeded`
    /// replies, queue sheds of dead work included).
    pub deadline_expired: u64,
    /// Requests answered with any other typed error.
    pub errors: u64,
    ring: Vec<u64>,
    next: usize,
}

impl TenantMetrics {
    fn new(spec: &TenantSpec) -> TenantMetrics {
        TenantMetrics {
            name: spec.name.clone(),
            slo_p99_ms: spec.slo.p99_ms,
            completed: 0,
            shed: 0,
            rejected: 0,
            rate_limited: 0,
            panicked: 0,
            deadline_expired: 0,
            errors: 0,
            ring: Vec::with_capacity(LATENCY_WINDOW),
            next: 0,
        }
    }

    fn record_latency(&mut self, us: u64) {
        if self.ring.len() < LATENCY_WINDOW {
            self.ring.push(us);
        } else {
            self.ring[self.next] = us;
        }
        self.next = (self.next + 1) % LATENCY_WINDOW;
    }

    /// The `q`-quantile (0.0–1.0) of the latency window, microseconds.
    /// `None` until a sample exists.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        if self.ring.is_empty() {
            return None;
        }
        let mut sorted = self.ring.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(sorted[rank])
    }

    /// Median latency, milliseconds.
    pub fn p50_ms(&self) -> Option<f64> {
        self.quantile_us(0.50).map(|us| us as f64 / 1000.0)
    }

    /// 99th-percentile latency, milliseconds.
    pub fn p99_ms(&self) -> Option<f64> {
        self.quantile_us(0.99).map(|us| us as f64 / 1000.0)
    }

    /// Whether the tenant meets its SLO: its p99 latency, measured on the
    /// server from admission to reply, is within the bound. `None` without
    /// a bound or before the first sample.
    pub fn slo_met(&self) -> Option<bool> {
        Some(self.p99_ms()? <= self.slo_p99_ms?)
    }
}

/// A mirror of the serve-side counters the net layer exposes over the
/// wire (the service thread owns the real `Serve`; it copies these out
/// after each batch so connection threads can answer `STATS` without
/// touching it).
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeMirror {
    /// Submissions that reused a cached compiled graph.
    pub cache_hits: u64,
    /// Submissions that compiled a new graph.
    pub cache_misses: u64,
    /// Compiled graphs evicted (LRU, beyond the plan-cache cap).
    pub evictions: u64,
    /// Compiled graphs currently resident.
    pub cached_plans: usize,
    /// Service-round batches pushed.
    pub batches: u64,
    /// Requests failed by their own plan crashing.
    pub panics: u64,
    /// Requests that missed their deadline.
    pub deadline_expired: u64,
    /// Crashed graphs rebuilt from their cached plan on resubmission.
    pub rebuilds: u64,
    /// Plans quarantined after repeated consecutive crashes.
    pub quarantines: u64,
    /// Plans currently quarantined (entries refusing submissions).
    pub quarantined_plans: usize,
}

/// The shared metrics registry.
#[derive(Debug)]
pub struct NetMetrics {
    tenants: Vec<TenantMetrics>,
    /// Queue depth at the last service-thread update.
    pub queue_depth: usize,
    /// Serve-side counter mirror.
    pub serve: ServeMirror,
    started: Instant,
}

impl NetMetrics {
    /// A registry with one slot per configured tenant.
    pub fn new(tenants: &[TenantSpec]) -> NetMetrics {
        NetMetrics {
            tenants: tenants.iter().map(TenantMetrics::new).collect(),
            queue_depth: 0,
            serve: ServeMirror::default(),
            started: Instant::now(),
        }
    }

    /// The per-tenant slots, indexed by wire tenant id.
    pub fn tenants(&self) -> &[TenantMetrics] {
        &self.tenants
    }

    /// Mutable access to one tenant's slot.
    pub fn tenant_mut(&mut self, t: u32) -> &mut TenantMetrics {
        &mut self.tenants[t as usize]
    }

    /// Record a completed request and its end-to-end latency.
    pub fn record_completion(&mut self, t: u32, latency: Duration) {
        let slot = &mut self.tenants[t as usize];
        slot.completed += 1;
        slot.record_latency(latency.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Render the stats snapshot as a JSON document — the `STATS_OK`
    /// reply body and the shape the `sla` bench archives.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"uptime_secs\": {:.3},\n  \"queue_depth\": {},\n",
            self.started.elapsed().as_secs_f64(),
            self.queue_depth
        ));
        s.push_str(&format!(
            "  \"serve\": {{\"cache_hits\": {}, \"cache_misses\": {}, \"evictions\": {}, \"cached_plans\": {}, \"batches\": {}, \"panics\": {}, \"deadline_expired\": {}, \"rebuilds\": {}, \"quarantines\": {}, \"quarantined_plans\": {}}},\n",
            self.serve.cache_hits,
            self.serve.cache_misses,
            self.serve.evictions,
            self.serve.cached_plans,
            self.serve.batches,
            self.serve.panics,
            self.serve.deadline_expired,
            self.serve.rebuilds,
            self.serve.quarantines,
            self.serve.quarantined_plans,
        ));
        s.push_str("  \"tenants\": [\n");
        let ms = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v:.3}"));
        for (i, t) in self.tenants.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"completed\": {}, \"shed\": {}, \"rejected\": {}, \"rate_limited\": {}, \"panicked\": {}, \"deadline_expired\": {}, \"errors\": {}, \"p50_ms\": {}, \"p99_ms\": {}, \"slo_p99_ms\": {}, \"slo_met\": {}}}{}\n",
                t.name,
                t.completed,
                t.shed,
                t.rejected,
                t.rate_limited,
                t.panicked,
                t.deadline_expired,
                t.errors,
                ms(t.p50_ms()),
                ms(t.p99_ms()),
                ms(t.slo_p99_ms),
                t.slo_met().map_or("null".to_string(), |met| met.to_string()),
                if i + 1 < self.tenants.len() { "," } else { "" },
            ));
        }
        s.push_str("  ]\n}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SloContract;

    fn metrics(names: &[&str]) -> NetMetrics {
        let specs: Vec<TenantSpec> = names.iter().map(|n| TenantSpec::new(n)).collect();
        NetMetrics::new(&specs)
    }

    #[test]
    fn quantiles_track_the_window() {
        let mut m = metrics(&["t"]);
        for i in 1..=100u64 {
            m.record_completion(0, Duration::from_micros(i * 1000));
        }
        let t = &m.tenants()[0];
        assert_eq!(t.completed, 100);
        let p50 = t.p50_ms().unwrap();
        let p99 = t.p99_ms().unwrap();
        assert!((49.0..=52.0).contains(&p50), "p50 {p50}");
        assert!((98.0..=100.0).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn ring_overwrites_oldest_beyond_the_window() {
        let mut m = metrics(&["t"]);
        for _ in 0..LATENCY_WINDOW {
            m.record_completion(0, Duration::from_micros(1));
        }
        for _ in 0..LATENCY_WINDOW {
            m.record_completion(0, Duration::from_micros(1_000_000));
        }
        let p50 = m.tenants()[0].p50_ms().unwrap();
        assert!(p50 > 999.0, "old 1µs samples fully aged out, p50 {p50}");
    }

    #[test]
    fn json_snapshot_mentions_every_tenant() {
        let mut m = metrics(&["gold", "bronze"]);
        m.record_completion(1, Duration::from_millis(5));
        m.tenant_mut(0).shed += 1;
        let json = m.to_json();
        assert!(json.contains("\"gold\""));
        assert!(json.contains("\"bronze\""));
        assert!(json.contains("\"shed\": 1,"));
        assert!(json.contains("\"p99_ms\": null"), "no samples yet for gold");
    }

    #[test]
    fn slo_verdict_follows_the_server_side_p99() {
        let slo = |s: &str| SloContract::parse(s).unwrap();
        let mut m = NetMetrics::new(&[
            TenantSpec::new("tight").with_slo(slo("p99<2ms")),
            TenantSpec::new("loose").with_slo(slo("p99<50ms")),
            TenantSpec::new("none"),
        ]);
        // no samples yet: no verdict, but the bound is reported
        assert_eq!(m.tenants()[0].slo_met(), None);
        let json = m.to_json();
        assert!(
            json.contains("\"slo_p99_ms\": 2.000, \"slo_met\": null"),
            "{json}"
        );
        for t in 0..3 {
            for ms in 1..=100u64 {
                m.record_completion(t, Duration::from_micros(ms * 100));
            }
        }
        // p99 of 0.1..=10 ms is 9.9 ms
        assert_eq!(m.tenants()[0].slo_met(), Some(false));
        assert_eq!(m.tenants()[1].slo_met(), Some(true));
        assert_eq!(m.tenants()[2].slo_met(), None, "no bound, no verdict");
        let json = m.to_json();
        assert!(
            json.contains("\"slo_p99_ms\": 2.000, \"slo_met\": false"),
            "{json}"
        );
        assert!(
            json.contains("\"slo_p99_ms\": 50.000, \"slo_met\": true"),
            "{json}"
        );
        assert!(
            json.contains("\"slo_p99_ms\": null, \"slo_met\": null"),
            "{json}"
        );
    }
}
