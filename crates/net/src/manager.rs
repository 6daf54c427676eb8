//! The MAPE-style autonomic manager.
//!
//! Each tenant's service-level objectives and the service's memory cap
//! are explicit **contracts** ([`SloContract`], [`ManagerConfig`]); every
//! tick the manager runs one Monitor → Analyze → Plan → Execute pass:
//!
//! * **Monitor** — read each tenant's p99 latency and windowed
//!   throughput from [`NetMetrics`], the admission queue depth, and the
//!   serve cache occupancy.
//! * **Analyze** — classify each contract as met or violated, and the
//!   plan cache as within or over its memory cap.
//! * **Plan** — pick actuations: latency misses shrink the batch window
//!   (smaller rounds finish sooner) and cap farm width (frees threads so
//!   tenants overlap instead of queueing behind one wide batch), plus a
//!   weight boost for the violated tenant; throughput misses boost
//!   weight only; an all-clear tick relaxes every actuator one step back
//!   toward its configured resting point; memory pressure evicts idle
//!   cached graphs.
//! * **Execute** — apply through the `Serve` actuators
//!   (`set_batch_window`, `set_tenant_weight`, `set_width_cap`,
//!   `evict_idle`) and log every action taken (surfaced in the `STATS`
//!   reply, so operators — and the `sla` bench — can audit the loop).
//!
//! All actuators change *scheduling*, never *answers*: the serve-layer
//! test `actuator_changes_never_change_answers` and the wire-level
//! differential suite pin that invariant, which is what makes the loop
//! safe to run autonomously.

use std::time::Instant;

use scl_core::ParArray;
use scl_serve::{Serve, TenantId};

use crate::metrics::NetMetrics;

/// A tenant's service-level objectives, parsed from the contract syntax
/// `p99<25ms tput>100` (clauses separated by spaces or commas, either or
/// both present).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloContract {
    /// Admitted-request p99 latency ceiling, milliseconds.
    pub p99_ms: Option<f64>,
    /// Windowed throughput floor, requests/second.
    pub min_tput: Option<f64>,
}

impl SloContract {
    /// Parse the contract syntax: `p99<NUMBERms` caps 99th-percentile
    /// latency, `tput>NUMBER` floors throughput (requests/second).
    /// Clauses separate on whitespace or commas; an empty string is the
    /// empty contract.
    ///
    /// ```
    /// use scl_net::SloContract;
    /// let c = SloContract::parse("p99<25ms, tput>100").unwrap();
    /// assert_eq!(c.p99_ms, Some(25.0));
    /// assert_eq!(c.min_tput, Some(100.0));
    /// ```
    pub fn parse(s: &str) -> Result<SloContract, String> {
        let mut c = SloContract::default();
        for clause in s.split([' ', ',']).filter(|c| !c.is_empty()) {
            if let Some(rest) = clause.strip_prefix("p99<") {
                let ms = rest
                    .strip_suffix("ms")
                    .ok_or_else(|| format!("`{clause}`: p99 bound must end in `ms`"))?;
                let v: f64 = ms
                    .parse()
                    .map_err(|_| format!("`{clause}`: bad number `{ms}`"))?;
                if v.is_nan() || v <= 0.0 {
                    return Err(format!("`{clause}`: p99 bound must be positive"));
                }
                c.p99_ms = Some(v);
            } else if let Some(rest) = clause.strip_prefix("tput>") {
                let rest = rest.strip_suffix("rps").unwrap_or(rest);
                let v: f64 = rest
                    .parse()
                    .map_err(|_| format!("`{clause}`: bad number `{rest}`"))?;
                if v.is_nan() || v <= 0.0 {
                    return Err(format!("`{clause}`: throughput floor must be positive"));
                }
                c.min_tput = Some(v);
            } else {
                return Err(format!(
                    "unknown contract clause `{clause}` (expected `p99<Nms` or `tput>N`)"
                ));
            }
        }
        Ok(c)
    }

    fn is_empty(&self) -> bool {
        self.p99_ms.is_none() && self.min_tput.is_none()
    }
}

/// Service-wide knobs the manager works within.
#[derive(Debug, Clone, Copy)]
pub struct ManagerConfig {
    /// Resident compiled-graph ceiling — the memory contract. Over it,
    /// the manager evicts idle graphs.
    pub memory_cap_plans: usize,
    /// The batch window the service rests at when every contract is met.
    pub rest_batch_window: usize,
    /// Cap on the weight multiplier a latency/throughput boost may reach
    /// (× the tenant's configured base weight).
    pub max_boost: u32,
}

impl Default for ManagerConfig {
    fn default() -> ManagerConfig {
        ManagerConfig {
            memory_cap_plans: 32,
            rest_batch_window: 16,
            max_boost: 16,
        }
    }
}

/// The autonomic manager: contracts plus the state it needs to relax
/// actuations back when pressure clears.
#[derive(Debug)]
pub struct Manager {
    cfg: ManagerConfig,
    /// Per-tenant contract, indexed like the server's tenant table.
    contracts: Vec<SloContract>,
    /// Configured base weights, the resting point boosts decay toward.
    base_weights: Vec<u32>,
}

impl Manager {
    /// A manager over one contract and base weight per tenant.
    pub fn new(cfg: ManagerConfig, contracts: Vec<SloContract>, base_weights: Vec<u32>) -> Manager {
        assert_eq!(contracts.len(), base_weights.len());
        Manager {
            cfg,
            contracts,
            base_weights,
        }
    }

    /// One Monitor→Analyze→Plan→Execute pass over the service. `ids`
    /// maps wire tenant index → serve [`TenantId`]. Every action taken
    /// is appended to the metrics action log and returned.
    pub fn tick(
        &mut self,
        srv: &mut Serve<ParArray<i64>, ParArray<i64>>,
        ids: &[TenantId],
        metrics: &mut NetMetrics,
        now: Instant,
    ) -> Vec<String> {
        let mut actions = Vec::new();
        let threads = srv.threads();

        // Monitor + Analyze: which contracts are violated right now?
        let mut latency_violations: Vec<usize> = Vec::new();
        let mut tput_violations: Vec<usize> = Vec::new();
        for (i, contract) in self.contracts.iter().enumerate() {
            if contract.is_empty() {
                continue;
            }
            let t = &metrics.tenants()[i];
            if let (Some(slo), Some(p99)) = (contract.p99_ms, t.p99_ms()) {
                if p99 > slo {
                    latency_violations.push(i);
                }
            }
            if let Some(floor) = contract.min_tput {
                let tput = t.window_throughput(now);
                // only meaningful once the tenant has offered load
                if t.completed > 0 && tput < floor {
                    tput_violations.push(i);
                }
            }
        }

        // Plan + Execute: latency pressure shrinks the round and frees
        // width; a clear sky relaxes one step toward the resting point.
        if !latency_violations.is_empty() {
            let window = srv.batch_window();
            if window > 1 {
                let next = (window / 2).max(1);
                srv.set_batch_window(next);
                actions.push(format!(
                    "shrink batch window {window} -> {next} (p99 over SLO)"
                ));
            }
            let cap = srv.width_cap().min(threads);
            let floor = (threads / 2).max(1);
            if cap > floor {
                let next = (cap / 2).max(floor);
                srv.set_width_cap(next);
                actions.push(format!("cap farm width {cap} -> {next} (p99 over SLO)"));
            }
        } else {
            let window = srv.batch_window();
            if window < self.cfg.rest_batch_window {
                srv.set_batch_window(window + 1);
                actions.push(format!(
                    "relax batch window {window} -> {} (SLOs met)",
                    window + 1
                ));
            }
            let cap = srv.width_cap();
            if cap < threads {
                let next = (cap * 2).min(threads);
                srv.set_width_cap(next);
                actions.push(format!("relax width cap {cap} -> {next} (SLOs met)"));
            }
        }

        // Weight arbitration: crashy tenants are de-weighted first — a
        // plan crashing in the current window halves the tenant's share
        // (floor 1) so a crash-looping tenant can't keep claiming rounds;
        // contract violations boost; a clean window restores toward base.
        for (i, (&id, &base)) in ids.iter().zip(&self.base_weights).enumerate() {
            let cur = srv.tenant_weight(id);
            let violated = latency_violations.contains(&i) || tput_violations.contains(&i);
            let crashy = metrics.tenants()[i].window_panicked() > 0;
            if crashy {
                let next = (cur / 2).max(1);
                if next < cur {
                    srv.set_tenant_weight(id, next);
                    actions.push(format!(
                        "de-weight tenant {} weight {cur} -> {next} (plan crashes in window)",
                        metrics.tenants()[i].name
                    ));
                }
            } else if violated {
                let ceiling = base.saturating_mul(self.cfg.max_boost);
                let next = cur.saturating_mul(2).min(ceiling);
                if next > cur {
                    srv.set_tenant_weight(id, next);
                    actions.push(format!(
                        "boost tenant {} weight {cur} -> {next} (contract violated)",
                        metrics.tenants()[i].name
                    ));
                }
            } else if cur > base {
                let next = (cur / 2).max(base);
                srv.set_tenant_weight(id, next);
                actions.push(format!(
                    "decay tenant {} weight {cur} -> {next} (contract met)",
                    metrics.tenants()[i].name
                ));
            } else if cur < base {
                let next = cur.saturating_mul(2).min(base);
                srv.set_tenant_weight(id, next);
                actions.push(format!(
                    "restore tenant {} weight {cur} -> {next} (clean window)",
                    metrics.tenants()[i].name
                ));
            }
        }

        // Memory contract: evict idle graphs over the cap.
        let resident = srv.cached_plans();
        if resident > self.cfg.memory_cap_plans {
            let excess = resident - self.cfg.memory_cap_plans;
            let evicted = srv.evict_idle(excess);
            actions.push(format!(
                "evict {evicted}/{excess} idle plan graphs (resident {resident} > cap {})",
                self.cfg.memory_cap_plans
            ));
        }

        for a in &actions {
            metrics.log_action(a.clone());
        }
        metrics.reset_windows(now);
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scl_exec::ExecPolicy;
    use scl_machine::{CostModel, Machine, Topology};
    use scl_serve::ServePolicy;
    use std::time::Duration;

    fn serve(threads: usize) -> Serve<ParArray<i64>, ParArray<i64>> {
        Serve::new(
            ServePolicy::new(Machine::new(
                Topology::FullyConnected { procs: 4 },
                CostModel::unit(),
            ))
            .with_exec(ExecPolicy::Threads(threads)),
        )
    }

    #[test]
    fn contract_syntax_parses_and_rejects() {
        assert_eq!(
            SloContract::parse("p99<25ms").unwrap(),
            SloContract {
                p99_ms: Some(25.0),
                min_tput: None
            }
        );
        assert_eq!(
            SloContract::parse("tput>100rps p99<5ms").unwrap(),
            SloContract {
                p99_ms: Some(5.0),
                min_tput: Some(100.0)
            }
        );
        assert_eq!(SloContract::parse("").unwrap(), SloContract::default());
        assert!(SloContract::parse("p99<25").is_err(), "missing ms unit");
        assert!(SloContract::parse("p99<-1ms").is_err());
        assert!(SloContract::parse("latency<25ms").is_err());
    }

    #[test]
    fn latency_violation_shrinks_the_round_and_boosts_the_tenant() {
        let mut srv = serve(4);
        let gold = srv.add_tenant_weighted("gold", 2);
        let mut m = NetMetrics::new(&["gold".to_string()]);
        // monitor sees a 50ms p99 against a 10ms contract
        for _ in 0..100 {
            m.record_completion(0, Duration::from_millis(50));
        }
        let mut mgr = Manager::new(
            ManagerConfig::default(),
            vec![SloContract::parse("p99<10ms").unwrap()],
            vec![2],
        );
        let before_window = srv.batch_window();
        let actions = mgr.tick(&mut srv, &[gold], &mut m, Instant::now());
        assert!(srv.batch_window() < before_window, "window shrank");
        assert_eq!(srv.tenant_weight(gold), 4, "weight doubled");
        assert!(!actions.is_empty());
        assert!(m.actions().count() > 0, "actions surfaced in the log");
        // repeated violation saturates at base * max_boost
        for _ in 0..10 {
            for _ in 0..10 {
                m.record_completion(0, Duration::from_millis(50));
            }
            mgr.tick(&mut srv, &[gold], &mut m, Instant::now());
        }
        assert_eq!(srv.batch_window(), 1);
        assert_eq!(srv.tenant_weight(gold), 32, "2 * max_boost(16)");
    }

    #[test]
    fn all_clear_relaxes_back_toward_rest() {
        let mut srv = serve(4);
        let t = srv.add_tenant("t");
        let mut m = NetMetrics::new(&["t".to_string()]);
        let mut mgr = Manager::new(
            ManagerConfig::default(),
            vec![SloContract::parse("p99<1000ms").unwrap()],
            vec![1],
        );
        srv.set_batch_window(1);
        srv.set_width_cap(1);
        srv.set_tenant_weight(t, 8);
        for _ in 0..40 {
            m.record_completion(0, Duration::from_micros(50));
            mgr.tick(&mut srv, &[t], &mut m, Instant::now());
        }
        assert_eq!(
            srv.batch_window(),
            ManagerConfig::default().rest_batch_window
        );
        assert_eq!(srv.width_cap(), srv.threads());
        assert_eq!(srv.tenant_weight(t), 1, "boost decayed to base");
    }

    #[test]
    fn crashy_tenant_is_deweighted_then_restored_when_clean() {
        let mut srv = serve(4);
        let t = srv.add_tenant_weighted("chaos", 4);
        let mut m = NetMetrics::new(&["chaos".to_string()]);
        let mut mgr = Manager::new(
            ManagerConfig::default(),
            vec![SloContract::default()],
            vec![4],
        );
        m.record_panic(0);
        let actions = mgr.tick(&mut srv, &[t], &mut m, Instant::now());
        assert_eq!(srv.tenant_weight(t), 2, "crash window halves the share");
        assert!(actions.iter().any(|a| a.contains("de-weight")));

        // keeps halving to the floor while the crashes continue
        for _ in 0..4 {
            m.record_panic(0);
            mgr.tick(&mut srv, &[t], &mut m, Instant::now());
        }
        assert_eq!(srv.tenant_weight(t), 1, "floor holds");

        // clean windows double back toward the configured base
        mgr.tick(&mut srv, &[t], &mut m, Instant::now());
        assert_eq!(srv.tenant_weight(t), 2);
        mgr.tick(&mut srv, &[t], &mut m, Instant::now());
        assert_eq!(srv.tenant_weight(t), 4, "restored to base, not beyond");
        mgr.tick(&mut srv, &[t], &mut m, Instant::now());
        assert_eq!(srv.tenant_weight(t), 4);
    }

    #[test]
    fn crash_deweight_overrides_an_slo_boost() {
        let mut srv = serve(4);
        let t = srv.add_tenant_weighted("chaos", 2);
        let mut m = NetMetrics::new(&["chaos".to_string()]);
        // a violated latency contract would normally *boost* — the crash
        // sensor must win the arbitration
        let mut mgr = Manager::new(
            ManagerConfig::default(),
            vec![SloContract::parse("p99<1ms").unwrap()],
            vec![2],
        );
        for _ in 0..10 {
            m.record_completion(0, Duration::from_millis(50));
        }
        m.record_panic(0);
        mgr.tick(&mut srv, &[t], &mut m, Instant::now());
        assert_eq!(srv.tenant_weight(t), 1, "halved despite the violation");
    }

    #[test]
    fn memory_pressure_evicts_idle_graphs() {
        use scl_core::Skel;
        let mut srv = serve(2);
        let t = srv.add_tenant("t");
        for k in 0..6 {
            let key = format!("p{k}");
            let _ = srv
                .submit_keyed(
                    t,
                    &key,
                    Skel::map(|x: &i64| x + 1),
                    ParArray::from_parts(vec![1, 2]),
                )
                .unwrap();
        }
        srv.run_until_idle();
        assert_eq!(srv.cached_plans(), 6);
        let mut m = NetMetrics::new(&["t".to_string()]);
        let mut mgr = Manager::new(
            ManagerConfig {
                memory_cap_plans: 2,
                ..ManagerConfig::default()
            },
            vec![SloContract::default()],
            vec![1],
        );
        let actions = mgr.tick(&mut srv, &[t], &mut m, Instant::now());
        assert_eq!(srv.cached_plans(), 2, "idle graphs over the cap evicted");
        assert!(actions.iter().any(|a| a.contains("evict")));
    }
}
