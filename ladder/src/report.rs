//! What a run reports: the metric tables `BENCHMARK.json` names, the
//! failure accounting behind `fail_share`, and the three renderings of a
//! result (human table, full record for `compare`, contract line).

use crate::json::{num, obj, text, Json};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

/// Which of the three metric vocabularies a workload speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `ladder_heavy`, `ladder_tiny`
    Ladder = 0,
    /// `apps_batch`
    Apps = 1,
    /// `serve_open`
    Open = 2,
}

/// One end-to-end metric of `BENCHMARK.json`. The benchmark contract wants
/// every workload to report every end-to-end metric, while a ladder, a
/// batch of applications and an open loop have different headline
/// numbers; so each metric is a *slot* holding one headline time per
/// family, named after all three and read through [`Slot::alias`].
pub struct Slot {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// The ISSUE's name for what this slot holds, per [`Family`].
    pub alias: [&'static str; 3],
}

/// Every end-to-end metric is a time, lower is better. Throughputs are
/// reported as their reciprocal (ms per item), so one slot can hold a
/// ladder rung, an application and an open-loop latency.
pub const SLOTS: [Slot; 6] = [
    Slot {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        alias: ["setup_s"; 3],
    },
    Slot {
        name: "fused-psrs-open_lo_p50_ms",
        unit: "ms",
        bound: 0.25,
        alias: ["fused_ms_per_item", "psrs_ms", "open_lo_p50_ms"],
    },
    Slot {
        name: "stream-hqs-open_mid_p50_ms",
        unit: "ms",
        bound: 0.25,
        alias: ["stream_ms_per_item", "hqs_ms", "open_mid_p50_ms"],
    },
    Slot {
        name: "serve-msort-open_churn_lo_p50_ms",
        unit: "ms",
        bound: 0.25,
        alias: ["serve_ms_per_item", "msort_ms", "open_churn_lo_p50_ms"],
    },
    Slot {
        name: "net_req-jacobi-open_churn_mid_p50_ms",
        unit: "ms",
        bound: 0.25,
        alias: ["net_ms_per_req", "jacobi_ms", "open_churn_mid_p50_ms"],
    },
    Slot {
        name: "net_p50-apps_seq-open_mid_p75_ms",
        unit: "ms",
        bound: 0.25,
        alias: ["net_p50_ms", "apps_seq_ms", "open_mid_p75_ms"],
    },
];

impl Slot {
    pub fn alias(&self, family: Family) -> &'static str {
        self.alias[family as usize]
    }
}

/// Every per-layer metric of `BENCHMARK.json` with its unit (times are per
/// what they were taken over: an item, a call, a plan, a request). A
/// workload that has no such layer on its path reports 0 (see README.md).
pub const LAYER: &[(&str, &str)] = &[
    ("kernel.ns_per_item", "ns/item"),
    ("transform.parse_us", "us/plan"),
    ("transform.optimize_us", "us/plan"),
    ("transform.raise_us", "us/plan"),
    ("transform.rewrites_fired", "count"),
    ("core.eager_ns_per_item", "ns/item"),
    ("core.fused_seq_ns_per_item", "ns/item"),
    ("core.fused_auto_ns_per_item", "ns/item"),
    ("core.fused_over_kernel_ns", "ns/item"),
    ("core.fused_allocs_per_item", "allocs/item"),
    ("core.fused_alloc_bytes_per_item", "bytes/item"),
    ("core.fingerprint_ns", "ns/call"),
    ("core.total_exchange_ms", "ms/call"),
    ("core.rotate_ms", "ms/call"),
    ("core.gather_ms", "ms/call"),
    ("core.partition_ms", "ms/call"),
    ("machine.makespan_s", "sim_s"),
    ("machine.messages", "count"),
    ("machine.bytes", "bytes"),
    ("machine.model_speedup", "ratio"),
    ("exec.dispatch_ns", "ns/call"),
    ("exec.ring_ns_per_msg", "ns/msg"),
    ("exec.mpmc_ns_per_msg", "ns/msg"),
    ("exec.bounded_ns_per_msg", "ns/msg"),
    ("exec.par_speedup", "ratio"),
    ("exec.cost_vs_best", "ratio"),
    ("stream.build_us", "us/plan"),
    ("stream.over_fused_ns", "ns/item"),
    ("stream.push_ns", "ns/call"),
    ("stream.pop_wait_ns", "ns/item"),
    ("stream.peak_in_flight", "count"),
    ("stream.farm_service_ns", "ns/item"),
    ("stream.barrier_service_ns", "ns/item"),
    ("stream.allocs_per_item", "allocs/item"),
    ("serve.plan_build_ns", "ns/call"),
    ("serve.submit_ns", "ns/call"),
    ("serve.step_ns_per_item", "ns/item"),
    ("serve.take_ns", "ns/call"),
    ("serve.single_ns_per_item", "ns/item"),
    ("serve.over_stream_ns", "ns/item"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.batches", "count"),
    ("serve.compile_us_per_miss", "us/miss"),
    ("serve.allocs_per_item", "allocs/item"),
    ("net.encode_ns", "ns/req"),
    ("net.decode_ns", "ns/req"),
    ("net.ping_us", "us/ping"),
    ("net.p99_ms", "ms/req"),
    ("net.rps_1_client", "req/s"),
    ("net.over_serve_ns", "ns/req"),
    ("net.source_vs_handle_ns", "ns/req"),
    ("net.shed", "count"),
    ("net.rejected", "count"),
    ("net.queue_depth_max", "count"),
    ("net.manager_actions", "count"),
    ("net.server_p99_ms", "ms/req"),
    ("net.gen_late_p99_ms", "ms/req"),
    ("open.lo_p99_ms", "ms/req"),
    ("open.mid_p99_ms", "ms/req"),
    ("open.hi_p50_ms", "ms/req"),
    ("open.hi_p99_ms", "ms/req"),
    ("open.max_rate_ok", "req/s"),
    ("open.churn_requests", "count"),
    ("open.closed_loop_rps", "req/s"),
    ("apps.psrs_seq_ms", "ms/run"),
    ("apps.hqs_seq_ms", "ms/run"),
    ("apps.msort_seq_ms", "ms/run"),
    ("apps.jacobi_seq_ms", "ms/run"),
    ("apps.psrs_vs_plain", "ratio"),
    ("apps.hqs_vs_plain", "ratio"),
    ("apps.msort_vs_plain", "ratio"),
    ("apps.jacobi_vs_plain", "ratio"),
    ("apps.psrs_allocs", "allocs/run"),
    ("apps.hqs_allocs", "allocs/run"),
    ("apps.msort_allocs", "allocs/run"),
    ("apps.jacobi_allocs", "allocs/run"),
    ("apps.wall_speedup", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.root_gap_share", "ratio"),
];

/// One reported quantity: its value is the median over `rounds`.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// End-to-end slots only: the ISSUE's name for what this workload's
    /// family keeps in the slot, and the slot's bound.
    pub holds: &'static str,
    pub bound: Option<f64>,
    pub rounds: Vec<f64>,
    /// Individual samples behind the rounds (requests, items, calls).
    pub samples: u64,
}

impl Metric {
    pub fn value(&self) -> f64 {
        median(&self.rounds)
    }
}

/// Correctness and failure accounting for one run: everything that feeds
/// `fail_share` and the `correct` flag.
#[derive(Debug, Default)]
pub struct Check {
    /// Operations attempted (items, requests, application runs).
    pub attempted: u64,
    /// Outputs that differed from the oracle.
    pub wrong: u64,
    /// Typed failures by `ErrorCode` (or transport error kind).
    pub errors: BTreeMap<String, u64>,
    /// Broken invariants: a `MachineReport` that differs between rungs, a
    /// cache-miss count that is not the churn count, ...
    pub violations: Vec<String>,
}

impl Check {
    /// Record one attempted operation's output against the oracle.
    pub fn output<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: &T, want: &T) {
        self.attempted += 1;
        if got != want {
            self.wrong += 1;
            if self.wrong == 1 {
                self.violations
                    .push(format!("{what}: wrong output {got:?}, want {want:?}"));
            }
        }
    }

    /// Record one attempted operation that failed with a typed error.
    pub fn error(&mut self, code: &str) {
        self.attempted += 1;
        *self.errors.entry(code.to_string()).or_default() += 1;
    }

    /// Record an invariant; `what` is kept when it does not hold.
    pub fn invariant(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }

    pub fn merge(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.wrong += other.wrong;
        for (k, v) in other.errors {
            *self.errors.entry(k).or_default() += v;
        }
        self.violations.extend(other.violations);
    }

    pub fn failed(&self) -> u64 {
        self.wrong + self.errors.values().sum::<u64>()
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.violations.is_empty()
    }

    pub fn fail_share(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }
}

/// Everything one run produced.
pub struct Report {
    pub workload: String,
    pub family: Family,
    pub header: Vec<(String, Json)>,
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
    pub check: Check,
    pub notes: Vec<String>,
}

impl Report {
    /// Set end-to-end slot `slot` (index into [`SLOTS`]).
    pub fn set_e2e(&mut self, slot: usize, rounds: Vec<f64>, samples: u64) {
        let s = &SLOTS[slot];
        self.e2e.push(Metric {
            name: s.name.to_string(),
            unit: s.unit,
            holds: s.alias(self.family),
            bound: Some(s.bound),
            rounds,
            samples,
        });
    }

    /// Set a per-layer metric from its rounds; the name must be in [`LAYER`].
    pub fn set_layer(&mut self, name: &str, rounds: Vec<f64>, samples: u64) {
        let unit = LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric of BENCHMARK.json"))
            .1;
        if rounds.is_empty() {
            return;
        }
        self.layer.push(Metric {
            name: name.to_string(),
            unit,
            holds: "",
            bound: None,
            rounds,
            samples,
        });
    }

    /// Set a per-layer metric that is one exact number (a count, a ratio
    /// of medians).
    pub fn set_layer_value(&mut self, name: &str, value: f64) {
        self.set_layer(name, vec![value], 1);
    }

    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layer
            .iter()
            .find(|m| m.name == name)
            .map(Metric::value)
    }

    /// The human table.
    pub fn table(&self, traced: bool) -> String {
        let mut out = String::new();
        for (k, v) in &self.header {
            out.push_str(&format!("# {k}: {}\n", v.render()));
        }
        out.push_str(&format!(
            "{:<36} {:<24} {:>14} {:<11} {:>14} {:>14} {:>6} {:>9}\n",
            "metric", "holds", "median", "unit", "q1", "q3", "rounds", "samples"
        ));
        let row = |m: &Metric| {
            let (q1, med, q3) = quartiles(&m.rounds);
            format!(
                "{:<36} {:<24} {:>14.6} {:<11} {:>14.6} {:>14.6} {:>6} {:>9}\n",
                m.name,
                m.holds,
                med,
                m.unit,
                q1,
                q3,
                m.rounds.len(),
                m.samples
            )
        };
        let layer = if traced { &self.layer[..] } else { &[] };
        for m in self.e2e.iter().chain(layer) {
            out.push_str(&row(m));
        }
        out.push_str(&format!(
            "fail_share {:.6} ({} failed of {} attempted; wrong outputs {}; errors {:?})\n",
            self.check.fail_share(),
            self.check.failed(),
            self.check.attempted,
            self.check.wrong,
            self.check.errors
        ));
        for v in &self.check.violations {
            out.push_str(&format!("VIOLATION: {v}\n"));
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// The full record `compare` reads: one JSON object on one line.
    pub fn record(&self) -> Json {
        let metric = |m: &Metric| {
            let (q1, med, q3) = quartiles(&m.rounds);
            let mut kv = vec![
                ("unit".to_string(), text(m.unit)),
                ("value".to_string(), num(med)),
                ("q1".to_string(), num(q1)),
                ("q3".to_string(), num(q3)),
                ("samples".to_string(), num(m.samples as f64)),
                (
                    "rounds".to_string(),
                    Json::Arr(m.rounds.iter().map(|r| num(*r)).collect()),
                ),
            ];
            if let Some(bound) = m.bound {
                kv.push(("holds".to_string(), text(m.holds)));
                kv.push(("bound".to_string(), num(bound)));
            }
            (m.name.clone(), Json::Obj(kv))
        };
        let e2e = self.e2e.iter().map(metric).collect();
        let layer = self.layer.iter().map(metric).collect();
        let errors = self
            .check
            .errors
            .iter()
            .map(|(k, v)| (k.clone(), num(*v as f64)))
            .collect();
        let mut kv = vec![("workload".to_string(), text(&self.workload))];
        kv.extend(self.header.iter().cloned());
        kv.extend([
            ("e2e".to_string(), Json::Obj(e2e)),
            ("layer".to_string(), Json::Obj(layer)),
            ("attempted".to_string(), num(self.check.attempted as f64)),
            ("failed".to_string(), num(self.check.failed() as f64)),
            ("fail_share".to_string(), num(self.check.fail_share())),
            ("errors".to_string(), Json::Obj(errors)),
            ("correct".to_string(), Json::Bool(self.check.correct())),
        ]);
        Json::Obj(kv)
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed`, `metrics` — the end-to-end metrics of an untraced run, the
    /// per-layer metrics of a traced one.
    pub fn contract_line(&self, traced: bool) -> String {
        let entry = |name: &str, value: f64, unit: &str| {
            (
                name.to_string(),
                obj([("value", num(value)), ("unit", text(unit))]),
            )
        };
        let metrics: Vec<(String, Json)> = if traced {
            LAYER
                .iter()
                .map(|(name, unit)| entry(name, self.layer_value(name).unwrap_or(0.0), unit))
                .collect()
        } else {
            self.e2e
                .iter()
                .map(|m| entry(&m.name, m.value(), m.unit))
                .collect()
        };
        obj([
            ("correct", Json::Bool(self.check.correct())),
            ("attempted", num(self.check.attempted.max(1) as f64)),
            ("failed", num(self.check.failed() as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// `BENCHMARK.json` is the contract; the tables above are what the
    /// program prints. They must name the same metrics, units and bounds.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses");
        let e2e = doc.get("end_to_end").expect("end_to_end").as_arr();
        assert_eq!(e2e.len(), SLOTS.len());
        for (j, s) in e2e.iter().zip(&SLOTS) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(s.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(s.unit));
            assert_eq!(j.get("better").and_then(Json::as_str), Some("lower"));
            assert_eq!(j.num("bound"), s.bound, "{}", s.name);
        }
        let layer = doc.get("per_layer").expect("per_layer").as_arr();
        assert_eq!(layer.len(), LAYER.len());
        for (j, (name, unit)) in layer.iter().zip(LAYER) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(*name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(*unit));
        }
    }

    #[test]
    fn fail_share_counts_wrong_outputs_and_typed_errors() {
        let mut c = Check::default();
        c.output("x", &1, &1);
        c.output("x", &2, &3);
        c.error("Shed");
        c.error("Shed");
        assert_eq!(c.attempted, 4);
        assert_eq!(c.failed(), 3);
        assert!(!c.correct(), "a wrong output is never correct");
        assert_eq!(c.errors["Shed"], 2);
        assert!((c.fail_share() - 0.75).abs() < 1e-12);

        let mut only_shed = Check::default();
        only_shed.error("Shed");
        assert!(
            only_shed.correct(),
            "a refusal is a failure, not a wrong output"
        );
    }
}
