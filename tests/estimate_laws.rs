//! The charge law of the §4 rules: each rule, applied alone to a fixpoint,
//! never makes a program dearer on the machine that runs it. The charge is
//! `scl_core::dry_run` on `Machine::ap1000(n)`, the machine `Skel::run`
//! charges, so the law is about the one cost every `MachineReport` reads.
//!
//! Over seeded programs (the shared generator's array pipelines and the
//! same pipelines closed by a `foldr`), for every rule that fires:
//! - messages and bytes never rise;
//! - the makespan never rises by more than 1e-12 relative (float
//!   reassociation of summed work), except under fetch and send fusion.
//!   Fusing `half . half` inside `mapGroups` concentrates fan-in on fewer
//!   cells, so those two can cut messages and still cost more time; the
//!   two witnesses below pin that with their reports.
//!
//! Every rule must fire somewhere in the sweep; the per-rule fire counts
//! are printed.

#[path = "../crates/transform/tests/programs/mod.rs"]
mod programs;

use scl::prelude::*;
use scl_core::dry_run;
use scl_machine::MachineReport;
use scl_testkit::{cases, Rng};
use scl_transform::{rewrite_fixpoint, Rule};

/// Rules allowed to raise the makespan while cutting messages.
const FAN_IN_RULES: [Rule; 2] = [Rule::FetchFusion, Rule::SendFusion];

fn report(e: &Expr, n: usize) -> MachineReport {
    dry_run(e, &Registry::standard(), Machine::ap1000(n))
        .unwrap_or_else(|err| panic!("{e} on {n} cells: {err}"))
}

#[test]
fn no_rule_raises_the_charge() {
    let reg = Registry::standard();
    let mut fired = [0usize; Rule::ALL.len()];
    let mut dearer = [0usize; Rule::ALL.len()];
    let mut law = |e: Expr, rng: &mut Rng| {
        let n = rng.range_usize(8, 64);
        let before = report(&e, n);
        for (i, rule) in Rule::ALL.iter().enumerate() {
            let (after_e, log) = rewrite_fixpoint(e.clone(), &[*rule], &reg);
            if log.is_empty() {
                continue;
            }
            fired[i] += 1;
            let after = report(&after_e, n);
            let at = || format!("{}: {e} => {after_e} on {n} cells", rule.name());
            assert!(
                after.metrics.messages <= before.metrics.messages,
                "{}",
                at()
            );
            assert!(after.metrics.bytes <= before.metrics.bytes, "{}", at());
            let bound = before.makespan.as_secs() * (1.0 + 1e-12);
            if after.makespan.as_secs() > bound {
                assert!(FAN_IN_RULES.contains(rule), "{}: {before} -> {after}", at());
                dearer[i] += 1;
            }
        }
    };
    cases(1024, 0x1A55, |rng| law(programs::arb_program(rng), rng));
    cases(256, 0x1A56, |rng| law(programs::foldr_program(rng), rng));

    println!("rule               fired  dearer");
    for (i, rule) in Rule::ALL.iter().enumerate() {
        println!("{:<18} {:>5}  {:>6}", rule.name(), fired[i], dearer[i]);
    }
    for (i, rule) in Rule::ALL.iter().enumerate() {
        assert!(fired[i] > 0, "{} never fired", rule.name());
    }
}

/// One rule applied alone to `src` on `n` cells: messages, bytes and
/// makespan (µs) of the program before and after.
fn witness(src: &str, rule: Rule, n: usize) -> [(u64, u64, f64); 2] {
    let e = scl_transform::parse(src).unwrap();
    let (after, log) = rewrite_fixpoint(e.clone(), &[rule], &Registry::standard());
    assert!(!log.is_empty(), "{} does not fire on {src}", rule.name());
    [e, after].map(|e| {
        let r = report(&e, n);
        (
            r.metrics.messages,
            r.metrics.bytes,
            r.makespan.as_secs() * 1e6,
        )
    })
}

fn assert_report(got: (u64, u64, f64), want: (u64, u64, f64)) {
    assert_eq!((got.0, got.1), (want.0, want.1), "messages, bytes");
    assert!(
        (got.2 - want.2).abs() < 1e-6,
        "makespan {} µs, not {}",
        got.2,
        want.2
    );
}

#[test]
fn fetch_fusion_can_concentrate_fan_in() {
    let [before, after] = witness(
        "combine . mapGroups[fetch(half) . fetch(half)] . split(2) . combine \
         . mapGroups[send(xor1) . rotate(2)] . split(1) . fetch(pred) . map(inc)",
        Rule::FetchFusion,
        23,
    );
    // 111 → 90 messages, +0.39 % makespan
    assert_report(before, (111, 888, 409.16));
    assert_report(after, (90, 720, 410.76));
}

#[test]
fn send_fusion_can_concentrate_fan_in() {
    let [before, after] = witness(
        "combine . mapGroups[send(half) . send(half) . fetch(succ)] . split(3) \
         . map((heavy . halve)) . combine . mapGroups[fetch(xor1) . send(rev) . rotate(0)] \
         . split(2) . combine . mapGroups[map((neg . square)) . map(neg) . rotate(1)] \
         . split(1) . id",
        Rule::SendFusion,
        41,
    );
    // 239 → 201 messages, +0.16 % makespan
    assert_report(before, (239, 1912, 485.48));
    assert_report(after, (201, 1608, 486.28));
}
