//! The fused operator chain as data: golden fingerprints and the segment
//! seam invariant.
//!
//! Fingerprints are `scl-serve` plan-cache keys and appear in logs and
//! bench JSON, so their *values* are part of the contract: the literals
//! below were recorded before the fused form was unified onto [`PlanOp`]
//! and must never drift. The seam suite pins the other half of that
//! contract — segments are maximal at every depth of the chain.

use scl::apps::{histogram_plan, jacobi_plan, msort_plan, psrs_plan};
use scl::core::prelude::*;
use scl::core::{fingerprint_ops, PlanOp};
use scl::transform::{Expr, FnRef};
use scl_testkit::dag::{arb_dag, env_seed, join_concat, split_half, DagStats};
use scl_testkit::Rng;

/// Both interpreters of the structural hash over one plan: the plan-level
/// fingerprint (chain + IR) and the op-level one (chain only).
fn fingerprints<'a, A: FusePort + 'a, B: FusePort + 'a>(plan: Skel<'a, A, B>) -> (u64, u64) {
    let fp = plan.fingerprint().raw();
    let ops = plan.into_stream_ops();
    (fp, fingerprint_ops(&ops).raw())
}

#[test]
fn golden_fingerprints_of_the_app_plans() {
    assert_eq!(
        fingerprints(psrs_plan(8)),
        (0x004e_7312_76e5_881f, 0xd865_2439_b74c_71e1)
    );
    assert_eq!(
        fingerprints(jacobi_plan(64, vec![0, 16, 32, 48], 1e-6, 100)),
        (0x740f_c8a1_9b95_ca6c, 0x6a73_e738_4791_1de0)
    );
    assert_eq!(
        fingerprints(histogram_plan(16, 4)),
        (0x3001_412a_afcf_1150, 0x9263_87d6_5070_e174)
    );
    assert_eq!(
        fingerprints(msort_plan(8)),
        (0xdebc_db77_4ead_ba78, 0x3d88_1f4f_2250_6fac)
    );
}

#[test]
fn golden_fingerprint_of_a_raised_plan_with_a_nested_region() {
    let reg = Registry::standard();
    let e = Expr::pipeline(vec![
        Expr::Map(FnRef::named("inc")),
        Expr::Split(2),
        Expr::MapGroups(Box::new(Expr::Rotate(1))),
        Expr::Combine,
        Expr::Map(FnRef::named("double")),
        Expr::Rotate(-3),
    ]);
    let raised = Skel::from_expr(&e, &reg).unwrap();
    assert_eq!(
        fingerprints(raised),
        (0x29c5_b6be_4b2a_709a, 0xef09_8134_68e4_6e05)
    );
}

#[test]
fn golden_fingerprint_of_a_nested_branch_dag() {
    let reg = Registry::standard();
    // pair inside fanout inside choice, with compute runs on both sides
    // of every branch so the seams are exercised too
    let inner = split_half()
        .then(
            Skel::map_sym("inc", &reg)
                .then(Skel::map_sym("double", &reg))
                .pair(Skel::rotate(1).then(Skel::map_sym("neg", &reg))),
        )
        .then(join_concat());
    let fan = Skel::fanout_sym(
        Skel::map_sym("square", &reg).then(inner),
        Skel::map_sym("dec", &reg),
        "add",
        &reg,
    );
    let dag = Skel::map_sym("inc", &reg)
        .then(Skel::choice_sym(
            "halve",
            fan,
            Skel::scan_sym("max", &reg).then(Skel::map_sym("inc", &reg)),
            &reg,
        ))
        .then(Skel::map_sym("double", &reg));
    assert_eq!(
        fingerprints(dag),
        (0x56b0_e9d1_c956_fef4, 0x0e86_48c9_29a8_8338)
    );
}

/// Flatten an op chain the way `Skel::fused_stages` reports it: segment
/// stages one by one, barriers and branches as single barrier entries.
fn flatten(ops: &[PlanOp<'_>]) -> Vec<(&'static str, bool)> {
    let mut out = Vec::new();
    for op in ops {
        match op {
            PlanOp::Segment(seg) => out.extend(seg.stage_labels().into_iter().map(|l| (l, false))),
            PlanOp::Barrier(b) => out.push((b.label(), true)),
            PlanOp::Branch(b) => out.push((b.label(), true)),
        }
    }
    out
}

/// No two adjacent segments at any depth, branch arms included.
fn assert_segments_maximal(ops: &[PlanOp<'_>], path: &str) {
    for pair in ops.windows(2) {
        assert!(
            !matches!(pair, [PlanOp::Segment(_), PlanOp::Segment(_)]),
            "adjacent segments at {path}: `{}` | `{}`",
            pair[0].label(),
            pair[1].label()
        );
    }
    for (i, op) in ops.iter().enumerate() {
        if let PlanOp::Branch(b) = op {
            let (left, right) = b.arms();
            assert_segments_maximal(left, &format!("{path}/{i}:{}.left", b.label()));
            assert_segments_maximal(right, &format!("{path}/{i}:{}.right", b.label()));
        }
    }
}

#[test]
fn segments_are_maximal_at_every_depth_of_generated_dags() {
    let reg = Registry::standard();
    let base = env_seed("SCL_DAG_SEED", 0x5EA4);
    let mut stats = DagStats::default();
    for case in 0..128u64 {
        let seed = base.wrapping_add(case);
        let mut rng = Rng::seed_from_u64(seed);
        let plan = arb_dag(&mut rng, &reg, 16, 3, &mut stats);
        let stages = plan.fused_stages();
        let ops = plan.into_stream_ops();
        assert_segments_maximal(&ops, &format!("seed {seed:#x}"));
        assert_eq!(stages, flatten(&ops), "seed {seed:#x}");
    }
    assert!(stats.covers_all(), "coverage hole: {stats:?}");
}
