//! The `sclopt` binary end to end: its exit codes and what it prints.

use std::process::{Command, Output};

fn sclopt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sclopt"))
        .args(args)
        .output()
        .expect("sclopt starts")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn a_bad_processor_count_is_a_usage_error() {
    for args in [
        &[][..],
        &["map(inc)", "0"],
        &["map(inc)", "many"],
        &["map(inc)", "-4"],
    ] {
        let out = sclopt(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(text(&out.stderr).starts_with("usage: sclopt"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn prints_the_dry_run_cost_on_n_cells() {
    let out = sclopt(&["map(inc) . map(double) . rotate(2) . rotate(-2)", "16"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = text(&out.stdout);
    assert!(
        stdout.contains("optimized: map((inc . double))"),
        "{stdout}"
    );
    assert!(stdout.contains(" on 16 AP1000 cells"), "{stdout}");
    assert!(stdout.contains("semantics preserved"), "{stdout}");
    let out = sclopt(&["map(inc)"]);
    assert!(text(&out.stdout).contains(" on 32 AP1000 cells"));
}

#[test]
fn a_program_the_machine_cannot_run_is_an_error_not_a_panic() {
    let out = sclopt(&["combine . mapGroups[rotate(1)] . split(8)", "4"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = text(&out.stderr);
    assert!(stderr.contains("cost error"), "{stderr}");
    assert!(
        stderr.contains("cannot split 4 parts into 8 groups"),
        "{stderr}"
    );
}
