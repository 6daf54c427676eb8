//! The repo benchmark: one plan down a six-rung ladder on four workloads,
//! with per-layer metrics and an outside-in traced run. See README.md
//! beside this package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! scl-ladder --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>] [--quick] [--out <file>]
//! scl-ladder compare <a.jsonl> <b.jsonl>
//! ```

mod apps;
mod compare;
mod harness;
mod json;
mod ladder;
mod open;
mod probes;
mod program;
mod report;
mod stats;
mod trace;

use harness::Opts;
use json::{num, text, Json};
use report::{Check, Family, Report};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

// allocs/item is a per-layer metric, so the counting allocator is always
// installed: the same (small) cost on every commit a comparison runs
#[global_allocator]
static ALLOC: scl_testkit::alloc::CountingAlloc = scl_testkit::alloc::CountingAlloc;

pub const WORKLOADS: [&str; 4] = ["ladder_heavy", "ladder_tiny", "apps_batch", "serve_open"];

/// Where result records and traces go: `<target dir>/ladder/`, beside the
/// directory the executable was built into — nothing is written outside
/// the build's target directory.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own path");
    let profile_dir = exe.parent().expect("executable has a directory");
    profile_dir.parent().unwrap_or(profile_dir).join("ladder")
}

pub fn write_file(path: &Path, contents: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Write a traced run's spans beside its record and say where they went.
pub fn write_trace(opts: &Opts, tracer: &trace::Tracer, rep: &mut Report) {
    let path = out_dir().join(format!("trace-{}-seed{}.json", opts.workload, opts.seed));
    write_file(&path, &tracer.to_json().render());
    rep.notes.push(format!(
        "{} spans recorded, trace at {}",
        tracer.spans().len(),
        path.display()
    ));
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: scl-ladder --workload <{}> --seed <u64> [--seconds <s>] [--trace <0|1>] [--quick] [--out <file>]\n       scl-ladder compare <a.jsonl> <b.jsonl>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 15.0f64;
    let mut trace = false;
    let mut quick = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--quick" => quick = true,
            "--out" => out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: if quick { seconds.min(1.0) } else { seconds },
        trace,
        quick,
        clients: if quick { nproc.min(2) } else { nproc },
        out,
        waker: harness::CoreWaker::new(),
    })
}

/// First line of a command's standard output, or `unknown` — the checkout
/// a driver runs in is not a git repository.
fn tool_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn header(opts: &Opts) -> Vec<(String, Json)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    [
        ("seed", num(opts.seed as f64)),
        ("trace", Json::Bool(opts.trace)),
        ("quick", Json::Bool(opts.quick)),
        ("seconds", num(opts.seconds)),
        ("clients", num(opts.clients as f64)),
        ("nproc", num(nproc as f64)),
        ("host_threads", num(scl_exec::host_threads() as f64)),
        (
            "effective_cores",
            num(opts.waker.wake(std::time::Duration::from_secs(3))),
        ),
        ("exec_policy", text(&format!("{:?}", harness::policy()))),
        (
            "git_rev",
            text(&tool_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", text(&tool_line("rustc", &["--version"]))),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare::run(a, b),
            _ => usage(),
        };
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("scl-ladder: {e}");
            return usage();
        }
    };
    let family = match opts.workload.as_str() {
        "apps_batch" => Family::Apps,
        "serve_open" => Family::Open,
        _ => Family::Ladder,
    };
    let mut rep = Report {
        workload: opts.workload.clone(),
        family,
        header: header(&opts),
        e2e: Vec::new(),
        layer: Vec::new(),
        check: Check::default(),
        notes: Vec::new(),
    };
    match family {
        Family::Ladder => ladder::run(&opts, &mut rep),
        Family::Apps => apps::run(&opts, &mut rep),
        Family::Open => open::run(&opts, &mut rep),
    }

    let record = rep.record().render();
    let default_out = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        opts.workload, opts.seed, opts.trace as u8
    ));
    write_file(&default_out, &record);
    if let Some(path) = &opts.out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("open {path}: {e}"));
        writeln!(f, "{record}").unwrap_or_else(|e| panic!("append to {path}: {e}"));
    }

    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    let _ = write!(w, "{}", rep.table(opts.trace));
    let _ = writeln!(w, "{}", rep.contract_line(opts.trace));
    let _ = w.flush();
    if rep.check.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
