//! What the three workload families share: run options, a round's budget
//! and result, and the policy every rung runs under.

use crate::stats::median;
use scl_exec::ExecPolicy;
use scl_machine::{CostModel, Machine, MachineReport, Topology};
use scl_net::ClientError;
use scl_testkit::alloc;
use std::time::{Duration, Instant};

/// Parsed command line of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// How long the timed rounds run in total.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Client threads / connections: `nproc`, at most 2 with `--quick`.
    pub clients: usize,
    /// Append the full record to this file as one more JSON line.
    pub out: Option<String>,
    pub waker: CoreWaker,
}

impl Opts {
    /// Rounds for a quantity whose workload takes `full` of them in an
    /// untraced run: a third (at least five) in a traced run, which times
    /// three times as many things in the same seconds; three with `--quick`.
    pub fn rounds(&self, full: usize) -> usize {
        if self.quick {
            3
        } else if self.trace {
            (full / 3).max(5)
        } else {
            full
        }
    }
}

/// Every rung runs under this policy, set explicitly on each layer;
/// `SCL_EXEC_POLICY` and friends are never read, so no environment
/// variable changes a number.
pub fn policy() -> ExecPolicy {
    ExecPolicy::cost_driven()
}

/// The machine the TCP server builds for `NetConfig.procs` (fully connected,
/// unit costs) — used at every in-process rung too, so that reports can be
/// compared bit-for-bit from the eager rung to the wire.
pub fn machine(procs: usize) -> Machine {
    Machine::new(Topology::FullyConnected { procs }, CostModel::unit())
}

/// Gets every vCPU awake and says how many cores' worth of work `nproc`
/// busy threads get done: `nproc × t(one thread) / t(nproc threads)` for a
/// fixed arithmetic loop each.
///
/// On this repository's 2-vCPU VM the host runs both vCPUs on one physical
/// core while the guest has been mostly idle (or single-threaded) for some
/// seconds, and spreads them over two only after about a second of load on
/// both. A run that starts in the first state reads 1.0 here and its
/// threaded numbers are those of a one-core machine for as long as its own
/// load stays bursty (`psrs_ms` 106 instead of 66, for a whole 20 s run);
/// which state a run started in used to depend on what ran before it. So
/// [`CoreWaker::wake`] keeps `nproc` threads busy until they run at close
/// to full speed (for 3 s at most): every run begins on the same machine,
/// and `serve_open`, whose own load is too light to hold the vCPUs apart,
/// calls it again before each round (for half a second at most). The figure goes into each record;
/// `compare` says when its two sides differ.
#[derive(Debug, Clone, Copy)]
pub struct CoreWaker {
    /// Seconds one undisturbed thread takes for the loop.
    one: f64,
    nproc: usize,
}

impl CoreWaker {
    fn burn() -> u64 {
        (0..40_000_000u64).fold(0, |a, i| {
            std::hint::black_box(a.wrapping_mul(31).wrapping_add(i))
        })
    }

    pub fn new() -> CoreWaker {
        let t0 = Instant::now();
        std::hint::black_box(Self::burn());
        CoreWaker {
            one: t0.elapsed().as_secs_f64(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Busy every vCPU until they run at three quarters of full speed or
    /// better (folded onto one core they run at half), for at most
    /// `patience`; returns the effective core count last seen.
    pub fn wake(&self, patience: Duration) -> f64 {
        let begun = Instant::now();
        loop {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..self.nproc {
                    s.spawn(|| std::hint::black_box(Self::burn()));
                }
            });
            let cores = self.nproc as f64 * self.one / t0.elapsed().as_secs_f64();
            if cores >= 0.75 * self.nproc as f64 || begun.elapsed() > patience {
                return cores;
            }
        }
    }
}

/// How long one round of one rung runs: for a time slice (timed rounds)
/// or for a fixed item count (the warm-up round inside set-up, so that
/// `setup_s` measures work, not a timer).
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Time(Duration),
    Items(u64),
}

impl Budget {
    /// Whether a round that began at `t0` and has started `n` items is over.
    pub fn done(&self, n: u64, t0: Instant) -> bool {
        match self {
            Budget::Time(slice) => n > 0 && t0.elapsed() >= *slice,
            Budget::Items(k) => n >= *k,
        }
    }
}

/// What one round of one rung measured.
#[derive(Debug, Default)]
pub struct Round {
    pub items: u64,
    pub secs: f64,
    /// Per-item completion intervals in ns (closed-loop rungs only).
    pub lat_ns: Vec<f64>,
    /// The first item's private machine accounting.
    pub report: Option<MachineReport>,
    /// Heap allocations (+ reallocs) and bytes during the round, harness
    /// included (one input clone and the kept output per item).
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Round {
    pub fn ns_per_item(&self) -> f64 {
        self.secs * 1e9 / self.items.max(1) as f64
    }

    pub fn ms_per_item(&self) -> f64 {
        self.ns_per_item() / 1e6
    }
}

/// A running allocation meter over the process-wide counting allocator.
pub struct AllocMeter(u64, u64);

impl AllocMeter {
    pub fn start() -> AllocMeter {
        AllocMeter(alloc::allocations(), alloc::allocated_bytes())
    }

    pub fn stop(&self) -> (u64, u64) {
        (
            alloc::allocations() - self.0,
            alloc::allocated_bytes() - self.1,
        )
    }
}

/// Median over rounds of a per-round figure.
pub fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&each(rounds, f))
}

pub fn each(rounds: &[Round], f: impl Fn(&Round) -> f64) -> Vec<f64> {
    rounds.iter().map(f).collect()
}

/// The tally key of a failed TCP call: the server's `ErrorCode`, or the
/// kind of client-side failure.
pub fn error_code(e: &ClientError) -> String {
    match e {
        ClientError::Server { code, .. } => format!("{code:?}"),
        ClientError::Io(_) => "Io".to_string(),
        ClientError::TimedOut => "TimedOut".to_string(),
        ClientError::Wire(_) => "Wire".to_string(),
        ClientError::UnexpectedReply => "UnexpectedReply".to_string(),
    }
}
