//! Execution policy: sequential, threaded, or cost-driven (measured work).

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// The host's available parallelism, queried **once** and cached for the
/// lifetime of the process.
///
/// `std::thread::available_parallelism` can be surprisingly expensive (it
/// reads cgroup limits / sysfs on Linux), and policies used to re-query it
/// on every [`ExecPolicy::auto`] call; all callers now share this cache.
pub fn host_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// How partition-local work should be executed on the host.
///
/// The simulated machine's *virtual* processor count is independent of this:
/// a 32-cell simulation can run on 4 host threads, or on one (sequentially,
/// fully deterministic scheduling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecPolicy {
    /// Run everything on the calling thread, in partition order.
    #[default]
    Sequential,
    /// Run on up to this many host threads (at least 1).
    Threads(usize),
    /// Decide from measured work, per fused segment, between sequential
    /// and threaded execution: a segment fans out at the cap, with a grain
    /// of `parts / (threads · 4)` (at least 1), unless its last run
    /// measured less than [`FAN_OUT_NS`] of work (wall time × threads
    /// used) — then it runs inline. A segment never run before fans out.
    /// Outside a fused segment (the borrowed `par_map` family, the owned
    /// maps) this behaves like [`ExecPolicy::Threads`] at the cap. Either
    /// way a threaded answer is the same fork-join dispatch: the caller
    /// works, up to `threads − 1` pool workers may join, and a wrong "fan
    /// out" costs one enqueue.
    ///
    /// The variant only carries the host thread ceiling; the segment
    /// executor in `scl-core` keeps the measurements.
    CostDriven {
        /// Upper bound on host threads (usually [`host_threads`]).
        threads: usize,
    },
}

/// Measured work (wall time × threads, in ns) at which a dispatch is
/// worth fanning out: about 60× a fork-join dispatch (≈ 1.7 µs on a 2-vCPU
/// host), so only work that dwarfs the dispatch pays for it. Read by
/// [`ExecPolicy::CostDriven`]'s segments and by the stream farms, whose
/// mean service time against it sets their routing width and whether a
/// lone item fans out.
pub const FAN_OUT_NS: u64 = 100_000;

/// The environment variable [`ExecPolicy::from_env`] reads.
pub const POLICY_ENV_VAR: &str = "SCL_EXEC_POLICY";

impl ExecPolicy {
    /// Parse a policy name as accepted in [`POLICY_ENV_VAR`]:
    ///
    /// * `seq` / `sequential` — [`ExecPolicy::Sequential`]
    /// * `auto` — [`ExecPolicy::auto`]
    /// * `cost` / `cost-driven` — [`ExecPolicy::cost_driven`]
    /// * `threads:N` (N ≥ 1) — [`ExecPolicy::Threads`]`(N)`
    ///
    /// Unrecognised values are an error, never a silent fallback.
    pub fn parse(s: &str) -> Result<ExecPolicy, String> {
        match s.trim() {
            "seq" | "sequential" => Ok(ExecPolicy::Sequential),
            "auto" => Ok(ExecPolicy::auto()),
            "cost" | "cost-driven" => Ok(ExecPolicy::cost_driven()),
            other => {
                if let Some(n) = other.strip_prefix("threads:") {
                    return match n.parse::<usize>() {
                        Ok(t) if t >= 1 => Ok(ExecPolicy::Threads(t)),
                        _ => Err(format!(
                            "invalid thread count in `{other}` (want `threads:N`, N >= 1)"
                        )),
                    };
                }
                Err(format!(
                    "unrecognised execution policy `{other}` \
                     (want seq | auto | cost | threads:N)"
                ))
            }
        }
    }

    /// The policy pinned through the `SCL_EXEC_POLICY` environment
    /// variable, as the CI matrix does: `Ok(None)` when unset (callers
    /// supply their own default matrix), `Ok(Some(policy))` when set to a
    /// value [`ExecPolicy::parse`] accepts, and `Err` — not a silent
    /// fallback — when set to anything else.
    ///
    /// The accepted values (see [`ExecPolicy::parse`]):
    ///
    /// | value | policy |
    /// |---|---|
    /// | `seq` / `sequential` | [`ExecPolicy::Sequential`] |
    /// | `auto` | [`ExecPolicy::auto`] — threads sized to the host |
    /// | `cost` / `cost-driven` | [`ExecPolicy::cost_driven`] |
    /// | `threads:N` (N ≥ 1) | [`ExecPolicy::Threads`]`(N)` |
    ///
    /// # Examples
    ///
    /// Doctests run in their own single-threaded process, so mutating the
    /// environment here is safe; in multi-threaded programs prefer
    /// setting `SCL_EXEC_POLICY` from the launching shell, as the CI
    /// matrix does.
    ///
    /// ```
    /// use scl_exec::{ExecPolicy, POLICY_ENV_VAR};
    ///
    /// // unset: callers fall back to their own policy matrix
    /// std::env::remove_var(POLICY_ENV_VAR);
    /// assert_eq!(ExecPolicy::from_env(), Ok(None));
    ///
    /// // pinned, as `SCL_EXEC_POLICY=threads:4 cargo test` would
    /// std::env::set_var(POLICY_ENV_VAR, "threads:4");
    /// assert_eq!(ExecPolicy::from_env(), Ok(Some(ExecPolicy::Threads(4))));
    ///
    /// std::env::set_var(POLICY_ENV_VAR, "seq");
    /// assert_eq!(ExecPolicy::from_env(), Ok(Some(ExecPolicy::Sequential)));
    ///
    /// // unrecognised values are loud errors, never silent fallbacks
    /// std::env::set_var(POLICY_ENV_VAR, "warp-speed");
    /// assert!(ExecPolicy::from_env().is_err());
    /// ```
    pub fn from_env() -> Result<Option<ExecPolicy>, String> {
        match std::env::var(POLICY_ENV_VAR) {
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(e) => Err(format!("{POLICY_ENV_VAR}: {e}")),
            Ok(s) => ExecPolicy::parse(&s)
                .map(Some)
                .map_err(|e| format!("{POLICY_ENV_VAR}: {e}")),
        }
    }

    /// Threaded policy sized to the host's available parallelism (cached —
    /// see [`host_threads`]).
    pub fn auto() -> ExecPolicy {
        let n = host_threads();
        if n <= 1 {
            ExecPolicy::Sequential
        } else {
            ExecPolicy::Threads(n)
        }
    }

    /// Cost-driven policy capped at the host's available parallelism
    /// (cached — see [`host_threads`]).
    pub fn cost_driven() -> ExecPolicy {
        ExecPolicy::CostDriven {
            threads: host_threads(),
        }
    }

    /// The number of host threads this policy will actually use for `tasks`
    /// independent tasks (never more threads than tasks, never zero).
    /// [`ExecPolicy::CostDriven`] answers with its ceiling; the per-segment
    /// decision happens in the fused executor.
    pub fn effective_threads(&self, tasks: usize) -> usize {
        match *self {
            ExecPolicy::Sequential => 1,
            ExecPolicy::Threads(n) | ExecPolicy::CostDriven { threads: n } => {
                n.max(1).min(tasks.max(1))
            }
        }
    }

    /// True if this policy may use more than one thread.
    pub fn is_parallel(&self) -> bool {
        matches!(
            self,
            ExecPolicy::Threads(n) | ExecPolicy::CostDriven { threads: n } if *n > 1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(ExecPolicy::Sequential.effective_threads(100), 1);
        assert_eq!(ExecPolicy::Threads(8).effective_threads(3), 3);
        assert_eq!(ExecPolicy::Threads(8).effective_threads(100), 8);
        assert_eq!(ExecPolicy::Threads(0).effective_threads(5), 1);
        assert_eq!(ExecPolicy::Threads(4).effective_threads(0), 1);
    }

    #[test]
    fn parallel_predicate() {
        assert!(!ExecPolicy::Sequential.is_parallel());
        assert!(!ExecPolicy::Threads(1).is_parallel());
        assert!(ExecPolicy::Threads(2).is_parallel());
    }

    #[test]
    fn auto_is_sane() {
        match ExecPolicy::auto() {
            ExecPolicy::Sequential => {}
            ExecPolicy::Threads(n) => assert!(n >= 2),
            ExecPolicy::CostDriven { .. } => panic!("auto never yields CostDriven"),
        }
    }

    #[test]
    fn host_threads_is_cached_and_positive() {
        let a = host_threads();
        let b = host_threads();
        assert!(a >= 1);
        assert_eq!(a, b);
    }

    #[test]
    fn cost_driven_carries_the_cached_ceiling() {
        let p = ExecPolicy::cost_driven();
        assert_eq!(
            p,
            ExecPolicy::CostDriven {
                threads: host_threads()
            }
        );
        assert_eq!(p.effective_threads(2), host_threads().min(2));
        assert_eq!(
            p.is_parallel(),
            host_threads() > 1,
            "cost-driven parallelism mirrors the host"
        );
        assert!(!ExecPolicy::CostDriven { threads: 1 }.is_parallel());
    }

    #[test]
    fn default_is_sequential() {
        assert_eq!(ExecPolicy::default(), ExecPolicy::Sequential);
    }

    #[test]
    fn parse_accepts_the_ci_matrix_names() {
        assert_eq!(ExecPolicy::parse("seq"), Ok(ExecPolicy::Sequential));
        assert_eq!(ExecPolicy::parse("sequential"), Ok(ExecPolicy::Sequential));
        assert_eq!(ExecPolicy::parse("auto"), Ok(ExecPolicy::auto()));
        assert_eq!(ExecPolicy::parse("cost"), Ok(ExecPolicy::cost_driven()));
        assert_eq!(
            ExecPolicy::parse("cost-driven"),
            Ok(ExecPolicy::cost_driven())
        );
        assert_eq!(ExecPolicy::parse("threads:6"), Ok(ExecPolicy::Threads(6)));
        assert_eq!(ExecPolicy::parse(" seq "), Ok(ExecPolicy::Sequential));
    }

    #[test]
    fn parse_rejects_garbage_loudly() {
        for bad in ["", "fast", "threads:", "threads:0", "threads:x", "SEQ"] {
            let err = ExecPolicy::parse(bad).unwrap_err();
            assert!(
                err.contains("polic") || err.contains("thread"),
                "{bad}: {err}"
            );
        }
    }

    // from_env itself is covered indirectly: the test binaries run with
    // SCL_EXEC_POLICY either unset or set by the CI matrix, and mutating
    // the process environment from a multi-threaded test harness is UB in
    // Rust 2024 terms — parse() above covers the interesting logic.
    #[test]
    fn from_env_agrees_with_the_current_environment() {
        match std::env::var(POLICY_ENV_VAR) {
            Err(_) => assert_eq!(ExecPolicy::from_env(), Ok(None)),
            Ok(s) => match ExecPolicy::parse(&s) {
                Ok(p) => assert_eq!(ExecPolicy::from_env(), Ok(Some(p))),
                Err(_) => assert!(ExecPolicy::from_env().is_err()),
            },
        }
    }
}
