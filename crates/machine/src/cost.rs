//! Machine cost models.
//!
//! A [`CostModel`] turns abstract quantities — messages, bytes, hops,
//! comparisons, floating-point operations — into [`Time`]. All the simulator's
//! performance predictions flow through one of these, so swapping the model
//! re-targets the whole library to a different machine: the paper's Fujitsu
//! AP1000, a modern commodity cluster, or a synthetic "communication is free"
//! machine used for ablation studies.

use crate::time::Time;

/// Linear (LogP-flavoured) machine cost parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed per-message software overhead (send + receive path).
    pub t_msg: Time,
    /// Time to move one byte across the network (inverse bandwidth).
    pub t_byte: Time,
    /// Extra latency per link crossed.
    pub t_hop: Time,
    /// Cost of a full-machine barrier (the AP1000 has a dedicated
    /// synchronisation network, so this is small and size-independent).
    pub t_barrier: Time,
    /// Time per floating-point operation.
    pub t_flop: Time,
    /// Time per key comparison (sorting workloads).
    pub t_cmp: Time,
    /// Time per element move/copy in local memory.
    pub t_mem: Time,
    /// True if the machine has single-phase hardware broadcast
    /// (the AP1000 B-net); otherwise broadcast uses a log-depth tree.
    pub hw_broadcast: bool,
    /// Link-contention factor applied to the byte-transfer term of bulk
    /// phases (permutations, collectives): `1.0` = contention-free links,
    /// `2.0` = each byte effectively costs double because phases share
    /// channels. Point-to-point sends are unaffected.
    pub contention: f64,
}

impl CostModel {
    /// Approximate Fujitsu AP1000 parameters, assembled from the machine
    /// description in Ishihata et al. (1991) cited by the paper:
    /// 25 MHz SPARC cells, 25 MB/s T-net channels, a B-net broadcast network
    /// and an S-net barrier network. Software messaging overhead dominates
    /// small messages (tens of microseconds, as was typical of the era).
    ///
    /// These are *calibration* constants: the reproduction targets the shape
    /// of the paper's scaling results, not its absolute seconds.
    pub fn ap1000() -> CostModel {
        CostModel {
            t_msg: Time::from_micros(50.0),
            t_byte: Time::from_nanos(40.0), // 25 MB/s
            t_hop: Time::from_micros(0.2),
            t_barrier: Time::from_micros(5.0), // hardware S-net
            t_flop: Time::from_micros(0.4),    // ~2.5 MFLOPS sustained
            t_cmp: Time::from_micros(0.4),     // compare + branch + memory
            t_mem: Time::from_micros(0.2),
            hw_broadcast: true, // B-net
            contention: 1.0,
        }
    }

    /// A contemporary commodity cluster: ~1 µs MPI latency, ~10 GB/s links,
    /// ~1 ns cores.
    pub fn modern_cluster() -> CostModel {
        CostModel {
            t_msg: Time::from_micros(1.0),
            t_byte: Time::from_nanos(0.1),
            t_hop: Time::from_nanos(30.0),
            t_barrier: Time::from_micros(3.0),
            t_flop: Time::from_nanos(0.5),
            t_cmp: Time::from_nanos(1.0),
            t_mem: Time::from_nanos(0.5),
            hw_broadcast: false,
            contention: 1.0,
        }
    }

    /// All communication is free; computation costs remain. Used by the
    /// `ablations` and `models` binaries to isolate communication overheads.
    pub fn zero_comm() -> CostModel {
        CostModel {
            t_msg: Time::ZERO,
            t_byte: Time::ZERO,
            t_hop: Time::ZERO,
            t_barrier: Time::ZERO,
            ..CostModel::ap1000()
        }
    }

    /// Every unit quantity costs exactly one second. Makes analytic tests
    /// read as plain operation counts.
    pub fn unit() -> CostModel {
        CostModel {
            t_msg: Time::from_secs(1.0),
            t_byte: Time::from_secs(1.0),
            t_hop: Time::from_secs(1.0),
            t_barrier: Time::from_secs(1.0),
            t_flop: Time::from_secs(1.0),
            t_cmp: Time::from_secs(1.0),
            t_mem: Time::from_secs(1.0),
            hw_broadcast: false,
            contention: 1.0,
        }
    }

    /// Cost of one point-to-point message of `bytes` payload over `hops`
    /// links: `t_msg + hops·t_hop + bytes·t_byte`.
    #[inline]
    pub fn ptp(&self, bytes: usize, hops: usize) -> Time {
        self.t_msg + self.t_hop * hops + self.t_byte * bytes
    }

    /// A copy of this model with the given link-contention factor.
    pub fn with_contention(mut self, factor: f64) -> CostModel {
        self.contention = factor;
        self
    }

    /// Decide whether a **communication barrier's local data movement** —
    /// moving `parts` cells of roughly `per_part_bytes` each (a bucket
    /// transpose, a gather concat, a partition scatter) — should fan out
    /// over a host offering up to `max_threads` threads.
    ///
    /// The model weighs the movement's local work per cell
    /// (`per_part_bytes · t_mem`) against its per-phase coordination
    /// overhead (`t_msg + t_barrier`, standing in for the host cost of
    /// waking and joining workers): movements whose total work is within a
    /// few multiples of the overhead run sequentially, larger ones fan out
    /// with a grain that gives each thread several scheduling quanta for
    /// self-balancing. The payload is the *actual* bytes the skeleton is
    /// about to move (it has them, for route charging), not a static
    /// `size_of`: pure pointer moves report pointer-sized payloads and stay
    /// sequential, while element-copying movements (concat, scatter)
    /// report the real span and fan out once it dwarfs the dispatch
    /// overhead.
    pub fn comm_decision(
        &self,
        parts: usize,
        per_part_bytes: usize,
        max_threads: usize,
    ) -> FusedDecision {
        let sequential = FusedDecision {
            threads: 1,
            grain: 1,
        };
        if max_threads <= 1 || parts <= 1 {
            return sequential;
        }
        let per_part = self.t_mem * per_part_bytes.max(1);
        let overhead = self.t_msg + self.t_barrier;
        if per_part * parts <= overhead * 4u64 {
            return sequential;
        }
        let threads = max_threads.min(parts);
        FusedDecision {
            threads,
            grain: (parts / (threads * 4)).max(1),
        }
    }

    /// Sanity check: every parameter finite and non-negative, contention
    /// at least 1.
    pub fn is_valid(&self) -> bool {
        [
            self.t_msg,
            self.t_byte,
            self.t_hop,
            self.t_barrier,
            self.t_flop,
            self.t_cmp,
            self.t_mem,
        ]
        .iter()
        .all(|t| t.is_valid())
            && self.contention.is_finite()
            && self.contention >= 1.0
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::ap1000()
    }
}

/// The execution choice a [`CostModel`] makes for one communication
/// barrier's local data movement — see [`CostModel::comm_decision`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedDecision {
    /// Host threads to run the movement on (`1` = sequential, inline).
    pub threads: usize,
    /// Consecutive partitions a worker claims per scheduling step.
    pub grain: usize,
}

/// A bag of abstract local work, charged to a processor's clock via
/// [`Work::cost`].
///
/// Sequential kernels in `scl-apps` are instrumented to *count* their
/// operations (comparisons for sorting, flops for elimination, element moves
/// for merging); the counts are deterministic given the input, which makes
/// the whole simulation reproducible. Wall-clock measured work can be folded
/// in through the `seconds` field.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Work {
    /// Floating point operations.
    pub flops: u64,
    /// Key comparisons.
    pub cmps: u64,
    /// Element moves / copies.
    pub moves: u64,
    /// Directly measured seconds (e.g. host wall time of an opaque closure).
    pub seconds: f64,
}

impl Work {
    /// No work at all.
    pub const NONE: Work = Work {
        flops: 0,
        cmps: 0,
        moves: 0,
        seconds: 0.0,
    };

    /// Work consisting of `n` floating-point operations.
    pub fn flops(n: u64) -> Work {
        Work {
            flops: n,
            ..Work::NONE
        }
    }

    /// Work consisting of `n` comparisons.
    pub fn cmps(n: u64) -> Work {
        Work {
            cmps: n,
            ..Work::NONE
        }
    }

    /// Work consisting of `n` element moves.
    pub fn moves(n: u64) -> Work {
        Work {
            moves: n,
            ..Work::NONE
        }
    }

    /// Work measured directly in seconds.
    pub fn seconds(s: f64) -> Work {
        Work {
            seconds: s,
            ..Work::NONE
        }
    }

    /// The time this work takes under `model`.
    pub fn cost(&self, model: &CostModel) -> Time {
        model.t_flop * self.flops
            + model.t_cmp * self.cmps
            + model.t_mem * self.moves
            + Time::from_secs(self.seconds)
    }

    /// Component-wise sum of two work bags.
    pub fn plus(self, other: Work) -> Work {
        Work {
            flops: self.flops + other.flops,
            cmps: self.cmps + other.cmps,
            moves: self.moves + other.moves,
            seconds: self.seconds + other.seconds,
        }
    }

    /// True if the bag is empty.
    pub fn is_none(&self) -> bool {
        *self == Work::NONE
    }
}

impl std::ops::Add for Work {
    type Output = Work;
    fn add(self, rhs: Work) -> Work {
        self.plus(rhs)
    }
}

impl std::ops::AddAssign for Work {
    fn add_assign(&mut self, rhs: Work) {
        *self = self.plus(rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        assert!(CostModel::ap1000().is_valid());
        assert!(CostModel::modern_cluster().is_valid());
        assert!(CostModel::zero_comm().is_valid());
        assert!(CostModel::unit().is_valid());
    }

    #[test]
    fn ptp_linear_in_bytes_and_hops() {
        let m = CostModel::unit();
        assert_eq!(m.ptp(0, 0).as_secs(), 1.0); // just t_msg
        assert_eq!(m.ptp(3, 0).as_secs(), 4.0);
        assert_eq!(m.ptp(0, 2).as_secs(), 3.0);
        assert_eq!(m.ptp(3, 2).as_secs(), 6.0);
    }

    #[test]
    fn zero_comm_makes_messages_free() {
        let m = CostModel::zero_comm();
        assert_eq!(m.ptp(1 << 20, 10), Time::ZERO);
        // but computation still costs
        assert!(Work::cmps(100).cost(&m) > Time::ZERO);
    }

    #[test]
    fn work_cost_unit_model_counts_ops() {
        let m = CostModel::unit();
        let w = Work {
            flops: 2,
            cmps: 3,
            moves: 4,
            seconds: 5.0,
        };
        assert_eq!(w.cost(&m).as_secs(), 2.0 + 3.0 + 4.0 + 5.0);
    }

    #[test]
    fn work_addition() {
        let a = Work::flops(1) + Work::cmps(2) + Work::moves(3);
        assert_eq!(
            a,
            Work {
                flops: 1,
                cmps: 2,
                moves: 3,
                seconds: 0.0
            }
        );
        let mut b = Work::NONE;
        b += a;
        b += Work::seconds(1.5);
        assert_eq!(b.seconds, 1.5);
        assert!(!b.is_none());
        assert!(Work::NONE.is_none());
    }

    #[test]
    fn contention_scales_phase_bytes() {
        use crate::network::Network;
        use crate::topology::Topology;
        let topo = Topology::FullyConnected { procs: 8 };
        let base = CostModel::unit();
        let congested = CostModel::unit().with_contention(2.0);
        let n1 = Network::new(&base, &topo);
        let n2 = Network::new(&congested, &topo);
        // byte term doubles, latency terms don't
        let c1 = n1.all_to_all(8, 100).as_secs();
        let c2 = n2.all_to_all(8, 100).as_secs();
        assert!(c2 > c1);
        assert!((c2 - c1 - 7.0 * 100.0).abs() < 1e-9, "{c1} vs {c2}");
        // zero-byte phases are unaffected
        assert_eq!(n1.all_to_all(8, 0), n2.all_to_all(8, 0));
    }

    #[test]
    fn contention_below_one_is_invalid() {
        assert!(!CostModel::unit().with_contention(0.5).is_valid());
        assert!(CostModel::unit().with_contention(3.0).is_valid());
    }

    #[test]
    fn comm_decision_degenerate_cases_are_sequential() {
        let m = CostModel::unit();
        // no host parallelism, or a single partition: nothing to fan out
        assert_eq!(m.comm_decision(64, 8 * 1024, 1).threads, 1);
        assert_eq!(m.comm_decision(1, 8 * 1024, 8).threads, 1);
        assert_eq!(m.comm_decision(0, 8 * 1024, 8).threads, 1);
    }

    #[test]
    fn comm_decision_small_movements_stay_sequential() {
        // AP1000: coordination overhead (55 µs) dwarfs a couple of memory
        // ops per partition, so tiny movements run inline.
        let m = CostModel::ap1000();
        let d = m.comm_decision(8, 2 * 8, 8);
        assert_eq!(
            d,
            FusedDecision {
                threads: 1,
                grain: 1
            }
        );
    }

    #[test]
    fn comm_decision_large_movements_fan_out() {
        let m = CostModel::ap1000();
        let d = m.comm_decision(32, 4 * 64 * 1024, 8);
        assert_eq!(d.threads, 8);
        // 32 parts / (8 threads * 4 quanta) = 1 part per claim
        assert_eq!(d.grain, 1);
        // more parts than scheduling quanta -> coarser grain
        let d = m.comm_decision(1024, 4 * 64 * 1024, 8);
        assert_eq!(d.grain, 1024 / (8 * 4));
        // never more threads than parts
        assert_eq!(m.comm_decision(3, 4 * 64 * 1024, 8).threads, 3);
    }

    #[test]
    fn comm_decision_gates_on_real_payload() {
        let m = CostModel::ap1000();
        // pointer-sized cell moves (a bucket transpose of Vec headers on a
        // small grid) stay sequential ...
        assert_eq!(m.comm_decision(16, 24, 8).threads, 1);
        // ... while a gather concat of 64 KiB parts fans out
        assert_eq!(m.comm_decision(16, 64 * 1024, 8).threads, 8);
        assert_eq!(m.comm_decision(1, 1 << 20, 8).threads, 1);
    }

    #[test]
    fn ap1000_is_slower_than_modern() {
        let old = CostModel::ap1000();
        let new = CostModel::modern_cluster();
        assert!(Work::cmps(1000).cost(&old) > Work::cmps(1000).cost(&new));
        assert!(old.ptp(1024, 4) > new.ptp(1024, 4));
    }
}
