#![warn(missing_docs)]
//! # scl-stream — a streaming skeleton runtime
//!
//! Everything else in the workspace executes **one input through one plan
//! and returns**: [`Skel::run`] stage by stage, `Scl::run_fused`
//! partition-resident — two walks of the plan's one operator chain. But
//! the paper's pipeline and farm skeletons are
//! fundamentally *stream* operators — FastFlow-style runtimes deploy them
//! as persistent graphs of stages over bounded queues, sizing each farm
//! from its measured service time. This crate brings that to the
//! reproduction: it **compiles a `Skel<A, B>` plan into a persistent
//! operator graph** and serves an unbounded stream of inputs through it.
//!
//! ## The operator graph
//!
//! [`Skel::into_stream_ops`] hands over the plan's operator chain —
//! maximal fused compute segments separated by barriers — and
//! [`StreamExec::new`] turns that chain into a graph:
//!
//! * each **segment** becomes a long-lived **farm stage**: `N` replica
//!   *lanes*, each a private input/output ring pair, served by
//!   run-to-empty jobs on the process-wide `scl-exec` pool
//!   ([`ThreadPool::shared`](scl_exec::ThreadPool::shared)) — the graph
//!   owns no thread, so building one spawns none and dropping one joins
//!   none. Segments are pure and part-local (`Fn + Send + Sync`), so
//!   lanes process *different stream items* concurrently; a reorder
//!   buffer restores stream order on collection (emitter / N replicas /
//!   **order-preserving** collector);
//! * each **barrier** (communication skeletons, scans, repartitioning,
//!   `iter_until` loops — anything stateful or whole-configuration)
//!   becomes a **stage boundary** executed serially, in stream order, on
//!   the pumping thread — which also runs the segments of an item that is
//!   alone in the graph while its caller blocks for it
//!   ([`StreamExec::pop_outcome`]): a lone request costs one fused run,
//!   not a hand-off per farm. The replicas are idle then, so a farm
//!   measured heavy (see *Farm width* below) has the pump run that segment
//!   data-parallel across the farm's width;
//! * stages are linked by **bounded queues** of `capacity` items, so
//!   backpressure propagates all the way to [`StreamExec::push`] and
//!   in-flight memory stays **O(capacity × stages)** regardless of stream
//!   length. Every link is a **lock-free SPSC ring matrix**
//!   ([`scl_exec::ring_mpmc`]) — at most one job serves a lane at a
//!   time, so each lane stays single-producer/single-consumer,
//!   FastFlow-style, and the farm's width steers the pump's routing. A
//!   ring needs one slot per lane, so a farm has at most `capacity`
//!   lanes ([`StreamPolicy::with_capacity`]).
//!
//! ## Per-item charging
//!
//! Every stream item carries its **own** simulated-machine context,
//! cloned from the template in [`StreamPolicy`]: segments run through
//! [`SegmentOp::run`] with `summed = false` and barriers through their own
//! closures — the very interpreter [`Skel::run`] is. Collecting
//! [`StreamExec::run_stream`] over N inputs
//! therefore equals N eager [`Skel::run`] calls bit-for-bit, with
//! identical per-item [`MachineReport`]s (under `MeasureMode::None` /
//! costed stages — wall-clock measured charges are inherently
//! non-deterministic). The differential suite `tests/stream_vs_eager.rs`
//! holds this under sequential, threaded, and cost-driven policies.
//!
//! ## Farm width
//!
//! One measured rule sets how wide a farm runs. Each farm has
//! `min(policy threads, capacity)` lanes. Once its mean service time per
//! item reaches [`FAN_OUT_NS`](scl_exec::FAN_OUT_NS) — the threshold a
//! cost-driven fused segment also fans out at — the pump routes items
//! across all of them; before that, and for a farm with nothing measured
//! yet, it routes to one lane, since a light item gains less from a second
//! lane than the hand-off costs. The same rule decides whether a lone
//! item's segment runs data-parallel. [`StageStat::width`] reports the
//! routing width. The rule reads only the farm's own service counters.
//!
//! ## Serving integration
//!
//! Two hooks exist for a layer above (the `scl-serve` multi-tenant
//! service) that manages *many* graphs against one host:
//!
//! * **A thread share** — [`StreamExec::set_share`] caps every farm at a
//!   tenant's fair share of the host's threads: the most jobs the graph
//!   has on the shared pool at once. A scheduler can re-shard capacity
//!   between tenants every round by storing one integer per farm.
//! * **Fused-style charging** — [`StreamPolicy::with_fused_charging`]
//!   makes segments charge one summed `"fused"` compute event per part
//!   ([`SegmentOp::run`] with `summed = true`) instead of replaying eager
//!   per-stage charges, so per-item reports equal solo
//!   [`Scl::run_fused`](scl_core::Scl::run_fused) /
//!   [`Scl::run_optimized`](scl_core::Scl::run_optimized) calls — what a
//!   service needs when it compiles *optimized* plans into its cache.
//!
//! ```
//! use scl_core::prelude::*;
//! use scl_stream::{StreamExec, StreamPolicy};
//!
//! // square then rotate: one farm stage, one barrier boundary
//! let plan = Skel::map(|x: &i64| x * x).then(Skel::rotate(1));
//! let policy = StreamPolicy::new(Machine::ap1000(4)).with_exec(ExecPolicy::Threads(2));
//! let exec = StreamExec::new(plan, policy);
//!
//! let inputs = (0..100).map(|k| ParArray::from_parts(vec![k, k + 1, k + 2, k + 3]));
//! let outputs: Vec<_> = exec.run_stream(inputs).collect();
//! assert_eq!(outputs.len(), 100);
//! assert_eq!(outputs[0].to_vec(), vec![1, 4, 9, 0]); // squared, rotated by 1
//! ```
//!
//! [`Skel::run`]: scl_core::Skel::run
//! [`Skel::into_stream_ops`]: scl_core::Skel::into_stream_ops
//! [`SegmentOp::run`]: scl_core::SegmentOp::run

use scl_core::{ErasedArr, FusePort, RequestError, Scl, SclError, Skel};
use scl_exec::{Backoff, ExecPolicy};
use scl_machine::{Machine, MachineReport, Throughput};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

mod graph;

use graph::Graph;

/// How a [`StreamExec`] serves a plan: the machine template each item's
/// context is cloned from, the execution policy bounding farm widths, the
/// channel capacity (backpressure bound), and the charging style.
pub struct StreamPolicy {
    machine: Machine,
    exec: ExecPolicy,
    capacity: usize,
    fused_charging: bool,
}

impl StreamPolicy {
    /// Defaults: [`ExecPolicy::auto`] farm widths, capacity-8 channels,
    /// eager-style per-stage charging.
    pub fn new(machine: Machine) -> StreamPolicy {
        StreamPolicy {
            machine,
            exec: ExecPolicy::auto(),
            capacity: 8,
            fused_charging: false,
        }
    }

    /// Set the execution policy. `Sequential` (or a 1-thread cap) runs the
    /// whole graph inline on the pumping thread — no jobs, fully
    /// deterministic scheduling; `Threads(t)` and `CostDriven { threads: t }`
    /// give every farm `t` lanes (at most the link capacity, see
    /// [`StreamPolicy::with_capacity`]), routed to as the farm's measured
    /// service time decides (see the [crate docs](self)).
    pub fn with_exec(mut self, exec: ExecPolicy) -> StreamPolicy {
        self.exec = exec;
        self
    }

    /// Set the per-link capacity (≥ 1): the backpressure bound. Peak
    /// in-flight items are O(capacity × stages).
    ///
    /// The capacity also bounds farm width: links are ring lane matrices
    /// with at least one slot per lane, so a farm has
    /// `min(policy threads, capacity)` lanes — the default capacity of 8
    /// gives at most 8 lanes per farm however many cores the host has. A
    /// caller who wants 16-wide farms asks for `with_capacity(16)`;
    /// [`StageStat::max_width`] reports the result.
    pub fn with_capacity(mut self, capacity: usize) -> StreamPolicy {
        self.capacity = capacity.max(1);
        self
    }

    /// Charge fused compute segments **fused-style** — one summed
    /// `"fused"` compute event per part per segment
    /// ([`SegmentOp::run`](scl_core::SegmentOp::run) with `summed = true`) —
    /// instead of replaying the eager per-stage charges. Same work totals
    /// and makespan; choose this when per-item reports must agree with
    /// solo [`Scl::run_fused`](scl_core::Scl::run_fused) /
    /// [`Scl::run_optimized`](scl_core::Scl::run_optimized) calls rather
    /// than solo eager runs, as `scl-serve` does for its optimized
    /// submissions.
    pub fn with_fused_charging(mut self, fused_charging: bool) -> StreamPolicy {
        self.fused_charging = fused_charging;
        self
    }
}

/// One stream item in flight: its position in the stream, its private
/// simulated-machine context, an optional absolute deadline, and its
/// payload — or the typed [`RequestError`] that poisoned it (resolved on
/// the caller when the item completes).
struct Envelope {
    seq: u64,
    scl: Scl,
    /// Absolute deadline: once passed, every remaining stage
    /// short-circuits the item as [`RequestError::DeadlineExceeded`]
    /// instead of occupying a lane.
    deadline: Option<Instant>,
    payload: Result<ErasedArr, RequestError>,
}

/// What one stream item resolved to: its output and per-item machine
/// report, or the typed reason it failed.
pub type StreamOutcome<B> = Result<(B, MachineReport), RequestError>;

/// Per-farm counters the lanes' jobs (and the pump, for a lone item)
/// update; the farm's width rule reads their mean.
#[derive(Default)]
struct FarmStats {
    busy_nanos: AtomicU64,
    items: AtomicU64,
}

/// A snapshot of one graph stage, from [`StreamExec::stage_stats`].
#[derive(Debug, Clone)]
pub struct StageStat {
    /// Stage label: segment stage names joined with `+`, or the barrier
    /// chain's names.
    pub label: String,
    /// True for a farm (segment) stage, false for a barrier boundary.
    pub farm: bool,
    /// Lanes the pump routes to right now: `max_width` once the farm's
    /// mean service time reaches [`FAN_OUT_NS`](scl_exec::FAN_OUT_NS), 1
    /// before (and for barriers and inline stages).
    pub width: usize,
    /// Lane ceiling: the farm's lane count, capped at the share set with
    /// [`StreamExec::set_share`].
    pub max_width: usize,
    /// Input-queue depth right now (0 for barriers).
    pub queue_depth: usize,
    /// Items this stage has processed.
    pub items: u64,
    /// Mean per-item service time observed on this stage, in seconds.
    pub mean_service_secs: f64,
}

/// A running streaming service for one plan — see the [crate docs](self).
///
/// Feed it with [`StreamExec::push`] / collect with [`StreamExec::pop`] or
/// [`StreamExec::drain`], or hand it an iterator with
/// [`StreamExec::run_stream`]. Outputs always come back in input order.
pub struct StreamExec<A: FusePort, B: FusePort> {
    graph: Graph,
    machine: Machine,
    next_seq: u64,
    completed: u64,
    started: Option<Instant>,
    peak_in_flight: u64,
    /// Completed items in stream order: each slot is the item's output
    /// and report, or the typed error that poisoned it. The legacy pop
    /// APIs re-raise errors as panics; the `*_outcome` APIs hand them out
    /// as values.
    done: VecDeque<StreamOutcome<B>>,
    _input: PhantomData<fn(A)>,
}

impl<A, B> StreamExec<A, B>
where
    A: FusePort + Send + 'static,
    B: FusePort + 'static,
{
    /// Compile `plan` into a persistent operator graph served under
    /// `policy`. No thread is spawned: the farms' lanes are served by jobs
    /// on the shared `scl-exec` pool, which grows here (once per process)
    /// to the widest farm.
    pub fn new(plan: Skel<'static, A, B>, policy: StreamPolicy) -> StreamExec<A, B> {
        let StreamPolicy {
            machine,
            exec,
            capacity,
            fused_charging,
        } = policy;
        StreamExec {
            graph: Graph::build(plan.into_stream_ops(), capacity, exec, fused_charging),
            machine,
            next_seq: 0,
            completed: 0,
            started: None,
            peak_in_flight: 0,
            done: VecDeque::new(),
            _input: PhantomData,
        }
    }

    /// Items accepted but not yet completed — the graph's memory
    /// pressure. Bounded by the channel capacities, never by the stream
    /// length.
    pub fn in_flight(&self) -> u64 {
        self.next_seq - self.completed
    }

    /// High-water mark of [`StreamExec::in_flight`] over the whole run —
    /// the gauge the backpressure tests assert on.
    pub fn peak_in_flight(&self) -> u64 {
        self.peak_in_flight
    }

    /// Completed items over elapsed host time since the first push.
    pub fn throughput(&self) -> Throughput {
        Throughput {
            items: self.completed,
            secs: self.started.map_or(0.0, |t| t.elapsed().as_secs_f64()),
        }
    }

    /// Number of farm stages in the graph (0 for inline/sequential
    /// service and for plans with no compute segment).
    pub fn farm_stages(&self) -> usize {
        self.graph.farms.len()
    }

    /// A snapshot of every graph stage, in pipeline order.
    pub fn stage_stats(&self) -> Vec<StageStat> {
        self.graph.stage_stats()
    }

    /// Cap every farm stage at `share` lanes (≥ 1; never more than its
    /// lane count) — this graph's fair share of the host's threads, which
    /// a shard scheduler sets when the share changes. Lanes beyond the
    /// share are routed nothing, so they get no job once served dry.
    pub fn set_share(&mut self, share: usize) {
        self.graph.set_share(share);
    }

    /// Feed one item into the graph, blocking (and pumping the graph)
    /// while the entry slot is taken — this is where backpressure reaches
    /// the producer. Fails fast with [`SclError::MachineTooSmall`] when the
    /// item spans more parts than the machine template has processors.
    ///
    /// An item pushed into an empty farmed graph stays on the entry slot
    /// and `push` returns without a pump round: the next `push` or
    /// `try_pop*` routes it to a lane, and a blocking pop carries it
    /// through the farms on the calling thread (see
    /// [`StreamExec::pop_outcome`]). `push` itself never runs a farm
    /// segment.
    pub fn push(&mut self, item: A) -> Result<(), SclError> {
        self.push_deadline(item, None)
    }

    /// [`StreamExec::push`] with an absolute deadline attached to the
    /// item. Once the deadline passes, every stage the item has not yet
    /// reached short-circuits it as [`RequestError::DeadlineExceeded`]
    /// instead of running — the item still completes (in stream order) so
    /// the caller gets a typed failure, but it stops occupying lanes.
    /// `None` streams the item with no deadline, exactly like `push`.
    pub fn push_deadline(&mut self, item: A, deadline: Option<Instant>) -> Result<(), SclError> {
        self.started.get_or_insert_with(Instant::now);
        let env = self.make_env(item, deadline)?;
        // the push-side backpressure point: the graph must have swallowed
        // the previous item off the entry slot
        self.pump_until(false, |s| s.graph.ingress.is_none());
        self.graph.offer(env);
        self.peak_in_flight = self.peak_in_flight.max(self.in_flight());
        // a lone item waits on the entry slot for whoever comes next
        if self.in_flight() > 1 || self.graph.farms.is_empty() {
            self.service(false);
        }
        Ok(())
    }

    /// Next completed item in stream order — output and report, or the
    /// typed [`RequestError`] that poisoned it — without blocking. `None`
    /// when nothing is ready. This is the non-unwinding collection API a
    /// serving layer uses: failure arrives as a value, never a panic.
    pub fn try_pop_outcome(&mut self) -> Option<StreamOutcome<B>> {
        if self.done.is_empty() {
            self.service(false);
        }
        self.done.pop_front()
    }

    /// Next completed item in stream order as a value, pumping the graph
    /// until one is ready. `None` only when nothing is in flight.
    ///
    /// While it waits, the calling thread is one more replica of every
    /// farm for an item that is alone in the graph: it runs that item's
    /// remaining segments itself — same segment kernel, deadline check,
    /// charges and stage statistics as a lane's job — instead of handing
    /// it to a lane at each farm. The lanes are idle then, so at
    /// a farm whose measured mean service time is 100 µs or more the
    /// caller runs the segment data-parallel across the farm's width (at
    /// most the share set with [`StreamExec::set_share`]); the per-item
    /// report is the same either way. With two or more items in flight every segment goes to
    /// the lanes as usual. Every blocking collection API (`pop*`,
    /// `drain*`, [`StreamIter`] once its input is exhausted) waits here.
    pub fn pop_outcome(&mut self) -> Option<StreamOutcome<B>> {
        self.pump_until(true, |s| !s.done.is_empty() || s.in_flight() == 0);
        self.done.pop_front()
    }

    /// Complete everything in flight and return it as values, in stream
    /// order: one [`StreamOutcome`] per item, failures included.
    pub fn drain_outcomes(&mut self) -> Vec<StreamOutcome<B>> {
        let mut out = Vec::new();
        while let Some(x) = self.pop_outcome() {
            out.push(x);
        }
        out
    }

    /// Next completed output in stream order, with the item's simulated
    /// machine report, without blocking. `None` when nothing is ready.
    ///
    /// A poisoned item re-raises its panic here (not in [`StreamExec::push`],
    /// which only ever reports backpressure): the panic fires on the
    /// collecting thread when the failed item's turn in stream order
    /// comes up, rendered from its typed [`RequestError`]. A caller that
    /// catches it can keep popping — the in-flight gauge stayed
    /// consistent, so the rest of the stream drains normally. Collect
    /// with [`StreamExec::try_pop_outcome`] instead to receive the error
    /// as a value.
    pub fn try_pop_with_report(&mut self) -> Option<(B, MachineReport)> {
        match self.try_pop_outcome()? {
            Ok(out) => Some(out),
            Err(e) => panic!("{e}"),
        }
    }

    /// [`StreamExec::try_pop_with_report`] discarding the report.
    pub fn try_pop(&mut self) -> Option<B> {
        self.try_pop_with_report().map(|(b, _)| b)
    }

    /// Next completed output in stream order, pumping the graph until one
    /// is ready. `None` only when nothing is in flight. A poisoned item
    /// re-raises its panic as in [`StreamExec::try_pop_with_report`].
    pub fn pop_with_report(&mut self) -> Option<(B, MachineReport)> {
        match self.pop_outcome()? {
            Ok(out) => Some(out),
            Err(e) => panic!("{e}"),
        }
    }

    /// [`StreamExec::pop_with_report`] discarding the report.
    pub fn pop(&mut self) -> Option<B> {
        self.pop_with_report().map(|(b, _)| b)
    }

    /// Complete everything in flight and return it, in stream order, with
    /// per-item machine reports.
    pub fn drain_with_reports(&mut self) -> Vec<(B, MachineReport)> {
        let mut out = Vec::new();
        while let Some(x) = self.pop_with_report() {
            out.push(x);
        }
        out
    }

    /// Complete everything in flight and return it, in stream order.
    pub fn drain(&mut self) -> Vec<B> {
        self.drain_with_reports()
            .into_iter()
            .map(|(b, _)| b)
            .collect()
    }

    /// Serve a whole input stream: a pull-based adaptor that pushes from
    /// `input` as the consumer pulls, keeping the graph full (and the
    /// memory bounded) without ever buffering the stream. Outputs come
    /// back in input order.
    pub fn run_stream<I>(self, input: I) -> StreamIter<A, B, I::IntoIter>
    where
        I: IntoIterator<Item = A>,
    {
        StreamIter {
            exec: self,
            input: input.into_iter(),
            exhausted: false,
        }
    }

    // ---- internals ---------------------------------------------------------

    /// Wrap an input into an envelope with its own fresh machine context.
    /// Per-item contexts run host-sequential — the stream's parallelism
    /// comes from the graph's farm lanes and pipeline overlap — except
    /// for a heavy lone item, whose segments the pump fans out across the
    /// idle farm's width (see [`StreamExec::pop_outcome`]).
    fn make_env(&mut self, item: A, deadline: Option<Instant>) -> Result<Envelope, SclError> {
        if item.parts_len() > self.machine.nprocs() {
            return Err(SclError::MachineTooSmall {
                needed: item.parts_len(),
                procs: self.machine.nprocs(),
            });
        }
        let scl = Scl::new(self.machine.clone());
        let seq = self.next_seq;
        self.next_seq += 1;
        // an already-expired item never touches a stage: it enters the
        // graph pre-poisoned and flows straight through to completion
        let payload = if deadline.is_some_and(|d| Instant::now() >= d) {
            Err(RequestError::DeadlineExceeded)
        } else {
            Ok(item.erase())
        };
        Ok(Envelope {
            seq,
            scl,
            deadline,
            payload,
        })
    }

    /// Pump until `ready` holds — the one wait loop under `push` and the
    /// blocking pops. A round that moved nothing climbs the [`Backoff`]
    /// ladder; once that is spent the pump parks on the graph's park slot
    /// behind one more re-check round, and never right after a round that
    /// made progress. Lanes' jobs wake the slot when they free an input
    /// slot or publish an output.
    fn pump_until(&mut self, blocking_pop: bool, ready: impl Fn(&Self) -> bool) {
        let mut backoff = Backoff::new();
        while !ready(self) {
            if self.service(blocking_pop) {
                backoff.reset();
            } else if backoff.snooze() {
                let park = Arc::clone(&self.graph.park);
                park.park_unless(|| self.service(blocking_pop));
                backoff.reset();
            }
        }
    }

    /// One service round: pump the graph and harvest completions into
    /// `done`. Returns whether any item moved. `blocking_pop` says the caller
    /// waits for an outcome; if the graph then holds a single item, the
    /// pump carries it through the farms itself.
    ///
    /// A poisoned item is fully accounted here (so the in-flight gauge
    /// stays consistent) and its typed error takes the item's slot in the
    /// `done` queue; the legacy pop side re-raises it, the outcome APIs
    /// hand it out as a value. Keeping the re-raise out of the service
    /// round means `push` can never blow up under a producer's feet just
    /// because the ring links completed a doomed item early.
    fn service(&mut self, blocking_pop: bool) -> bool {
        let moved = self.graph.pump(blocking_pop && self.in_flight() == 1);
        while let Some(env) = self.graph.completed.pop_front() {
            self.completed += 1;
            let outcome = env
                .payload
                .map(|val| (B::restore(val), env.scl.machine.report()));
            self.done.push_back(outcome);
        }
        moved
    }
}

/// The pull-based stream adaptor returned by [`StreamExec::run_stream`].
pub struct StreamIter<A: FusePort, B: FusePort, I> {
    exec: StreamExec<A, B>,
    input: I,
    exhausted: bool,
}

impl<A, B, I> StreamIter<A, B, I>
where
    A: FusePort + Send + 'static,
    B: FusePort + 'static,
{
    /// The underlying executor, e.g. to read gauges mid-stream.
    pub fn executor(&self) -> &StreamExec<A, B> {
        &self.exec
    }

    /// Stop streaming and recover the executor (remaining in-flight items
    /// can still be drained from it).
    pub fn into_executor(self) -> StreamExec<A, B> {
        self.exec
    }
}

impl<A, B, I> Iterator for StreamIter<A, B, I>
where
    A: FusePort + Send + 'static,
    B: FusePort + 'static,
    I: Iterator<Item = A>,
{
    type Item = B;

    fn next(&mut self) -> Option<B> {
        loop {
            if let Some(b) = self.exec.try_pop() {
                return Some(b);
            }
            if self.exhausted {
                return self.exec.pop();
            }
            match self.input.next() {
                Some(item) => self
                    .exec
                    .push(item)
                    .unwrap_or_else(|e| panic!("stream input rejected: {e}")),
                None => self.exhausted = true,
            }
        }
    }
}

#[cfg(test)]
mod tests;
