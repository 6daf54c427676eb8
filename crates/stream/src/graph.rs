//! The persistent operator graph behind [`StreamExec`](crate::StreamExec):
//! farm stages (segment replicas over bounded lock-free rings) linked by
//! pump-side hops (barrier chains), plus the pump loop.
//!
//! Threading model: the graph owns no thread. A farm replica is a *lane*
//! — a private input/output ring pair — served by run-to-empty jobs on the
//! process-wide [`ThreadPool::shared`], the pool every fork-join dispatch
//! also runs on; everything else — barrier execution, reordering,
//! relaying between stages, completion — happens on the *pumping* thread
//! (whoever calls `push`/`pop`/`drain`). That keeps the stateful pieces
//! (`FnMut` barrier closures) on a single thread with no synchronisation,
//! while the pure segments overlap across items.
//!
//! At most one job serves a lane at a time, so every ring stays SPSC. The
//! pump submits one when a lane has input, room in its output and no job
//! outstanding; the job serves items until its input is empty or its
//! output full — it never blocks, so a job cannot hold a pool worker
//! hostage while another graph's jobs wait behind it — then releases the
//! lane and re-checks it, re-claiming it if work arrived meanwhile: the
//! publish–fence–recheck handshake of the rings' park slots, with the
//! pump's push or pop as the other side.
//!
//! One measured rule sets a farm's width ([`Farm::width`]): once the
//! farm's mean service time reaches [`FAN_OUT_NS`](scl_exec::FAN_OUT_NS)
//! — the threshold a cost-driven segment dispatch also reads — the pump
//! routes items across all of the farm's lanes (its `max_width`: the lane
//! count, capped at the graph's share of the host); before that, and for
//! a farm with nothing measured yet, it routes to one lane.
//!
//! The pump is also one more replica of every farm, for one case only: an
//! item alone in the graph while its caller blocks waiting for it (a lone
//! request). It then runs the item's segments itself — the same
//! [`serve_item`] a lane's job runs, result into the same reorder buffer
//! — because a hand-off to a lane would buy no overlap, only a job
//! submission and a wake-up per farm. The lanes are idle at that moment,
//! so the pump runs the segment data-parallel across the farm's width —
//! the same rule, so a light farm's lone item runs on the pump alone.
//! Streaming callers (`push`, `try_pop*`) never take this path, so their
//! items keep the lanes' overlap.
//!
//! When a round moves nothing, the pump parks on the graph's one
//! [`ParkSlot`]: the producer park of every farm's input matrix and the
//! consumer park of every output matrix, so a job that frees an input
//! slot or publishes an output wakes it.

use crate::{Envelope, FarmStats, StageStat};
use scl_core::{panic_message, BarrierOp, BranchOp, PlanOp, RequestError, SegmentOp};
use scl_exec::{
    ring_mpmc_parked, ExecPolicy, ParkSlot, RingReceiver, RingSender, ThreadPool, TryRecv,
    FAN_OUT_NS,
};
use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// An operator the pump executes inline while relaying an item across a
/// stage boundary.
enum PumpOp {
    /// A fusion barrier: stateful, runs in stream order.
    Barrier(BarrierOp<'static>),
    /// A fused segment under a 1-thread policy: the whole graph degrades
    /// to synchronous inline execution with zero worker threads.
    Inline(Arc<SegmentOp<'static>>),
    /// A plan-DAG branch whose shape resists the pipelined split
    /// (choice arms, arms with internal barriers): the pump runs the
    /// whole branch inline — split/decide, arm chains, join — exactly as
    /// [`BranchOp::try_apply`] defines it.
    Branch(Box<BranchOp<'static>>),
}

impl PumpOp {
    fn label(&self) -> String {
        match self {
            PumpOp::Barrier(b) => b.label().to_string(),
            PumpOp::Inline(seg) => seg.label(),
            PumpOp::Branch(b) => b.display_label(),
        }
    }
}

/// Pump-thread service counters for one hop operator (no atomics needed:
/// only the pump touches them).
#[derive(Default)]
struct OpStat {
    items: u64,
    busy_nanos: u64,
}

/// The relay between two farm stages (or stream entry/exit): the barrier
/// chain applied while an item crosses — each operator with its own
/// service counters — plus a one-item park slot for when the downstream
/// queue is momentarily full.
#[derive(Default)]
struct Hop {
    ops: Vec<(PumpOp, OpStat)>,
    pending: Option<Envelope>,
}

impl Hop {
    fn new() -> Hop {
        Hop::default()
    }

    fn push_op(&mut self, op: PumpOp) {
        self.ops.push((op, OpStat::default()));
    }
}

/// One farm stage: a fused compute segment replicated across lanes, with
/// the pump-side reorder buffer that restores stream order.
///
/// The links exploit the farm's known topology — exactly one pumping
/// thread on each side — as two SPSC lane matrices: a 1×W input matrix
/// (pump → lanes) and a W×1 output matrix (lanes → pump). Each [`Lane`]
/// owns its private (receiver, sender) pair, so serving it is lock-free
/// end to end; the farm's width ([`Farm::width`]) steers the **pump's
/// routing** ([`RingSender::try_send_within`]) — a lane outside it just
/// receives no new items and is served dry.
pub(crate) struct Farm {
    label: String,
    seg: Arc<SegmentOp<'static>>,
    /// The pump's row of the input matrix.
    in_tx: RingSender<Envelope>,
    /// The lanes' job side, lane `r` being column `r` of the input matrix
    /// and row `r` of the output one.
    lanes: Vec<Arc<Lane>>,
    /// The pump's column of the output matrix.
    out_rx: RingReceiver<Envelope>,
    /// The widest the farm routes (≤ the lane count): the lanes capped at
    /// the graph's share ([`Graph::set_share`]). Like every field below
    /// it is pump-thread state: jobs never read it.
    max_width: usize,
    stats: Arc<FarmStats>,
    /// Completed-but-out-of-order items, keyed by stream position.
    reorder: BTreeMap<u64, Envelope>,
    /// Next stream position to release downstream.
    expect: u64,
}

/// One replica lane's job side: its ends of the two matrices, and the
/// flag that admits one job at a time.
struct Lane {
    /// Set while a job is outstanding; claimed false → true by whoever
    /// submits or continues the job, so the ends below are only ever
    /// touched by one job at a time.
    running: AtomicBool,
    /// The lane's input column and output row. The lock is uncontended
    /// but for the instant a finishing job re-checks the lane while its
    /// successor starts.
    ends: Mutex<(RingReceiver<Envelope>, RingSender<Envelope>)>,
    seg: Arc<SegmentOp<'static>>,
    stats: Arc<FarmStats>,
    summed: bool,
}

impl Lane {
    /// One job: serve items until the input is empty or the output full —
    /// never blocking — then release the lane and re-check it. An item
    /// the pump routed (or a slot it freed) after the job's last look is
    /// seen either by the re-check or by the pump's own check after its
    /// push or pop ([`Farm::kick`]); whichever side wins the claim
    /// continues.
    fn serve(&self) {
        let ends = self.ends.lock().unwrap_or_else(|e| e.into_inner());
        let (rx, tx) = &*ends;
        loop {
            while !tx.lane_is_full(0) {
                match rx.try_recv() {
                    TryRecv::Item(env) => {
                        let env = serve_item(&self.seg, &self.stats, self.summed, env);
                        if tx.try_send(env).is_err() {
                            return; // the graph closed its links
                        }
                    }
                    TryRecv::Empty => break,
                    TryRecv::Closed => return,
                }
            }
            self.running.store(false, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            if rx.is_empty() || tx.lane_is_full(0) || !self.claim() {
                return;
            }
        }
    }

    /// Claim the lane for one job.
    fn claim(&self) -> bool {
        self.running
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }
}

impl Farm {
    /// A farm of `threads.min(capacity)` lanes: the rings need one slot
    /// per lane, and `capacity` is the backpressure bound, so a farm is
    /// never wider than its links are deep. The pump's ends of both
    /// matrices park on `pump_park`.
    fn new(
        seg: Arc<SegmentOp<'static>>,
        capacity: usize,
        threads: usize,
        summed: bool,
        pump_park: &Arc<ParkSlot>,
    ) -> Farm {
        let width = threads.min(capacity);
        let (mut in_txs, in_rxs) =
            ring_mpmc_parked(1, width, capacity, Some(Arc::clone(pump_park)), None);
        let (out_txs, mut out_rxs) =
            ring_mpmc_parked(width, 1, capacity, None, Some(Arc::clone(pump_park)));
        let stats = Arc::new(FarmStats::default());
        let lanes = in_rxs
            .into_iter()
            .zip(out_txs)
            .map(|ends| {
                Arc::new(Lane {
                    running: AtomicBool::new(false),
                    ends: Mutex::new(ends),
                    seg: Arc::clone(&seg),
                    stats: Arc::clone(&stats),
                    summed,
                })
            })
            .collect();
        Farm {
            label: seg.label(),
            seg,
            in_tx: in_txs.remove(0),
            lanes,
            out_rx: out_rxs.remove(0),
            max_width: width,
            stats,
            reorder: BTreeMap::new(),
            expect: 0,
        }
    }

    /// Lanes the pump routes this farm's items to — and, for a lone item,
    /// the threads it runs the segment on: `max_width` once the farm's
    /// measured mean service time reaches [`FAN_OUT_NS`], one before that
    /// (a farm with nothing measured yet included).
    fn width(&self) -> usize {
        let items = self.stats.items.load(Ordering::Relaxed);
        let busy = self.stats.busy_nanos.load(Ordering::Relaxed);
        if items > 0 && busy / items >= FAN_OUT_NS {
            self.max_width
        } else {
            1
        }
    }

    /// Submit a job for every lane that has input, room in its output
    /// and no job outstanding — lanes outside the width included, so they
    /// are served dry. Called after each pump pass, whose pushes and pops
    /// each end in a SeqCst fence: the pump's half of the handshake in
    /// [`Lane::serve`]. No caller works beside a farm's jobs, so the
    /// shared pool is grown to one worker per lane.
    fn kick(&self) {
        for (r, lane) in self.lanes.iter().enumerate() {
            if !lane.running.load(Ordering::SeqCst)
                && self.in_tx.lane_len(r) > 0
                && !self.out_rx.lane_is_full(r)
                && lane.claim()
            {
                let lane = Arc::clone(lane);
                ThreadPool::shared(self.lanes.len() + 1).execute(move || lane.serve());
            }
        }
    }

    /// Items queued toward the lanes right now (racy gauge).
    fn in_depth(&self) -> usize {
        self.in_tx.len()
    }
}

/// The compiled graph; see the [module docs](self).
pub(crate) struct Graph {
    pub(crate) farms: Vec<Farm>,
    /// `farms.len() + 1` hops: hop `h` relays into farm `h`, the last hop
    /// relays into `completed`.
    hops: Vec<Hop>,
    /// The one-item entry slot `push` fills; the pump moves it into hop 0.
    pub(crate) ingress: Option<Envelope>,
    /// Finished envelopes in stream order, harvested by the executor.
    pub(crate) completed: VecDeque<Envelope>,
    /// Whether segments charge fused-style (one summed event per part)
    /// instead of replaying eager per-stage charges.
    summed_charging: bool,
    /// Where the pump parks: shared by the pump's end of every farm link.
    pub(crate) park: Arc<ParkSlot>,
}

impl Graph {
    /// Compile an operator list into a live graph. A 1-thread policy
    /// inlines every segment on the pump (no jobs); otherwise each segment
    /// becomes a farm capped at the policy's thread count and at
    /// `capacity` (see [`Farm::new`]).
    pub(crate) fn build(
        ops: Vec<PlanOp<'static>>,
        capacity: usize,
        exec: ExecPolicy,
        summed_charging: bool,
    ) -> Graph {
        let exec_cap = match exec {
            ExecPolicy::Sequential => 1,
            ExecPolicy::Threads(t) | ExecPolicy::CostDriven { threads: t } => t.max(1),
        };
        let inline = exec_cap <= 1;
        let park = Arc::new(ParkSlot::default());
        let farm = |seg| Farm::new(Arc::new(seg), capacity, exec_cap, summed_charging, &park);
        let mut hops = vec![Hop::new()];
        let mut farms: Vec<Farm> = Vec::new();
        for op in ops {
            match op {
                PlanOp::Barrier(b) => hops
                    .last_mut()
                    .expect("hops start non-empty")
                    .push_op(PumpOp::Barrier(b)),
                PlanOp::Segment(seg) => {
                    if inline {
                        hops.last_mut()
                            .expect("hops start non-empty")
                            .push_op(PumpOp::Inline(Arc::new(seg)));
                    } else {
                        farms.push(farm(seg));
                        hops.push(Hop::new());
                    }
                }
                // A branch with two pure segment arms decomposes into the
                // pipelined form — enter (split + park right), left farm,
                // swap (unpark right, park left's result), right farm,
                // exit (unpark + join) — so both arms become real farm
                // stages that overlap across stream items. Anything else
                // (choice, arms with barriers) runs inline on the pump.
                PlanOp::Branch(b) => match b.into_pipelined() {
                    Ok(p) if !inline => {
                        hops.last_mut()
                            .expect("hops start non-empty")
                            .push_op(PumpOp::Barrier(p.enter));
                        farms.push(farm(p.left));
                        hops.push(Hop::new());
                        hops.last_mut()
                            .expect("hops grow with farms")
                            .push_op(PumpOp::Barrier(p.swap));
                        farms.push(farm(p.right));
                        hops.push(Hop::new());
                        hops.last_mut()
                            .expect("hops grow with farms")
                            .push_op(PumpOp::Barrier(p.exit));
                    }
                    Ok(p) => {
                        // 1-thread policy: same op order, all on the pump
                        let hop = hops.last_mut().expect("hops start non-empty");
                        hop.push_op(PumpOp::Barrier(p.enter));
                        hop.push_op(PumpOp::Inline(Arc::new(p.left)));
                        hop.push_op(PumpOp::Barrier(p.swap));
                        hop.push_op(PumpOp::Inline(Arc::new(p.right)));
                        hop.push_op(PumpOp::Barrier(p.exit));
                    }
                    Err(b) => hops
                        .last_mut()
                        .expect("hops start non-empty")
                        .push_op(PumpOp::Branch(Box::new(b))),
                },
            }
        }
        Graph {
            farms,
            hops,
            ingress: None,
            completed: VecDeque::new(),
            summed_charging,
            park,
        }
    }

    /// Cap every farm's width at `share` lanes (≥ 1, and never more than
    /// its lane count) — this graph's share of the host's threads, which a
    /// shard scheduler sets every round.
    pub(crate) fn set_share(&mut self, share: usize) {
        for farm in &mut self.farms {
            farm.max_width = share.clamp(1, farm.lanes.len());
        }
    }

    /// Place one envelope on the entry slot (the caller has verified it
    /// is free).
    pub(crate) fn offer(&mut self, env: Envelope) {
        debug_assert!(self.ingress.is_none(), "ingress slot already occupied");
        self.ingress = Some(env);
    }

    /// One pump pass: walk the hops downstream-first (so freed capacity
    /// propagates upstream within a single pass), relaying every item
    /// that can move — out of reorder buffers in stream order, through
    /// the hop's barrier chain, into the next farm's queue or the
    /// completion list. With `lone` (the caller blocks on the graph's only
    /// item) the pump runs that item's next segment itself instead of
    /// routing it to a lane. Ends by submitting a job to every lane that
    /// needs one ([`Farm::kick`]). Never blocks; returns whether any item
    /// moved.
    pub(crate) fn pump(&mut self, lone: bool) -> bool {
        let n = self.farms.len();
        let mut moved = false;
        for h in (0..=n).rev() {
            loop {
                // a parked item goes first — order would break otherwise
                if let Some(env) = self.hops[h].pending.take() {
                    if let Err(env) = self.accept(h, env, lone) {
                        self.hops[h].pending = Some(env);
                        break; // downstream still full: hop is stuck
                    }
                    moved = true;
                }
                let Some(env) = self.source_next(h) else {
                    break;
                };
                moved = true;
                let env = self.apply_hop(h, env);
                if let Err(env) = self.accept(h, env, lone) {
                    self.hops[h].pending = Some(env);
                    break;
                }
            }
        }
        for farm in &self.farms {
            farm.kick();
        }
        moved
    }

    /// The next in-order envelope available to hop `h`: the entry slot
    /// for hop 0, the upstream farm's reorder buffer otherwise.
    fn source_next(&mut self, h: usize) -> Option<Envelope> {
        if h == 0 {
            return self.ingress.take();
        }
        let farm = &mut self.farms[h - 1];
        // drain whatever the lanes have finished into the reorder
        // buffer; release only the next item in stream order
        while let TryRecv::Item(env) = farm.out_rx.try_recv() {
            farm.reorder.insert(env.seq, env);
        }
        match farm.reorder.remove(&farm.expect) {
            Some(env) => {
                farm.expect += 1;
                Some(env)
            }
            None => None,
        }
    }

    /// Run hop `h`'s operator chain on one envelope. Barriers and inline
    /// segments both charge the item's own machine context; a failing
    /// barrier or panicking inline stage poisons the envelope with a
    /// typed [`RequestError`] (resolved at the collection side), and an
    /// expired deadline short-circuits the remaining operators.
    fn apply_hop(&mut self, h: usize, mut env: Envelope) -> Envelope {
        let summed = self.summed_charging;
        let hop = &mut self.hops[h];
        for (op, stat) in &mut hop.ops {
            if env.payload.is_err() {
                break; // poisoned: carry the error through untouched
            }
            if env.deadline.is_some_and(|d| Instant::now() >= d) {
                env.payload = Err(RequestError::DeadlineExceeded);
                break;
            }
            let Ok(val) = std::mem::replace(&mut env.payload, Err(RequestError::DeadlineExceeded))
            else {
                unreachable!("checked non-err above")
            };
            let t0 = Instant::now();
            env.payload = match op {
                PumpOp::Barrier(b) => {
                    match std::panic::catch_unwind(AssertUnwindSafe(|| b.apply(&mut env.scl, val)))
                    {
                        Ok(Ok(v)) => Ok(v),
                        Ok(Err(e)) => Err(RequestError::BarrierFailed {
                            stage: b.label().to_string(),
                            error: e,
                        }),
                        Err(p) => Err(RequestError::BarrierPanic {
                            stage: b.label().to_string(),
                            message: panic_message(&*p).to_string(),
                        }),
                    }
                }
                PumpOp::Inline(seg) => seg.run(&mut env.scl, val, summed),
                PumpOp::Branch(b) => {
                    // compute stages inside the arms already resolve their
                    // own panics to typed errors; the catch here is the
                    // net for split/decide/join closures
                    match std::panic::catch_unwind(AssertUnwindSafe(|| {
                        b.try_apply(&mut env.scl, val, summed)
                    })) {
                        Ok(res) => res,
                        Err(p) => Err(RequestError::BarrierPanic {
                            stage: b.label().to_string(),
                            message: panic_message(&*p).to_string(),
                        }),
                    }
                }
            };
            stat.items += 1;
            stat.busy_nanos += t0.elapsed().as_nanos() as u64;
        }
        env
    }

    /// Hand an envelope to hop `h`'s target: farm `h`'s queue — or, for a
    /// `lone` item, farm `h`'s segment run right here into its reorder
    /// buffer, exactly where a replica's output would arrive (fanned out
    /// across [`Farm::width`] threads) — or the completion list after the
    /// last hop. `Err` hands it back when the queue is full.
    #[allow(clippy::result_large_err)] // Err hands the envelope back, by design
    fn accept(&mut self, h: usize, mut env: Envelope, lone: bool) -> Result<(), Envelope> {
        if h < self.farms.len() {
            let farm = &mut self.farms[h];
            if lone {
                // every earlier item has completed, so this one is next
                debug_assert_eq!(env.seq, farm.expect, "a lone item is next in order");
                // the replicas are idle: a farm measured heavy lends its
                // width to the item's own segment run
                let width = farm.width();
                if width > 1 {
                    env.scl.policy = ExecPolicy::Threads(width);
                }
                let mut env = serve_item(&farm.seg, &farm.stats, self.summed_charging, env);
                env.scl.policy = ExecPolicy::Sequential;
                farm.reorder.insert(env.seq, env);
                return Ok(());
            }
            // Occupancy window: private lanes can park an item deep in
            // one busy lane while the others race ahead into the reorder
            // buffer — and on through it, admitting ever more pushes.
            // Capping admitted-minus-released at the farm's static buffer
            // space (in + out + one in hand per lane) keeps the reorder
            // buffer — and the whole stream's in-flight gauge — bounded by
            // O(capacity).
            let window = (farm.in_tx.capacity() + farm.out_rx.capacity() + farm.lanes.len()) as u64;
            if env.seq - farm.expect >= window {
                return Err(env);
            }
            // the width is enforced here, in the pump's routing: only the
            // first `width` lanes are eligible, so the others are served
            // dry and then left alone
            farm.in_tx.try_send_within(env, farm.width())
        } else {
            self.completed.push_back(env);
            Ok(())
        }
    }

    /// Snapshot every stage in pipeline order (hop operators interleaved
    /// with farms).
    pub(crate) fn stage_stats(&self) -> Vec<StageStat> {
        let mut out = Vec::new();
        for (h, hop) in self.hops.iter().enumerate() {
            for (op, stat) in &hop.ops {
                out.push(StageStat {
                    label: op.label(),
                    farm: false,
                    width: 1,
                    max_width: 1,
                    queue_depth: 0,
                    items: stat.items,
                    mean_service_secs: mean_secs(stat.busy_nanos, stat.items),
                });
            }
            if let Some(farm) = self.farms.get(h) {
                let items = farm.stats.items.load(Ordering::Relaxed);
                out.push(StageStat {
                    label: farm.label.clone(),
                    farm: true,
                    width: farm.width(),
                    max_width: farm.max_width,
                    queue_depth: farm.in_depth(),
                    items,
                    mean_service_secs: mean_secs(
                        farm.stats.busy_nanos.load(Ordering::Relaxed),
                        items,
                    ),
                });
            }
        }
        out
    }
}

impl Drop for Graph {
    fn drop(&mut self) {
        // Close every link and return: a job still running finishes its
        // item, sees the close and returns. Nothing is joined — a job
        // holds only `'static` pieces — and in-flight envelopes drop with
        // the queues.
        for farm in &self.farms {
            // closing the pump's row/column closes every lane of both
            // matrices (1×W and W×1)
            farm.in_tx.close();
            farm.out_rx.close();
        }
    }
}

/// Serve one envelope through farm segment `seg` — what a lane's job does
/// with every item it takes, and the pump with a lone one: run the
/// segment against the item's own machine context, counting the work in
/// the farm's `stats`. A panicking stage poisons the envelope with a typed
/// [`RequestError`] instead of unwinding; an item whose deadline already
/// passed short-circuits as [`RequestError::DeadlineExceeded`] without
/// running.
fn serve_item(
    seg: &SegmentOp<'static>,
    stats: &FarmStats,
    summed: bool,
    env: Envelope,
) -> Envelope {
    let t0 = Instant::now();
    let Envelope {
        seq,
        mut scl,
        deadline,
        payload,
    } = env;
    let payload = match payload {
        Ok(_) if deadline.is_some_and(|d| Instant::now() >= d) => {
            Err(RequestError::DeadlineExceeded)
        }
        Ok(val) => seg.run(&mut scl, val, summed),
        poisoned => poisoned,
    };
    stats
        .busy_nanos
        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    stats.items.fetch_add(1, Ordering::Relaxed);
    Envelope {
        seq,
        scl,
        deadline,
        payload,
    }
}

fn mean_secs(busy_nanos: u64, items: u64) -> f64 {
    if items == 0 {
        0.0
    } else {
        busy_nanos as f64 / items as f64 / 1e9
    }
}
