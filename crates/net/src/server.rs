//! The TCP front door: accept loop, per-connection reader threads, and
//! the single service thread that owns the `Serve` instance.
//!
//! ## Threading model
//!
//! `Serve` (and the `Skel` plans inside it) are deliberately
//! single-threaded values — plan closures aren't `Send` — so the server
//! never moves them. [`NetServer::start`] spawns a **service thread**
//! that builds the registry and the `Serve` *inside itself* from the
//! (`Send`) [`NetConfig`], then pumps: pop a batch from the admission
//! queue (blocking until a job or a stop arrives), submit every request,
//! `run_until_idle`, deliver each encoded reply through its request's
//! channel.
//!
//! Connection **reader threads** only ever touch `Send` data: they
//! decode frames into plain jobs, run the admission edge (tenant check,
//! token bucket, bounded queue with shedding), then block on their
//! request's reply channel and write the frame back. One request is in
//! flight per connection — clients open more connections for
//! pipelining — which keeps replies trivially ordered.
//!
//! ## Request lifecycle
//!
//! ```text
//! socket → frame decode → admission (tenant, rate, queue/shed)
//!        → service thread (parse → compile/cache → batch → stream graph)
//!        → reply frame (result + bit-exact machine report | typed error)
//! ```
//!
//! ## Graceful drain
//!
//! A `DRAIN` frame (or [`NetServer::shutdown`]) flips the admission
//! queue into draining: new submissions get a typed `Draining` error,
//! queued work still runs to completion and delivers. `shutdown` then
//! stops the threads, closes every connection, and joins.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use scl_core::wire::{self, WireError};
use scl_core::{FrameHeader, ParArray, RequestError, SclError, Skel};
use scl_exec::ExecPolicy;
use scl_machine::{CostModel, Machine, Topology};
use scl_serve::{Serve, ServePolicy, TenantId, Ticket};
use scl_transform::Registry;

use crate::admission::{Admission, AdmitError, Job, JobBody, ShedPolicy, TokenBucket, Victim};
use crate::frame::{plan_handle, ErrorCode, Mode, Reply, Request};
use crate::metrics::NetMetrics;

/// A tenant's service-level objective, parsed from the contract syntax
/// `p99<25ms`. The server observes it — `STATS` reports whether the
/// tenant's server-side p99 latency meets it — and never acts on it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloContract {
    /// Admitted-request p99 latency ceiling, milliseconds.
    pub p99_ms: Option<f64>,
}

impl SloContract {
    /// Parse the contract syntax: `p99<NUMBERms` caps 99th-percentile
    /// latency. Clauses separate on whitespace or commas; an empty string
    /// is the empty contract.
    ///
    /// ```
    /// use scl_net::SloContract;
    /// let c = SloContract::parse("p99<25ms").unwrap();
    /// assert_eq!(c.p99_ms, Some(25.0));
    /// ```
    pub fn parse(s: &str) -> Result<SloContract, String> {
        let mut c = SloContract::default();
        for clause in s.split([' ', ',']).filter(|c| !c.is_empty()) {
            let Some(rest) = clause.strip_prefix("p99<") else {
                return Err(format!(
                    "unknown contract clause `{clause}` (expected `p99<Nms`)"
                ));
            };
            let ms = rest
                .strip_suffix("ms")
                .ok_or_else(|| format!("`{clause}`: p99 bound must end in `ms`"))?;
            let v: f64 = ms
                .parse()
                .map_err(|_| format!("`{clause}`: bad number `{ms}`"))?;
            if v.is_nan() || v <= 0.0 {
                return Err(format!("`{clause}`: p99 bound must be positive"));
            }
            c.p99_ms = Some(v);
        }
        Ok(c)
    }
}

/// One tenant's admission and scheduling configuration.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (shows up in stats).
    pub name: String,
    /// Fair-share weight.
    pub weight: u32,
    /// Token-bucket refill, requests/second. `0.0` disables limiting.
    pub rate_per_sec: f64,
    /// Token-bucket burst capacity.
    pub burst: f64,
    /// The tenant's SLO contract (see [`SloContract::parse`]).
    pub slo: SloContract,
}

impl TenantSpec {
    /// An unlimited, weight-1 tenant with no SLO.
    pub fn new(name: &str) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            weight: 1,
            rate_per_sec: 0.0,
            burst: 0.0,
            slo: SloContract::default(),
        }
    }

    /// Set the fair-share weight.
    pub fn with_weight(mut self, weight: u32) -> TenantSpec {
        self.weight = weight.max(1);
        self
    }

    /// Set the token-bucket rate limit.
    pub fn with_rate(mut self, per_sec: f64, burst: f64) -> TenantSpec {
        self.rate_per_sec = per_sec;
        self.burst = burst;
        self
    }

    /// Attach an SLO contract.
    pub fn with_slo(mut self, slo: SloContract) -> TenantSpec {
        self.slo = slo;
        self
    }
}

/// Everything needed to start a server. `Send`, so the service thread
/// can build the (non-`Send`) `Serve` from it internally.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address; `127.0.0.1:0` picks a free loopback port.
    pub addr: String,
    /// Simulated machine size (fully connected, unit cost model).
    pub procs: usize,
    /// Execution policy for served plans; its thread count is what the
    /// service splits into tenants' fair shares.
    pub exec: ExecPolicy,
    /// Same-plan requests coalesced into one service round.
    pub batch_window: usize,
    /// Serve-layer LRU plan-cache capacity.
    pub plan_cache_cap: usize,
    /// Admission queue bound.
    pub queue_capacity: usize,
    /// Who pays when the queue is full.
    pub shed: ShedPolicy,
    /// The tenant table; wire tenant ids index into it.
    pub tenants: Vec<TenantSpec>,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            procs: 8,
            exec: ExecPolicy::auto(),
            batch_window: 16,
            plan_cache_cap: 32,
            queue_capacity: 64,
            shed: ShedPolicy::RejectNew,
            tenants: vec![TenantSpec::new("default")],
        }
    }
}

/// The open connections: a duplicate of each socket (so `shutdown` can
/// unblock its reader) paired with that reader's thread. The accept loop
/// drops the pairs whose reader has finished.
type Conns = Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>;

/// A running server. Dropping it without [`NetServer::shutdown`] leaves
/// the threads running for the process lifetime; call `shutdown` for a
/// graceful drain + join.
pub struct NetServer {
    addr: SocketAddr,
    admission: Arc<Admission>,
    metrics: Arc<Mutex<NetMetrics>>,
    conns: Conns,
    threads: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Bind, spawn the accept and service threads, and return.
    pub fn start(cfg: NetConfig) -> std::io::Result<NetServer> {
        assert!(
            !cfg.tenants.is_empty(),
            "a server needs at least one tenant"
        );
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let admission = Arc::new(Admission::new(cfg.queue_capacity, cfg.shed));
        let metrics = Arc::new(Mutex::new(NetMetrics::new(&cfg.tenants)));
        let conns: Conns = Arc::new(Mutex::new(Vec::new()));
        let buckets: Arc<Vec<Mutex<TokenBucket>>> = Arc::new(
            cfg.tenants
                .iter()
                .map(|t| Mutex::new(TokenBucket::new(t.rate_per_sec, t.burst)))
                .collect(),
        );

        let mut threads = Vec::new();
        {
            let admission = Arc::clone(&admission);
            let metrics = Arc::clone(&metrics);
            let cfg = cfg.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("scl-net-service".to_string())
                    .spawn(move || service_loop(cfg, admission, metrics))?,
            );
        }
        {
            let admission = Arc::clone(&admission);
            let metrics = Arc::clone(&metrics);
            let conns = Arc::clone(&conns);
            threads.push(
                std::thread::Builder::new()
                    .name("scl-net-accept".to_string())
                    .spawn(move || accept_loop(listener, admission, metrics, buckets, conns))?,
            );
        }

        Ok(NetServer {
            addr,
            admission,
            metrics,
            conns,
            threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin a graceful drain: refuse new work, keep serving the queue.
    pub fn drain(&self) {
        self.admission.drain();
    }

    /// Requests currently waiting for service.
    pub fn queue_depth(&self) -> usize {
        self.admission.depth()
    }

    /// The current metrics snapshot as JSON (same document as the wire
    /// `STATS` request).
    pub fn stats_json(&self) -> String {
        self.metrics.lock().unwrap().to_json()
    }

    /// Graceful shutdown: drain, let queued work finish, stop and join
    /// every thread, close every connection.
    pub fn shutdown(mut self) {
        self.admission.drain();
        // let the service thread clear the backlog, then stop it
        self.admission.wait_drained();
        self.admission.stop();
        // unblock the accept loop parked in accept(): it sees the stop
        // once this connection arrives
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // the accept loop is gone, so the registry is final: unblock the
        // reader threads parked in read(), then join them
        let conns = std::mem::take(&mut *self.conns.lock().unwrap());
        for (c, _) in &conns {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
        for (_, reader) in conns {
            let _ = reader.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    admission: Arc<Admission>,
    metrics: Arc<Mutex<NetMetrics>>,
    buckets: Arc<Vec<Mutex<TokenBucket>>>,
    conns: Conns,
) {
    // blocking accept: a new connection is served the moment it arrives;
    // `shutdown` connects once after stopping the queue to wake this loop
    for stream in listener.incoming() {
        if admission.is_stopped() {
            break;
        }
        let Ok(stream) = stream else { break };
        let _ = stream.set_nodelay(true);
        // a socket `shutdown` could not unblock is refused (closed here)
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        let admission = Arc::clone(&admission);
        let metrics = Arc::clone(&metrics);
        let buckets = Arc::clone(&buckets);
        let handle = std::thread::Builder::new()
            .name("scl-net-conn".to_string())
            .spawn(move || connection_loop(stream, admission, metrics, buckets));
        let mut conns = conns.lock().unwrap();
        // closed connections leave with this accept: their duplicate
        // socket closes and their finished reader needs no join
        conns.retain(|(_, reader)| !reader.is_finished());
        if let Ok(reader) = handle {
            conns.push((clone, reader));
        }
    }
}

/// Read frames off one connection until EOF or an unrecoverable framing
/// error. Never panics on malformed input: every failure is either a
/// typed `ERROR` reply or a clean close.
fn connection_loop(
    mut stream: TcpStream,
    admission: Arc<Admission>,
    metrics: Arc<Mutex<NetMetrics>>,
    buckets: Arc<Vec<Mutex<TokenBucket>>>,
) {
    connection_frames(&mut stream, &admission, &metrics, &buckets);
    // the shutdown registry holds a duplicate of this socket, which
    // would keep the peer waiting for FIN — shut down explicitly so a
    // close is a *clean* close the moment this loop exits
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn connection_frames(
    stream: &mut TcpStream,
    admission: &Admission,
    metrics: &Mutex<NetMetrics>,
    buckets: &[Mutex<TokenBucket>],
) {
    loop {
        // ---- header ----
        let mut header = [0u8; wire::HEADER_LEN];
        if read_exact_or_eof(stream, &mut header).is_err() {
            return; // disconnect (clean at a boundary or mid-frame)
        }
        let parsed = match FrameHeader::decode(&header) {
            Ok(h) => h,
            Err(e) => {
                // the stream is desynchronized — answer typed, then close
                let code = match e {
                    WireError::BadVersion { .. } => ErrorCode::UnsupportedVersion,
                    WireError::Oversize { .. } => ErrorCode::Oversize,
                    _ => ErrorCode::BadFrame,
                };
                let _ = write_reply(
                    stream,
                    &Reply::Error {
                        code,
                        retry_after_ms: 0,
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        // ---- body ----
        let mut body = vec![0u8; parsed.len];
        if stream.read_exact(&mut body).is_err() {
            return; // mid-frame disconnect
        }
        let request = match Request::decode(parsed.kind, &body) {
            Ok(r) => r,
            Err(e) => {
                // the frame was length-delimited, so we are still in sync:
                // reply typed and keep the connection
                let code = if !known_kind(parsed.kind) {
                    ErrorCode::UnknownKind
                } else {
                    match e {
                        WireError::Oversize { .. } => ErrorCode::Oversize,
                        _ => ErrorCode::BadFrame,
                    }
                };
                if write_reply(
                    stream,
                    &Reply::Error {
                        code,
                        retry_after_ms: 0,
                        message: e.to_string(),
                    },
                )
                .is_err()
                {
                    return;
                }
                continue;
            }
        };
        // ---- dispatch ----
        let reply_bytes = match request {
            Request::Ping => Reply::Pong.encode(),
            Request::Drain => {
                admission.drain();
                Reply::Draining.encode()
            }
            Request::Stats => {
                let json = metrics.lock().unwrap().to_json();
                Reply::Stats(json).encode()
            }
            Request::SubmitSource {
                tenant,
                mode,
                deadline_ms,
                source,
                key,
                payload,
            } => submit_edge(
                admission,
                metrics,
                buckets,
                tenant,
                deadline_ms,
                JobBody::Source {
                    mode,
                    source,
                    key,
                    payload,
                },
            ),
            Request::SubmitHandle {
                tenant,
                handle,
                deadline_ms,
                payload,
            } => submit_edge(
                admission,
                metrics,
                buckets,
                tenant,
                deadline_ms,
                JobBody::Handle { handle, payload },
            ),
        };
        if stream
            .write_all(&reply_bytes)
            .and_then(|()| stream.flush())
            .is_err()
        {
            return;
        }
    }
}

fn known_kind(k: u8) -> bool {
    use crate::frame::kind;
    matches!(
        k,
        kind::SUBMIT_SOURCE | kind::SUBMIT_HANDLE | kind::STATS | kind::PING | kind::DRAIN
    )
}

/// The admission edge for one submission: tenant check, token bucket,
/// bounded queue (with shedding), then block for this request's reply.
/// Always returns an encoded reply frame.
fn submit_edge(
    admission: &Admission,
    metrics: &Mutex<NetMetrics>,
    buckets: &[Mutex<TokenBucket>],
    tenant: u32,
    deadline_ms: u32,
    body: JobBody,
) -> Vec<u8> {
    if tenant as usize >= buckets.len() {
        return Reply::Error {
            code: ErrorCode::UnknownTenant,
            retry_after_ms: 0,
            message: format!("tenant {tenant} not configured ({} tenants)", buckets.len()),
        }
        .encode();
    }
    {
        let mut bucket = buckets[tenant as usize].lock().unwrap();
        if !bucket.try_take(Instant::now()) {
            // tell the client exactly when the bucket refills one token,
            // rounded up so an obedient retry never hits empty again
            let retry_after_ms = (bucket.retry_after().as_secs_f64() * 1000.0).ceil() as u32;
            drop(bucket);
            metrics.lock().unwrap().tenant_mut(tenant).rate_limited += 1;
            return Reply::Error {
                code: ErrorCode::RateLimited,
                retry_after_ms,
                message: "token bucket empty; retry later".to_string(),
            }
            .encode();
        }
    }
    let now = Instant::now();
    let deadline = (deadline_ms > 0).then(|| now + Duration::from_millis(u64::from(deadline_ms)));
    let (tx, rx) = mpsc::channel();
    let job = Job {
        tenant,
        body,
        reply: tx,
        enqueued: now,
        deadline,
    };
    match admission.push(job) {
        Err(AdmitError::Draining) => {
            metrics.lock().unwrap().tenant_mut(tenant).rejected += 1;
            return Reply::Error {
                code: ErrorCode::Draining,
                retry_after_ms: 0,
                message: "server is draining".to_string(),
            }
            .encode();
        }
        Err(AdmitError::QueueFull) => {
            metrics.lock().unwrap().tenant_mut(tenant).rejected += 1;
            return Reply::Error {
                code: ErrorCode::QueueFull,
                retry_after_ms: 0,
                message: "admission queue full".to_string(),
            }
            .encode();
        }
        Ok(Some(Victim {
            job: victim,
            expired,
        })) => {
            // the victim's connection gets a typed error — its reader is
            // blocked on this very channel, never hung
            let (code, message) = if expired {
                metrics
                    .lock()
                    .unwrap()
                    .tenant_mut(victim.tenant)
                    .deadline_expired += 1;
                (
                    ErrorCode::DeadlineExceeded,
                    "deadline exceeded while queued".to_string(),
                )
            } else {
                metrics.lock().unwrap().tenant_mut(victim.tenant).shed += 1;
                (
                    ErrorCode::Shed,
                    "shed under overload (oldest-first)".to_string(),
                )
            };
            let _ = victim.reply.send(
                Reply::Error {
                    code,
                    retry_after_ms: 0,
                    message,
                }
                .encode(),
            );
        }
        Ok(None) => {}
    }
    match rx.recv() {
        Ok(bytes) => bytes,
        Err(_) => Reply::Error {
            code: ErrorCode::Draining,
            retry_after_ms: 0,
            message: "service stopped before reply".to_string(),
        }
        .encode(),
    }
}

/// `Ok` when `buf` was filled; `Err` on EOF or I/O error.
fn read_exact_or_eof(stream: &mut TcpStream, buf: &mut [u8]) -> Result<(), ()> {
    stream.read_exact(buf).map_err(|_| ())
}

fn write_reply(stream: &mut TcpStream, reply: &Reply) -> std::io::Result<()> {
    stream.write_all(&reply.encode())?;
    stream.flush()
}

// ---------------------------------------------------------------------
// The service thread
// ---------------------------------------------------------------------

fn service_loop(cfg: NetConfig, admission: Arc<Admission>, metrics: Arc<Mutex<NetMetrics>>) {
    // `Registry` and `Serve` are built *inside* the service thread:
    // neither is `Send`, and neither ever leaves.
    let reg: &'static Registry = Box::leak(Box::new(Registry::standard()));
    let machine = Machine::new(
        Topology::FullyConnected {
            procs: cfg.procs.max(1),
        },
        CostModel::unit(),
    );
    let policy = ServePolicy::new(machine)
        .with_exec(cfg.exec)
        .with_batch_window(cfg.batch_window)
        .with_plan_cache_cap(cfg.plan_cache_cap);
    let mut srv: Serve<ParArray<i64>, ParArray<i64>> = Serve::new(policy);
    let ids: Vec<TenantId> = cfg
        .tenants
        .iter()
        .map(|t| srv.add_tenant_weighted(&t.name, t.weight))
        .collect();
    // handle → (mode, key, source): what a `SUBMIT_HANDLE` resolves to
    let mut sources: HashMap<u64, (Mode, String, String)> = HashMap::new();

    loop {
        // blocks until a job arrives; empty only once the queue stopped
        let batch = admission.pop_batch(cfg.batch_window);
        if batch.is_empty() {
            break;
        }

        // Phase 1: submit the whole batch (this is what batching buys:
        // same-plan requests coalesce into one service round).
        type Submitted = Result<(Ticket, u64), (ErrorCode, String)>;
        let mut pending: Vec<(Job, Submitted)> = Vec::with_capacity(batch.len());
        for job in batch {
            let outcome = submit_job(&mut srv, reg, &mut sources, &ids, &job);
            pending.push((job, outcome));
        }
        // Phase 2: run the service rounds to completion.
        srv.run_until_idle();
        // Phase 3: deliver.
        let mut m = metrics.lock().unwrap();
        for (job, outcome) in pending {
            let bytes = match outcome {
                Ok((ticket, handle)) => match srv.outcome(ticket) {
                    Some(Ok((out, report))) => {
                        m.record_completion(job.tenant, job.enqueued.elapsed());
                        Reply::Result {
                            handle,
                            payload: out.parts().to_vec(),
                            report,
                        }
                        .encode()
                    }
                    Some(Err(e)) => {
                        // request-level failure: this ticket's plan
                        // crashed, expired, or is quarantined — the
                        // service thread itself never unwinds
                        let code = match e {
                            RequestError::DeadlineExceeded => {
                                m.tenant_mut(job.tenant).deadline_expired += 1;
                                ErrorCode::DeadlineExceeded
                            }
                            _ => {
                                m.tenant_mut(job.tenant).panicked += 1;
                                ErrorCode::PlanPanicked
                            }
                        };
                        Reply::Error {
                            code,
                            retry_after_ms: 0,
                            message: e.to_string(),
                        }
                        .encode()
                    }
                    None => {
                        m.tenant_mut(job.tenant).errors += 1;
                        Reply::Error {
                            code: ErrorCode::PlanRejected,
                            retry_after_ms: 0,
                            message: "plan execution failed".to_string(),
                        }
                        .encode()
                    }
                },
                Err((code, message)) => {
                    m.tenant_mut(job.tenant).errors += 1;
                    Reply::Error {
                        code,
                        retry_after_ms: 0,
                        message,
                    }
                    .encode()
                }
            };
            let _ = job.reply.send(bytes);
        }
        // Mirror observable serve state for the stats endpoint.
        let stats = srv.stats();
        m.serve.cache_hits = stats.cache_hits;
        m.serve.cache_misses = stats.cache_misses;
        m.serve.evictions = stats.evictions;
        m.serve.batches = stats.batches;
        m.serve.panics = stats.panics;
        m.serve.deadline_expired = stats.deadline_expired;
        m.serve.rebuilds = stats.rebuilds;
        m.serve.quarantines = stats.quarantines;
        m.serve.cached_plans = srv.cached_plans();
        m.serve.quarantined_plans = srv.quarantined_plans();
        m.queue_depth = admission.depth();
    }
}

/// Resolve and submit one job. Returns the ticket and the plan handle,
/// or the typed error to send back.
fn submit_job(
    srv: &mut Serve<ParArray<i64>, ParArray<i64>>,
    reg: &'static Registry,
    sources: &mut HashMap<u64, (Mode, String, String)>,
    ids: &[TenantId],
    job: &Job,
) -> Result<(Ticket, u64), (ErrorCode, String)> {
    let (mode, key, source, payload) = match &job.body {
        JobBody::Source {
            mode,
            source,
            key,
            payload,
        } => (*mode, key.clone(), source.clone(), payload),
        JobBody::Handle { handle, payload } => {
            let (mode, key, source) = sources.get(handle).cloned().ok_or_else(|| {
                (
                    ErrorCode::UnknownPlan,
                    format!("unknown plan handle {handle:#018x}; resubmit by source"),
                )
            })?;
            (mode, key, source, payload)
        }
    };
    if payload.is_empty() {
        return Err((
            ErrorCode::PlanRejected,
            "empty payload: a request needs at least one partition".to_string(),
        ));
    }
    let expr = scl_transform::parse(&source).map_err(|e| (ErrorCode::ParseError, e.to_string()))?;
    let plan = Skel::from_expr(&expr, reg).map_err(|e| (ErrorCode::PlanRejected, e))?;
    let input = ParArray::from_parts(payload.clone());
    let tenant_id = ids[job.tenant as usize];
    let submitted = match mode {
        Mode::Plain => srv.submit_keyed_deadline(tenant_id, &key, plan, input, job.deadline),
        Mode::Optimized => {
            srv.submit_optimized_deadline(tenant_id, &key, &plan, reg, input, job.deadline)
        }
    };
    let ticket = submitted.map_err(|e| match e {
        SclError::MachineTooSmall { .. } => (ErrorCode::MachineTooSmall, e.to_string()),
        other => (ErrorCode::PlanRejected, other.to_string()),
    })?;
    let handle = plan_handle(mode, &key, &source);
    sources.entry(handle).or_insert((mode, key, source));
    Ok((ticket, handle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::NetClient;

    #[test]
    fn contract_syntax_parses_and_rejects() {
        assert_eq!(
            SloContract::parse("p99<25ms").unwrap(),
            SloContract { p99_ms: Some(25.0) }
        );
        assert_eq!(SloContract::parse("").unwrap(), SloContract::default());
        assert!(SloContract::parse("p99<25").is_err(), "missing ms unit");
        assert!(SloContract::parse("p99<-1ms").is_err());
        assert!(SloContract::parse("latency<25ms").is_err());
        // throughput floors are not part of the contract
        assert!(SloContract::parse("tput>100").is_err());
        assert!(SloContract::parse("tput>100rps p99<5ms").is_err());
    }

    #[test]
    fn closed_connections_leave_the_registry() {
        let server = NetServer::start(NetConfig::default()).unwrap();
        for _ in 0..50 {
            NetClient::connect(server.local_addr())
                .unwrap()
                .ping()
                .unwrap();
        }
        // each accept drops the connections whose reader has finished:
        // connect fresh clients until the 50 closed ones are gone
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            NetClient::connect(server.local_addr())
                .unwrap()
                .ping()
                .unwrap();
            let registered = server.conns.lock().unwrap().len();
            if registered <= 2 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{registered} connections still registered after their clients closed"
            );
        }
        server.shutdown();
    }
}
