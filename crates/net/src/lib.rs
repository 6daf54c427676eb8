#![deny(missing_docs)]
//! # scl-net — a TCP front door for the scl-serve plan service
//!
//! This crate turns the in-process multi-tenant plan service
//! ([`scl_serve::Serve`]) into a network service, the way the paper's
//! structured-coordination story scales past one address space: the
//! *skeleton program* stays a first-class value (shipped as
//! `scl-transform` source text, compiled and cached server-side), and
//! everything operational — admission, fairness, shedding, observed
//! service levels — lives in explicit, inspectable layers around it.
//!
//! * [`frame`] — protocol v1: length-prefixed binary frames over the
//!   [`scl_core::wire`] codec, typed error replies, bit-exact machine
//!   reports (the wire answer is byte-identical to an in-process
//!   [`Serve::submit`](scl_serve::Serve::submit), pinned by the
//!   `net_vs_inproc` differential suite).
//! * [`admission`] — a bounded queue with configurable load shedding
//!   ([`ShedPolicy`]) and per-tenant token buckets; a shed request gets
//!   a typed `Shed` error, never a hang.
//! * [`metrics`] — per-tenant p50/p99 latency, shed/reject counts and
//!   whether each tenant's SLO ([`SloContract`]: `p99<25ms`) holds,
//!   served over the wire `STATS` request as JSON. The SLO is observed,
//!   never acted on.
//! * [`server`] / [`client`] — the TCP server (single service thread
//!   owning the non-`Send` `Serve`; reader threads per connection) and
//!   a blocking client.
//!
//! ```no_run
//! use scl_net::{Mode, NetClient, NetConfig, NetServer};
//!
//! let server = NetServer::start(NetConfig::default()).unwrap();
//! let mut client = NetClient::connect(server.local_addr()).unwrap();
//! let r = client
//!     .submit_source(0, Mode::Plain, "map(inc) . rotate(1)", "", &[1, 2, 3, 4])
//!     .unwrap();
//! assert_eq!(r.output, vec![3, 4, 5, 2]);
//! // resubmit by handle: no source bytes, same cached graph
//! let again = client.submit_handle(0, r.handle, &[1, 2, 3, 4]).unwrap();
//! assert_eq!(again.output, r.output);
//! server.shutdown();
//! ```

pub mod admission;
pub mod client;
pub mod frame;
pub mod metrics;
pub mod server;

pub use admission::{Admission, ShedPolicy, TokenBucket};
pub use client::{ClientError, NetClient, NetResult};
pub use frame::{ErrorCode, Mode, Reply, Request};
pub use metrics::NetMetrics;
pub use server::{NetConfig, NetServer, SloContract, TenantSpec};
