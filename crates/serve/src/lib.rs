//! **dim-serve** — a from-scratch, zero-external-dependency HTTP/1.1
//! serving layer over DimKS, the dimension knowledge system of
//! *"Enhancing Quantitative Reasoning Skills of Large Language Models
//! through Dimension Perception"*.
//!
//! The offline pipeline answers "is the method right"; this crate answers
//! "can the method be *served*" — unit linking, sentence annotation,
//! dimensional conversion, and the §VI-D calculator behind a socket, with
//! the same determinism contract the rest of the workspace enforces:
//!
//! - **No external dependencies.** The HTTP/1.1 parser and response writer
//!   are hand-rolled over `std::net` ([`http`]).
//! - **Fixed resources.** A bounded MPMC queue ([`queue`]) feeds a fixed
//!   worker pool; a full queue is a deterministic `503`, never an unbounded
//!   backlog, and the next connection after a worker frees a slot is
//!   admitted ([`server`]).
//! - **One engine call per request.** A worker answers `/link` and
//!   `/annotate` by calling the DimKS engine directly, so a response is a
//!   function of its request alone, whatever else is in flight ([`app`]).
//! - **Deterministic caching.** A sharded LRU keyed on route + body, with
//!   FNV-1a shard routing that is a pure function of the key ([`cache`]).
//! - **Chaos on the request path.** Every `POST` consults the workspace
//!   fault-injection machinery; a faulted request degrades to a structured
//!   `503` and a quarantine entry — the process never dies ([`app`]).
//! - **Overload resilience.** Per-request deadline budgets ([`deadline`]),
//!   the queue bound as the one admission limit, and connection-level
//!   chaos faults prove the server sheds load as deterministic
//!   `503 + Retry-After` instead of hanging or panicking; the seeded retry
//!   client in [`load`] soaks it with 3600 requests whose final response
//!   bytes the `serve_soak` gate pins.
//! - **Per-server metrics.** Every `srv.*` metric is a field of one
//!   [`metrics::ServerMetrics`] value the [`App`] owns, always on, so two
//!   servers in one process never count each other's traffic; `GET
//!   /metrics` and the drain report render it ([`metrics`]). Starting a
//!   server leaves the process-wide `dim-obs` registry alone.
//! - **Graceful drain.** Shutdown stops accepting, drains queued and
//!   in-flight requests, and emits a final metrics report
//!   ([`server::ServerHandle::shutdown`]).

#![warn(missing_docs)]

pub mod app;
pub mod cache;
pub mod deadline;
pub mod http;
pub mod json;
pub mod load;
pub mod metrics;
pub mod queue;
pub mod server;
pub mod smoke;

pub use app::{App, AppConfig};
pub use cache::ShardedLru;
pub use deadline::Deadline;
pub use http::{Method, Parsed, Request, Response};
pub use queue::{Bounded, PushError};
pub use server::{client, start, DrainReport, ServerConfig, ServerHandle};
