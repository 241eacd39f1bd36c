//! Network serving front-end for SMORE — the repo's library turned into
//! a service.
//!
//! Everything below `smore_serve` is in-process: [`smore_stream`]'s
//! [`ServeEngine`](smore_stream::ServeEngine) multiplexes tenants, but
//! only for callers in the same address space. This crate puts a socket
//! in front of it, std-only (the build vendors all dependencies offline —
//! no tokio; the server is a hand-rolled accept loop plus a
//! bounded-queue worker pool on OS threads):
//!
//! - [`protocol`] — a length-prefixed, CRC-framed binary protocol built
//!   on the same [`smore::wire`] primitives as the `.smore` artifact
//!   container: every count bounds-checked before allocation, corrupt
//!   frames answered with typed errors, never a panic or an unbounded
//!   allocation.
//! - [`server`] — tenants sharded across workers by tenant-id hash (a
//!   tenant's adaptation state and scratch stay core-local), each worker
//!   serving its queue one job at a time in arrival order (shared-base
//!   predicts straight through
//!   [`Predictor::predict_window_with`](smore::Predictor::predict_window_with)
//!   on the shared [`QuantizedSmore`](smore::QuantizedSmore)),
//!   and bounded per-worker queues that answer `Overloaded` instead of
//!   buffering without bound.
//! - [`client`] — a blocking client with synchronous and pipelined
//!   calling styles.
//! - Telemetry throughout (built on `smore_obs`): every request is timed
//!   per pipeline stage (decode, queue wait, encode, score, reply) into
//!   lock-free histograms, adaptation lifecycle
//!   and overload-shed events land in a shared journal, and a `Stats`
//!   wire request scrapes the whole registry as a versioned
//!   [`StatsSnapshot`] ([`ServerHandle::stats`] /
//!   [`ServeClient::stats`](client::ServeClient::stats)).
//! - [`synthetic`] — the canonical synthetic fleet recipe shared by the
//!   `smore_serve --synthetic` binary, its `load_gen` smoke client,
//!   servebench and the tests.
//!
//! # Example
//!
//! ```no_run
//! use std::net::TcpListener;
//! use std::sync::Arc;
//! use smore_serve::{serve, ServeClient, ServeConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (ds, engine) = smore_serve::synthetic::engine(7, 1024)?;
//! let listener = TcpListener::bind("127.0.0.1:0")?;
//! let server = serve(Arc::new(engine), listener, ServeConfig::default())?;
//!
//! let mut client = ServeClient::connect(server.local_addr())?;
//! let p = client.predict(42, ds.window(0))?;
//! assert!(p.label < 4);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod synthetic;
mod telemetry;

pub use client::{ClientError, RetryPolicy, ServeClient};
pub use protocol::{ErrorCode, Request, Response, WirePrediction};
pub use server::{serve, ChaosConfig, ServeConfig, ServerHandle, ServerMetrics};
// The telemetry vocabulary a `Stats` scrape decodes into, re-exported so
// clients need not depend on `smore_obs` directly.
pub use smore_obs::{EventKind, StatsSnapshot};
// The durable-archive vocabulary `ServeConfig::state_dir` configures.
pub use smore_stream::FlushPolicy;

/// Result alias; the front-end shares the core SMORE error vocabulary.
pub type Result<T> = std::result::Result<T, smore::SmoreError>;
