//! Streaming domain adaptation for SMORE (§3.5–3.6 taken online).
//!
//! The batch pipeline (`smore`) learns `K` source domains once and serves
//! them forever. Real deployments meet domains that did not exist at
//! training time: a new user, a new sensor placement, a decaying gain. This
//! crate closes that gap with a [`ServeEngine`] that shares one fitted
//! model across any number of [`TenantSession`]s. Per ingested window, a
//! session:
//!
//! 1. **serves** from the engine's frozen bit-packed base snapshot
//!    ([`smore::QuantizedSmore`]) chained with the tenant's own enrolled
//!    domains ([`smore::DeltaSmore`]) — no lock, no model copy;
//! 2. **detects** out-of-distribution queries with the model's own
//!    descriptor similarities (Algorithm 1's `δ_max < δ*`) and accumulates
//!    persistently-OOD windows in a bounded [`OodBuffer`];
//! 3. **fires** a [`DriftDetector`] when the recent OOD mass is sustained
//!    — a transient outlier is not drift, a solid block of OOD queries is;
//! 4. **enrols** a new domain online: the buffered windows are labelled
//!    (self-labels from the serving ensemble, or delayed ground truth —
//!    see [`LabelStrategy`]), bundled into a fresh descriptor `U_{K+1}`,
//!    and trained into a new domain-specific model via the paper's
//!    adaptive update rule ([`smore::Smore::prepare_domain`]); the domain
//!    is appended to the tenant's compact personal
//!    [`smore::SnapshotDelta`], never to the shared base.
//!
//! A single stream is a fleet of one: open one session. Concept-drift
//! input streams for exercising all of this live in `smore_data::stream`.
//! [`SessionStore`] in [`store`] bounds how many sessions stay resident:
//! least-recently-used tenants are suspended to tiny `DeltaV1` artifacts
//! and lazily rehydrated on their next request.
//!
//! # Example
//!
//! ```
//! use smore::{Smore, SmoreConfig};
//! use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
//! use smore_data::split;
//! use smore_stream::{ServeEngine, StreamingConfig};
//!
//! # fn main() -> Result<(), smore::SmoreError> {
//! let ds = generate(&GeneratorConfig {
//!     domains: vec![
//!         DomainSpec { subjects: vec![0, 1], windows: 40 },
//!         DomainSpec { subjects: vec![2, 3], windows: 40 },
//!         DomainSpec { subjects: vec![4, 5], windows: 40 },
//!     ],
//!     ..GeneratorConfig::default()
//! })
//! .map_err(smore::SmoreError::from)?;
//! let (train, test) = split::lodo(&ds, 2)?;
//! let mut model = Smore::new(
//!     SmoreConfig::builder()
//!         .dim(1024)
//!         .channels(ds.meta().channels)
//!         .num_classes(ds.meta().num_classes)
//!         .epochs(5)
//!         .build()?,
//! )?;
//! model.fit_indices(&ds, &train)?;
//!
//! let engine = ServeEngine::new(model, StreamingConfig::default())?;
//! let mut session = engine.session();
//! for &i in &test {
//!     let outcome = session.ingest(ds.window(i))?;
//!     assert!(outcome.prediction.label < ds.meta().num_classes);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapt;
mod buffer;
mod detector;
pub mod engine;
pub mod persist;
mod session;
pub mod store;

pub use buffer::{BufferedQuery, OodBuffer};
pub use detector::DriftDetector;
pub use engine::{ServeEngine, TenantSession};
pub use persist::{FlushPolicy, StateDir};
pub use session::{LabelStrategy, StreamOutcome, StreamingConfig};
pub use store::SessionStore;

/// Result alias; streaming shares the core SMORE error vocabulary.
pub type Result<T> = std::result::Result<T, smore::SmoreError>;
