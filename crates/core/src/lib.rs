//! # SMORE — Similarity-Based Hyperdimensional Domain Adaptation
//!
//! A from-scratch Rust reproduction of *SMORE: Similarity-Based
//! Hyperdimensional Domain Adaptation for Multi-Sensor Time Series
//! Classification* (Wang & Al Faruque, DAC 2024).
//!
//! SMORE mitigates *distribution shift* — the accuracy collapse a model
//! suffers when deployed on data from subjects it never trained on — with
//! four lightweight hyperdimensional mechanisms:
//!
//! 1. **Encoding** (`Ω`, [`smore_hdc::encoder`]): multi-sensor windows are
//!    mapped to hypervectors that preserve spatial and temporal structure.
//! 2. **Domain-specific modeling** (§3.4, [`Smore::fit`]): one adaptive HDC
//!    classifier `M_k` per source domain.
//! 3. **Domain descriptors + OOD detection** (§3.5, [`descriptor`],
//!    [`ood`]): each domain is summarised by a bundled descriptor `U_k`; a
//!    query whose best descriptor similarity falls below the threshold `δ*`
//!    is declared out-of-distribution.
//! 4. **Adaptive test-time modeling** (§3.6, [`test_time`]): the inference
//!    model is assembled *per query* as a similarity-weighted ensemble of
//!    the domain-specific models — all of them for OOD queries, only the
//!    sufficiently similar ones otherwise (Algorithm 1, Eq. 3).
//!
//! A fitted model can additionally be frozen into a bit-packed serving
//! model with [`Smore::quantize`]: [`QuantizedSmore`] runs the whole of
//! Algorithm 1 on one-bit-per-dimension hypervectors (XOR binding,
//! popcount similarity) for a ~32× smaller footprint and an
//! order-of-magnitude cheaper similarity kernel.
//!
//! The dense model also adapts *online*: [`Smore::enroll_domain`] adds a
//! new domain (descriptor + specialised model) to a fitted model without
//! refitting ([`Smore::prepare_domain`] is the non-mutating variant used
//! by multi-tenant serving). A frozen [`QuantizedSmore`] holds each of its
//! domains as a [`PackedDomain`](delta::PackedDomain);
//! [`SnapshotDelta::enroll_domain`] packs a new domain into the same
//! record, in a per-tenant overlay that [`DeltaSmore`] scores on top of
//! the frozen snapshot without copying it. The `smore_stream` crate builds
//! the full streaming deployment on these: OOD buffering, drift detection
//! and the multi-tenant `ServeEngine`.
//!
//! Every backend predicts, scores and evaluates through one trait,
//! [`Predictor`] — the only prediction API, so bring it into scope
//! (`use smore::Predictor;`) to call `predict_window`, `predict_batch` or
//! `evaluate` on a model. Both model forms persist as versioned `.smore`
//! binary artifacts ([`artifact`], encoded with the [`wire`] codec):
//! [`QuantizedSmore::save`]/[`QuantizedSmore::load`] are bit-exact,
//! [`Smore::save`]/[`Smore::load`] resume adaptation in a new process.
//!
//! # Quickstart
//!
//! ```
//! use smore::{Predictor, Smore, SmoreConfig};
//! use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
//! use smore_data::split;
//!
//! # fn main() -> Result<(), smore::SmoreError> {
//! // A small synthetic multi-sensor dataset with three domains: training
//! // keeps two source domains (SMORE needs K > 1) and holds one out.
//! let dataset = generate(&GeneratorConfig {
//!     domains: vec![
//!         DomainSpec { subjects: vec![0, 1], windows: 60 },
//!         DomainSpec { subjects: vec![2, 3], windows: 60 },
//!         DomainSpec { subjects: vec![4, 5], windows: 60 },
//!     ],
//!     ..GeneratorConfig::default()
//! })
//! .map_err(smore::SmoreError::from)?;
//! let (train, test) = split::lodo(&dataset, 1)?;
//!
//! let mut model = Smore::new(
//!     SmoreConfig::builder()
//!         .dim(2048)
//!         .channels(dataset.meta().channels)
//!         .num_classes(dataset.meta().num_classes)
//!         .build()?,
//! )?;
//! model.fit_indices(&dataset, &train)?;
//! let report = model.evaluate_indices(&dataset, &test)?;
//! assert!(report.accuracy > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
mod centering;
mod config;
pub mod delta;
pub mod descriptor;
mod error;
pub mod metrics;
pub mod ood;
pub mod pipeline;
pub mod predictor;
pub mod quantized;
mod smore_model;
pub mod test_time;
pub mod wire;

pub use centering::Centerer;
pub use config::{DomainInit, RangeMode, SmoreConfig, SmoreConfigBuilder};
pub use delta::{DeltaEnrollmentRecord, DeltaMeta, DeltaSmore, SnapshotDelta};
pub use error::SmoreError;
pub use predictor::{PredictTimings, Predictor, ServeScratch};
pub use quantized::QuantizedSmore;
pub use smore_model::{DomainEnrollment, EnrollReport, EvalReport, Prediction, Smore, TrainReport};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, SmoreError>;
