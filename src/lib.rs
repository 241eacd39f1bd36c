//! Umbrella crate for the SMORE (DAC 2024) reproduction workspace.
//!
//! This crate re-exports the member crates so the runnable examples under
//! `examples/` and the integration tests under `tests/` can reach the whole
//! system through a single dependency. Library users should depend on the
//! individual crates directly:
//!
//! - [`smore`] — the paper's contribution (domain-adaptive HDC inference)
//! - [`smore_hdc`] — hypervector algebra and the multi-sensor encoder
//! - [`smore_data`] — synthetic multi-sensor time series datasets
//! - [`smore_nn`] — the neural-network substrate used by the CNN baselines
//! - [`smore_baselines`] — BaselineHD, DOMINO, TENT and MDANs
//! - [`smore_packed`] — the bit-packed binary inference engine
//! - [`smore_platform`] — edge-device latency/energy models
//! - [`smore_serve`] — the network serving front-end: binary wire
//!   protocol, tenant sharding, per-job serving, admission control
//! - [`smore_stream`] — streaming adaptation: drift detection, online
//!   domain enrolment into per-tenant deltas over a shared quantized base
//! - [`smore_tensor`] — the linear-algebra substrate
//!
//! Every re-export resolves through this crate (compile-time check):
//!
//! ```
//! let _ = smore_repro::smore::SmoreConfig::builder();
//! let _ = smore_repro::smore_baselines::baseline_hd::BaselineHdConfig::default();
//! let _ = smore_repro::smore_data::generator::GeneratorConfig::default();
//! let _ = smore_repro::smore_hdc::Hypervector::zeros(4);
//! let _ = smore_repro::smore_nn::optim::Optimizer::sgd(0.1, 0.9);
//! let _ = smore_repro::smore_packed::PackedHypervector::zeros(64);
//! let _ = smore_repro::smore_platform::device::raspberry_pi_3b();
//! let _ = smore_repro::smore_serve::ServeConfig::default();
//! let _ = smore_repro::smore_stream::StreamingConfig::default();
//! let _ = smore_repro::smore_tensor::Matrix::zeros(1, 1);
//! ```

#![forbid(unsafe_code)]

pub use smore;
pub use smore_baselines;
pub use smore_data;
pub use smore_hdc;
pub use smore_nn;
pub use smore_packed;
pub use smore_platform;
pub use smore_serve;
pub use smore_stream;
pub use smore_tensor;
