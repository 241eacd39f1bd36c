//! Bit-packed binary inference engine for the SMORE reproduction.
//!
//! The dense pipeline carries every hypervector as `d` `f32` values; this
//! crate carries the *sign* of each dimension as one bit, 64 dimensions per
//! `u64` word (paper Fig. 6's efficiency pitch: hypervector ops are
//! word-level logic). The translation table:
//!
//! | dense (`smore_hdc`)            | packed (this crate)                |
//! |--------------------------------|------------------------------------|
//! | bind = element-wise `×`        | XOR (`bit 1 ⇔ −1`, parity of signs)|
//! | permute `ρ^k` = circular shift | 64-bit word/bit rotation           |
//! | similarity = cosine            | `1 − 2·hamming/d` via popcount     |
//! | bundle = `f32` sum             | bit-sliced counters + majority     |
//!
//! The result is a ~32× memory reduction and an order-of-magnitude cheaper
//! similarity (`d/64` XOR+popcount words vs `3d` FLOPs). Training stays
//! dense; this crate is the *serving* backend that frozen models are
//! quantized into (see `smore::QuantizedSmore`).
//!
//! - [`PackedHypervector`] — the packed representation with XOR binding,
//!   rotation and popcount Hamming similarity.
//! - [`BitSliceAccumulator`] — word-parallel (SWAR) majority bundling
//!   through carry-save-adder bit planes.
//! - [`PackedNgramEncoder`] — the multi-sensor temporal encoder of §3.3 on
//!   packed codewords, exposing its integer accumulator for exact
//!   sign-of-dense thresholding; [`EncoderScratch`] makes the hot encode
//!   path allocation-free.
//! - [`ResidualPacked`] — scaled multi-plane binarization (XNOR-Net-style)
//!   for parameters whose per-dimension magnitudes matter, at 2–3 bits per
//!   dimension and still pure popcount arithmetic. Class prototypes are
//!   scored through it.
//!
//! Errors reuse [`smore_hdc::HdcError`]: the packed backend is an HDC
//! backend and shares the dense substrate's error vocabulary.
//!
//! # Example
//!
//! ```
//! use smore_hdc::encoder::EncoderConfig;
//! use smore_packed::{EncoderScratch, PackedHypervector, PackedNgramEncoder};
//! use smore_tensor::Matrix;
//!
//! # fn main() -> Result<(), smore_hdc::HdcError> {
//! let encoder = PackedNgramEncoder::new(EncoderConfig {
//!     dim: 1024,
//!     sensors: 3,
//!     ..EncoderConfig::default()
//! })?;
//! let window = Matrix::from_fn(16, 3, |t, s| ((t + s) as f32 * 0.4).sin());
//! let mut scratch = EncoderScratch::new();
//! let mut query = PackedHypervector::zeros(1024);
//! encoder.encode_window_into(&window, &mut scratch, &mut query)?;
//! assert_eq!(query.storage_bytes(), 1024 / 8); // vs 4096 bytes dense
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encoder;
mod hypervector;
mod residual;

pub use encoder::{EncoderScratch, PackedNgramEncoder};
pub use hypervector::{words_for, BitSliceAccumulator, PackedHypervector};
pub use residual::ResidualPacked;

/// Result alias; the packed backend shares the dense HDC error vocabulary.
pub type Result<T> = std::result::Result<T, smore_hdc::HdcError>;
