//! Residual multi-plane binarization: dense vectors as a few scaled sign
//! planes.
//!
//! One sign bit per dimension keeps a hypervector's *direction* but
//! discards every per-dimension magnitude. For class prototypes — bundles
//! of thousands of samples whose per-dimension magnitudes carry the vote
//! margins — that costs real accuracy. [`ResidualPacked`] closes most of
//! the gap while staying inside the packed op vocabulary: a vector is
//! approximated greedily as
//!
//! ```text
//! v ≈ Σ_b α_b · sign(r_b),   r_1 = v,  r_{b+1} = r_b − α_b·sign(r_b),
//! α_b = mean(|r_b|)
//! ```
//!
//! (the XNOR-Net scaling-factor construction, iterated on the residual).
//! Every dot product against a packed query then expands into `B` popcount
//! dots: `dot(q, v) ≈ Σ_b α_b · dot(q, sign(r_b))` — still word-level
//! logic, at `B×` the cost of a single plane. Two or three planes recover
//! most of the magnitude information at 2–3 bits per dimension (vs 32 for
//! `f32`).

use smore_hdc::{HdcError, Hypervector};

use crate::hypervector::{PackedHypervector, WORD_BITS};
use crate::Result;

/// A dense vector approximated by scaled packed sign planes.
///
/// # Example
///
/// ```
/// use smore_packed::{PackedHypervector, ResidualPacked};
///
/// # fn main() -> Result<(), smore_hdc::HdcError> {
/// let v = vec![0.9f32, -0.1, 2.0, -1.5];
/// let packed = ResidualPacked::from_dense(&v, 3)?;
/// let q = PackedHypervector::from_signs(&[1.0, 1.0, 1.0, -1.0]);
/// // dot(q, v) = 0.9 − 0.1 + 2.0 + 1.5 = 4.3; three planes get close.
/// let exact = 4.3f32;
/// assert!((packed.dot_packed(&q)? - exact).abs() < 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualPacked {
    /// `(scale α_b, sign plane)` pairs, in construction order.
    planes: Vec<(f32, PackedHypervector)>,
    dim: usize,
}

impl ResidualPacked {
    /// Greedily binarizes `values` into `planes` scaled sign planes.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] when `planes` is zero or
    /// `values` is empty.
    pub fn from_dense(values: &[f32], planes: usize) -> Result<Self> {
        if planes == 0 {
            return Err(HdcError::InvalidConfig {
                what: "residual binarization needs at least one plane".into(),
            });
        }
        if values.is_empty() {
            return Err(HdcError::InvalidConfig { what: "cannot binarize an empty vector".into() });
        }
        let dim = values.len();
        let mut residual: Vec<f32> =
            values.iter().map(|&v| if v.is_finite() { v } else { 0.0 }).collect();
        let mut out = Vec::with_capacity(planes);
        for _ in 0..planes {
            let alpha = residual.iter().map(|&r| r.abs() as f64).sum::<f64>() as f32 / dim as f32;
            if alpha <= 0.0 {
                break; // perfectly represented; further planes add nothing
            }
            let signs = PackedHypervector::from_signs(&residual);
            for (r, s) in residual.iter_mut().zip(0..dim) {
                *r -= if signs.get(s) { -alpha } else { alpha };
            }
            out.push((alpha, signs));
        }
        if out.is_empty() {
            // All-zero input: one zero-scale plane keeps the shape valid.
            out.push((0.0, PackedHypervector::zeros(dim)));
        }
        Ok(Self { planes: out, dim })
    }

    /// Reassembles a residual-binarized vector from its `(scale, sign
    /// plane)` pairs — the artifact-load path, the inverse of
    /// [`planes`](Self::planes).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] for an empty plane list,
    /// zero-dimensional or mismatched planes, or a non-finite scale.
    pub fn from_planes(planes: Vec<(f32, PackedHypervector)>) -> Result<Self> {
        let Some((_, first)) = planes.first() else {
            return Err(HdcError::InvalidConfig {
                what: "residual vector needs at least one plane".into(),
            });
        };
        let dim = first.dim();
        if dim == 0 {
            return Err(HdcError::InvalidConfig {
                what: "residual planes must be non-empty".into(),
            });
        }
        if let Some((alpha, plane)) =
            planes.iter().find(|(alpha, plane)| plane.dim() != dim || !alpha.is_finite())
        {
            return Err(HdcError::InvalidConfig {
                what: format!(
                    "invalid residual plane: scale {alpha}, dim {} (expected {dim})",
                    plane.dim()
                ),
            });
        }
        Ok(Self { planes, dim })
    }

    /// Dimensionality of the approximated vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of sign planes actually stored.
    pub fn num_planes(&self) -> usize {
        self.planes.len()
    }

    /// The `(scale, sign plane)` pairs.
    pub fn planes(&self) -> &[(f32, PackedHypervector)] {
        &self.planes
    }

    /// Bytes of packed storage (sign planes + scales).
    pub fn storage_bytes(&self) -> usize {
        self.planes.iter().map(|(_, p)| p.storage_bytes() + std::mem::size_of::<f32>()).sum()
    }

    /// Approximate dot product with a packed sign query:
    /// `Σ_b α_b · (d − 2·hamming(q, plane_b))` — `B` popcount sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when dimensions differ.
    pub fn dot_packed(&self, query: &PackedHypervector) -> Result<f32> {
        let mut acc = 0.0f32;
        for (alpha, plane) in &self.planes {
            acc += alpha * query.dot(plane)? as f32;
        }
        Ok(acc)
    }

    /// Approximate dot product with another residual-packed vector:
    /// `Σ_{a,b} α_a β_b · dot(plane_a, plane_b)`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when dimensions differ.
    pub fn dot(&self, other: &Self) -> Result<f32> {
        let mut acc = 0.0f32;
        for (alpha, pa) in &self.planes {
            for (beta, pb) in &other.planes {
                acc += alpha * beta * pa.dot(pb)? as f32;
            }
        }
        Ok(acc)
    }

    /// Reconstructs the dense approximation `Σ_b α_b · sign(r_b)`.
    ///
    /// Each plane is walked a storage word at a time (one 64-dimension
    /// chunk of the output per word), adding the planes in construction
    /// order — so every output value is the same f32 sum, bit for bit, as
    /// a per-dimension walk.
    pub fn to_dense(&self) -> Hypervector {
        let mut out = vec![0.0f32; self.dim];
        for &(alpha, ref plane) in &self.planes {
            for (chunk, &word) in out.chunks_mut(WORD_BITS).zip(plane.words()) {
                for (b, o) in chunk.iter_mut().enumerate() {
                    *o += if (word >> b) & 1 == 1 { -alpha } else { alpha };
                }
            }
        }
        Hypervector::from_vec(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smore_tensor::{init, vecops};

    #[test]
    fn validation() {
        assert!(ResidualPacked::from_dense(&[1.0], 0).is_err());
        assert!(ResidualPacked::from_dense(&[], 2).is_err());
    }

    #[test]
    fn single_plane_matches_sign_packing() {
        let v = init::normal_vec(&mut init::rng(1), 256);
        let r = ResidualPacked::from_dense(&v, 1).unwrap();
        assert_eq!(r.num_planes(), 1);
        let q = PackedHypervector::from_signs(&init::bipolar_vec(&mut init::rng(2), 256));
        let plane = &r.planes()[0];
        let expected = plane.0 * q.dot(&plane.1).unwrap() as f32;
        assert!((r.dot_packed(&q).unwrap() - expected).abs() < 1e-4);
        // The sign plane is exactly the sign packing of v.
        assert_eq!(plane.1, PackedHypervector::from_signs(&v));
    }

    #[test]
    fn more_planes_reduce_reconstruction_error() {
        let v = init::normal_vec(&mut init::rng(3), 1024);
        let err = |planes: usize| {
            let r = ResidualPacked::from_dense(&v, planes).unwrap();
            let approx = r.to_dense();
            let diff: Vec<f32> = v.iter().zip(approx.as_slice()).map(|(a, b)| a - b).collect();
            vecops::norm(&diff)
        };
        let e1 = err(1);
        let e2 = err(2);
        let e3 = err(3);
        assert!(e2 < e1, "two planes must beat one: {e2} vs {e1}");
        assert!(e3 < e2, "three planes must beat two: {e3} vs {e2}");
    }

    #[test]
    fn dot_tracks_dense_dot() {
        let v = init::normal_vec(&mut init::rng(4), 2048);
        let qs = init::bipolar_vec(&mut init::rng(5), 2048);
        let q = PackedHypervector::from_signs(&qs);
        let exact = vecops::dot(&v, &qs);
        let coarse = ResidualPacked::from_dense(&v, 1).unwrap().dot_packed(&q).unwrap();
        let fine = ResidualPacked::from_dense(&v, 3).unwrap().dot_packed(&q).unwrap();
        assert!(
            (fine - exact).abs() <= (coarse - exact).abs() + 1e-3,
            "3 planes ({fine}) should track the exact dot ({exact}) at least as well as 1 ({coarse})"
        );
    }

    #[test]
    fn residual_dot_between_vectors_tracks_dense() {
        let a = init::normal_vec(&mut init::rng(6), 2048);
        let b = init::normal_vec(&mut init::rng(7), 2048);
        let ra = ResidualPacked::from_dense(&a, 3).unwrap();
        let rb = ResidualPacked::from_dense(&b, 3).unwrap();
        let exact = vecops::dot(&a, &b);
        let approx = ra.dot(&rb).unwrap();
        // On the cosine scale the approximation error must stay small.
        let scale = vecops::norm(&a) * vecops::norm(&b);
        assert!(
            ((approx - exact) / scale).abs() < 0.1,
            "cosine-scale error {} too large",
            ((approx - exact) / scale).abs()
        );
        // Norms track closely.
        let norm = ra.dot(&ra).unwrap().sqrt();
        assert!((norm - vecops::norm(&a)).abs() < 0.1 * vecops::norm(&a));
    }

    #[test]
    fn zero_and_nonfinite_inputs_are_safe() {
        let r = ResidualPacked::from_dense(&[0.0; 16], 3).unwrap();
        assert_eq!(r.num_planes(), 1);
        assert_eq!(r.dot(&r).unwrap(), 0.0);
        let v = [f32::NAN, 1.0, f32::INFINITY, -2.0];
        let r = ResidualPacked::from_dense(&v, 2).unwrap();
        assert!(r.to_dense().is_finite());
    }

    #[test]
    fn storage_is_a_few_bits_per_dimension() {
        let v = init::normal_vec(&mut init::rng(8), 1024);
        let r = ResidualPacked::from_dense(&v, 2).unwrap();
        // 2 planes × 128 bytes + 2 scales ≪ 4096 bytes dense.
        assert!(r.storage_bytes() < 300);
        assert_eq!(r.dim(), 1024);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let r = ResidualPacked::from_dense(&[1.0; 64], 2).unwrap();
        let q = PackedHypervector::zeros(128);
        assert!(r.dot_packed(&q).is_err());
        let other = ResidualPacked::from_dense(&[1.0; 128], 2).unwrap();
        assert!(r.dot(&other).is_err());
    }
}
