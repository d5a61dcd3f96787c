//! Vector decomposition into partial sums (paper Eqs. (1)–(6)).
//!
//! CONV kernels and FC rows are rewritten as dot products and then split into
//! chunks no longer than the VDP unit (or arm) size.  Each chunk produces a
//! partial sum; partial sums are accumulated optically (within a unit) or in
//! the electronic partial-sum buffer (across passes).  The numerical identity
//! — that the decomposed computation equals the original dot product — is what
//! the property tests in this module guard.

use serde::{Deserialize, Serialize};

use crate::error::{ArchitectureError, Result};

/// Plan for executing one logical dot product of a given length on hardware
/// that supports `chunk` elements at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecompositionPlan {
    /// Original dot-product length.
    pub length: usize,
    /// Chunk size supported by the executing unit.
    pub chunk: usize,
    /// Number of chunks (= partial sums produced).
    pub chunks: usize,
}

impl DecompositionPlan {
    /// Plans the decomposition of a `length`-element dot product onto a unit
    /// supporting `chunk` elements.
    ///
    /// # Errors
    ///
    /// Returns [`ArchitectureError::InvalidConfig`] if `chunk` is zero.
    pub fn new(length: usize, chunk: usize) -> Result<Self> {
        if chunk == 0 {
            return Err(ArchitectureError::InvalidConfig {
                name: "chunk",
                reason: "chunk size must be positive".into(),
            });
        }
        Ok(Self {
            length,
            chunk,
            chunks: if length == 0 {
                0
            } else {
                length.div_ceil(chunk)
            },
        })
    }

    /// Number of sequential passes needed on a single unit (one pass per
    /// chunk).
    #[must_use]
    pub fn passes(&self) -> usize {
        self.chunks
    }

    /// Number of extra accumulation operations needed to combine the partial
    /// sums (a chain of additions in the partial-sum buffer).
    #[must_use]
    pub fn accumulations(&self) -> usize {
        self.chunks.saturating_sub(1)
    }
}

/// Executes a dot product by explicit decomposition into chunked partial sums,
/// returning `(result, partial_sums)`.
///
/// This is the numerical counterpart of [`DecompositionPlan`] and mirrors the
/// worked example of paper Eq. (4): `SP1 + SP2 = Y`.
///
/// # Errors
///
/// Returns [`ArchitectureError::InvalidConfig`] if the vectors have different
/// lengths or `chunk` is zero.
pub fn decomposed_dot(a: &[f64], b: &[f64], chunk: usize) -> Result<(f64, Vec<f64>)> {
    if a.len() != b.len() {
        return Err(ArchitectureError::InvalidConfig {
            name: "vectors",
            reason: format!("length mismatch: {} vs {}", a.len(), b.len()),
        });
    }
    if chunk == 0 {
        return Err(ArchitectureError::InvalidConfig {
            name: "chunk",
            reason: "chunk size must be positive".into(),
        });
    }
    let partial_sums: Vec<f64> = a
        .chunks(chunk)
        .zip(b.chunks(chunk))
        .map(|(ca, cb)| ca.iter().zip(cb.iter()).map(|(x, y)| x * y).sum())
        .collect();
    Ok((partial_sums.iter().sum(), partial_sums))
}

/// Rewrites a 2-D convolution patch operation as a dot product (paper
/// Eqs. (1)–(3)): the kernel and the activation patch are flattened in the
/// same order and their dot product is the convolution output element.
#[must_use]
pub fn conv_patch_as_dot(kernel: &[f64], patch: &[f64]) -> f64 {
    kernel.iter().zip(patch.iter()).map(|(k, a)| k * a).sum()
}

/// Unit passes needed to execute `dot_count` dot products of length
/// `dot_length` on units supporting `unit_size` elements per pass: one per
/// chunk of every dot product, before they are spread over the units.
///
/// The first step of [`sequential_passes`]; a sweep over unit counts at a
/// fixed unit size computes it once and divides it for each count.
///
/// # Errors
///
/// Returns [`ArchitectureError::InvalidConfig`] if `unit_size` is zero.
pub fn unit_passes(dot_length: usize, dot_count: usize, unit_size: usize) -> Result<u64> {
    let plan = DecompositionPlan::new(dot_length, unit_size)?;
    Ok(plan.passes() as u64 * dot_count as u64)
}

/// Total passes required to execute `dot_count` dot products of length
/// `dot_length` on `units` parallel units each supporting `unit_size`
/// elements per pass: the [`unit_passes`], spread over the units.
///
/// The result is the number of sequential unit-cycles; it is what the latency
/// model multiplies by the per-pass latency.
///
/// # Errors
///
/// Returns [`ArchitectureError::InvalidConfig`] if `unit_size` or `units` is
/// zero.
pub fn sequential_passes(
    dot_length: usize,
    dot_count: usize,
    unit_size: usize,
    units: usize,
) -> Result<u64> {
    if units == 0 {
        return Err(ArchitectureError::InvalidConfig {
            name: "units",
            reason: "at least one unit is required".into(),
        });
    }
    Ok(unit_passes(dot_length, dot_count, unit_size)?.div_ceil(units as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_counts_chunks() {
        let plan = DecompositionPlan::new(100, 15).unwrap();
        assert_eq!(plan.chunks, 7);
        assert_eq!(plan.passes(), 7);
        assert_eq!(plan.accumulations(), 6);
        let exact = DecompositionPlan::new(30, 15).unwrap();
        assert_eq!(exact.chunks, 2);
        let small = DecompositionPlan::new(4, 15).unwrap();
        assert_eq!(small.chunks, 1);
        assert_eq!(small.accumulations(), 0);
        let empty = DecompositionPlan::new(0, 15).unwrap();
        assert_eq!(empty.chunks, 0);
        assert!(DecompositionPlan::new(10, 0).is_err());
    }

    #[test]
    fn paper_equation_four_example() {
        // [k1 k2 k3 k4] · [a1 a2 a3 a4] decomposed into two 2-element partial
        // sums SP1 + SP2 = Y.
        let k = [0.5, 0.25, 2.0, 1.0];
        let a = [0.8, 0.4, 0.1, 0.6];
        let (y, partials) = decomposed_dot(&k, &a, 2).unwrap();
        assert_eq!(partials.len(), 2);
        let sp1 = 0.5 * 0.8 + 0.25 * 0.4;
        let sp2 = 2.0 * 0.1 + 1.0 * 0.6;
        assert!((partials[0] - sp1).abs() < 1e-12);
        assert!((partials[1] - sp2).abs() < 1e-12);
        assert!((y - (sp1 + sp2)).abs() < 1e-12);
        // And it equals the undecomposed dot product.
        let direct: f64 = k.iter().zip(a.iter()).map(|(x, y)| x * y).sum();
        assert!((y - direct).abs() < 1e-12);
    }

    #[test]
    fn decomposition_is_exact_for_many_chunk_sizes() {
        let a: Vec<f64> = (0..157).map(|i| ((i as f64) * 0.37).sin()).collect();
        let b: Vec<f64> = (0..157).map(|i| ((i as f64) * 0.11).cos()).collect();
        let direct: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
        for chunk in [1, 2, 7, 15, 20, 150, 200] {
            let (y, partials) = decomposed_dot(&a, &b, chunk).unwrap();
            assert!((y - direct).abs() < 1e-9, "chunk {chunk}");
            assert_eq!(partials.len(), 157usize.div_ceil(chunk));
        }
    }

    #[test]
    fn conv_patch_matches_paper_equation_two() {
        // Paper Eq. (2): 2×2 kernel ⊗ 2×2 patch = k1a1 + k2a2 + k3a3 + k4a4.
        let kernel = [1.0, 2.0, 3.0, 4.0];
        let patch = [0.1, 0.2, 0.3, 0.4];
        let y = conv_patch_as_dot(&kernel, &patch);
        assert!((y - (0.1 + 0.4 + 0.9 + 1.6)).abs() < 1e-12);
    }

    #[test]
    fn decomposed_dot_rejects_bad_inputs() {
        assert!(decomposed_dot(&[1.0], &[1.0, 2.0], 2).is_err());
        assert!(decomposed_dot(&[1.0], &[1.0], 0).is_err());
    }

    #[test]
    fn sequential_passes_account_for_unit_count_and_size() {
        // 1000 dot products of length 30 on units of size 15: 2 passes each,
        // 2000 passes total, over 100 units → 20 sequential cycles.
        assert_eq!(sequential_passes(30, 1000, 15, 100).unwrap(), 20);
        // Larger unit halves the passes.
        assert_eq!(sequential_passes(30, 1000, 30, 100).unwrap(), 10);
        // One unit serialises everything.
        assert_eq!(sequential_passes(30, 1000, 15, 1).unwrap(), 2000);
        assert!(sequential_passes(30, 1000, 0, 10).is_err());
        assert!(sequential_passes(30, 1000, 15, 0).is_err());
    }

    #[test]
    fn fc_layers_on_conv_sized_units_need_many_more_passes() {
        // The paper's motivation for separate FC units: a 3200-long FC dot
        // product on a 20-wide CONV unit needs 160 passes; on a 150-wide FC
        // unit it needs 22.
        let on_conv = sequential_passes(3200, 202, 20, 100).unwrap();
        let on_fc = sequential_passes(3200, 202, 150, 60).unwrap();
        assert!(on_conv > 4 * on_fc);
    }
}
