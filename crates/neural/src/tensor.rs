//! A small dense tensor type with allocation-free, cache-blocked kernels.
//!
//! The neural substrate only needs what the CrossLight experiments need:
//! `f32` storage, arbitrary-rank shapes, elementwise arithmetic, 2-D matrix
//! multiplication and the im2col transform that turns convolutions into the
//! vector dot products a photonic accelerator executes (paper Eqs. (1)–(4)).
//!
//! # Kernel design
//!
//! Every hot kernel comes in two flavours:
//!
//! * an **allocating** convenience form ([`Tensor::matmul`], [`im2col`], …)
//!   that returns a fresh tensor, and
//! * an **`_into` form** ([`Tensor::matmul_into`], [`im2col_into`], …) that
//!   writes into a caller-owned destination tensor, reusing its heap buffer.
//!   In steady state (same shapes call-to-call) the `_into` forms perform
//!   **zero heap allocations**.
//!
//! The matrix kernels are cache-blocked along the shared dimension and use a
//! branch-free SAXPY-style inner loop that autovectorizes (the old
//! `a == 0.0` skip branch defeated SIMD on dense data and is gone).  Fused
//! [`Tensor::matmul_transpose_b`] / [`Tensor::transpose_a_matmul`] variants
//! and [`im2col_transposed_into`] eliminate the explicit weight/column
//! transposes from the conv forward and input-gradient paths (layers keep a
//! materialized transpose only where the fused dot-form reduction would be
//! slower than transpose + SAXPY, e.g. the conv weight gradient).
//!
//! **Bit-identity guarantee:** every blocked/fused kernel accumulates each
//! output element over the shared dimension in the same ascending order, from
//! the same `0.0` starting accumulator, as the naive triple-loop reference
//! (preserved in [`reference`]).  Results are therefore bit-identical to the
//! naive kernels for finite inputs — property-tested in
//! `tests/properties.rs` — which is what lets the training pipeline and the
//! runtime's bit-equivalence guarantees survive the performance rework.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::{NeuralError, Result};

/// Cache-block size along the shared (reduction) dimension of the matrix
/// kernels.  A 64-row panel of `b` (64 × n floats) stays resident in L1/L2
/// while every row of `a` streams over it.  Accumulation order per output
/// element is unaffected by the block size (blocks are visited in ascending
/// order), so any value here produces bit-identical results.
const BLOCK_K: usize = 64;

/// A dense, row-major `f32` tensor.
///
/// # Example
///
/// ```
/// use crosslight_neural::tensor::Tensor;
///
/// # fn main() -> Result<(), crosslight_neural::error::NeuralError> {
/// let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0])?;
/// let c = a.matmul(&b)?;
/// assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    #[must_use]
    pub fn zeros(shape: Vec<usize>) -> Self {
        let len = shape.iter().product();
        Self {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with a constant value.
    #[must_use]
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let len = shape.iter().product();
        Self {
            shape,
            data: vec![value; len],
        }
    }

    /// Creates a tensor from explicit data.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] if `data.len()` does not equal
    /// the product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(NeuralError::ShapeMismatch {
                expected: vec![expected],
                actual: vec![data.len()],
            });
        }
        Ok(Self { shape, data })
    }

    /// Creates a tensor with entries drawn uniformly from `[-limit, limit]`,
    /// the He/Xavier-style initialisation used by the training code.
    pub fn random_uniform<R: Rng + ?Sized>(shape: Vec<usize>, limit: f32, rng: &mut R) -> Self {
        let len = shape.iter().product();
        let data = (0..len).map(|_| rng.gen_range(-limit..=limit)).collect();
        Self { shape, data }
    }

    /// Returns the tensor shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Returns the number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the underlying data as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Returns the underlying data as a mutable slice.
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes the tensor without copying data.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] if the element count changes.
    pub fn reshape(mut self, shape: Vec<usize>) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(NeuralError::ShapeMismatch {
                expected: vec![expected],
                actual: vec![self.data.len()],
            });
        }
        self.shape = shape;
        Ok(self)
    }

    /// Changes the shape in place without touching the data or allocating.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] if the element count changes.
    pub fn reshape_in_place(&mut self, shape: &[usize]) -> Result<()> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(NeuralError::ShapeMismatch {
                expected: vec![expected],
                actual: vec![self.data.len()],
            });
        }
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        Ok(())
    }

    /// Resizes to `shape` and zero-fills, reusing the existing heap buffers
    /// (no allocation once capacity has grown to the steady-state size).
    pub fn reset(&mut self, shape: &[usize]) {
        let len = shape.iter().product();
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.clear();
        self.data.resize(len, 0.0);
    }

    /// Resizes to `shape` without zero-filling the prefix; every element is
    /// expected to be overwritten by the caller (or by a kernel that zeroes
    /// its own destination).  Reuses the heap buffers.
    pub(crate) fn resize_for_overwrite(&mut self, shape: &[usize]) {
        let len = shape.iter().product();
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.resize(len, 0.0);
    }

    /// Copies shape and data from `other`, reusing this tensor's buffers.
    pub fn copy_from(&mut self, other: &Tensor) {
        self.shape.clear();
        self.shape.extend_from_slice(&other.shape);
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Returns element `(row, col)` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the indices are out of bounds.
    #[must_use]
    pub fn get2(&self, row: usize, col: usize) -> f32 {
        assert_eq!(self.shape.len(), 2, "get2 requires a rank-2 tensor");
        assert!(
            row < self.shape[0] && col < self.shape[1],
            "index out of bounds"
        );
        self.data[row * self.shape[1] + col]
    }

    /// Sets element `(row, col)` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the indices are out of bounds.
    pub fn set2(&mut self, row: usize, col: usize, value: f32) {
        assert_eq!(self.shape.len(), 2, "set2 requires a rank-2 tensor");
        assert!(
            row < self.shape[0] && col < self.shape[1],
            "index out of bounds"
        );
        self.data[row * self.shape[1] + col] = value;
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] on shape mismatch.
    pub fn hadamard(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, |a, b| a * b)
    }

    /// In-place elementwise addition (`self += other`), allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(NeuralError::ShapeMismatch {
                expected: self.shape.clone(),
                actual: other.shape.clone(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Multiplies every element by a scalar.
    #[must_use]
    pub fn scale(&self, factor: f32) -> Tensor {
        self.map(|x| x * factor)
    }

    /// Applies a function to every element.
    #[must_use]
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum element (negative infinity for an empty tensor).
    #[must_use]
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element (0 for an empty tensor).
    #[must_use]
    pub fn argmax(&self) -> usize {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map_or(0, |(i, _)| i)
    }

    /// Dot product with another tensor of identical length.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] if lengths differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.len() != other.len() {
            return Err(NeuralError::ShapeMismatch {
                expected: self.shape.clone(),
                actual: other.shape.clone(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum())
    }

    fn check_matmul(&self, other: &Tensor) -> Result<(usize, usize, usize)> {
        if self.shape.len() != 2 || other.shape.len() != 2 || self.shape[1] != other.shape[0] {
            return Err(NeuralError::ShapeMismatch {
                expected: self.shape.clone(),
                actual: other.shape.clone(),
            });
        }
        Ok((self.shape[0], self.shape[1], other.shape[1]))
    }

    /// Matrix multiplication of two rank-2 tensors (`[m, k] · [k, n]`).
    ///
    /// Delegates to the cache-blocked [`Tensor::matmul_into`]; results are
    /// bit-identical to the naive triple loop in
    /// [`reference::matmul_naive`].
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] if either tensor is not rank 2
    /// or the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        let mut out = Tensor::default();
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// Cache-blocked matrix multiplication into a caller-owned destination
    /// (`out = self · other`), allocation-free in steady state.
    ///
    /// The kernel streams 64-row panels of `other` (see [`BLOCK_K`]) through
    /// a branch-free SAXPY inner loop over contiguous rows, which
    /// autovectorizes.  Each output element accumulates over the shared
    /// dimension in ascending order from `0.0`, so the result is
    /// bit-identical to [`reference::matmul_naive`].
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] if either operand is not rank 2
    /// or the inner dimensions disagree.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) -> Result<()> {
        let (m, k, n) = self.check_matmul(other)?;
        out.resize_for_overwrite(&[m, n]);
        matmul_kernel(&self.data, &other.data, &mut out.data, m, k, n);
        Ok(())
    }

    /// Fused `self · otherᵀ` for rank-2 tensors (`[m, k] · [n, k]ᵀ → [m, n]`)
    /// without materializing the transpose.
    ///
    /// Bit-identical to `self.matmul(&other.transpose()?)`.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] if either operand is not rank 2
    /// or the shared dimensions disagree.
    pub fn matmul_transpose_b(&self, other: &Tensor) -> Result<Tensor> {
        let mut out = Tensor::default();
        self.matmul_transpose_b_into(other, &mut out)?;
        Ok(out)
    }

    /// Destination-buffer form of [`Tensor::matmul_transpose_b`],
    /// allocation-free in steady state.
    ///
    /// Both operands are traversed along contiguous rows (the transpose is
    /// fused into the indexing), so no scratch matrix is ever built.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] if either operand is not rank 2
    /// or the shared dimensions disagree.
    pub fn matmul_transpose_b_into(&self, other: &Tensor, out: &mut Tensor) -> Result<()> {
        if self.shape.len() != 2 || other.shape.len() != 2 || self.shape[1] != other.shape[1] {
            return Err(NeuralError::ShapeMismatch {
                expected: self.shape.clone(),
                actual: other.shape.clone(),
            });
        }
        let (m, k, n) = (self.shape[0], self.shape[1], other.shape[0]);
        out.resize_for_overwrite(&[m, n]);
        matmul_transpose_b_kernel(&self.data, &other.data, &mut out.data, m, k, n);
        Ok(())
    }

    /// Fused `selfᵀ · other` for rank-2 tensors (`[k, m]ᵀ · [k, n] → [m, n]`)
    /// without materializing the transpose.
    ///
    /// Bit-identical to `self.transpose()?.matmul(other)`.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] if either operand is not rank 2
    /// or the shared dimensions disagree.
    pub fn transpose_a_matmul(&self, other: &Tensor) -> Result<Tensor> {
        let mut out = Tensor::default();
        self.transpose_a_matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// Destination-buffer form of [`Tensor::transpose_a_matmul`],
    /// allocation-free in steady state.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] if either operand is not rank 2
    /// or the shared dimensions disagree.
    pub fn transpose_a_matmul_into(&self, other: &Tensor, out: &mut Tensor) -> Result<()> {
        if self.shape.len() != 2 || other.shape.len() != 2 || self.shape[0] != other.shape[0] {
            return Err(NeuralError::ShapeMismatch {
                expected: self.shape.clone(),
                actual: other.shape.clone(),
            });
        }
        let (k, m, n) = (self.shape[0], self.shape[1], other.shape[1]);
        out.resize_for_overwrite(&[m, n]);
        transpose_a_matmul_kernel(&self.data, &other.data, &mut out.data, k, m, n);
        Ok(())
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] if the tensor is not rank 2.
    pub fn transpose(&self) -> Result<Tensor> {
        let mut out = Tensor::default();
        self.transpose_into(&mut out)?;
        Ok(out)
    }

    /// Transpose of a rank-2 tensor into a caller-owned destination,
    /// allocation-free in steady state.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] if the tensor is not rank 2.
    pub fn transpose_into(&self, out: &mut Tensor) -> Result<()> {
        if self.shape.len() != 2 {
            return Err(NeuralError::ShapeMismatch {
                expected: vec![2],
                actual: vec![self.shape.len()],
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        out.resize_for_overwrite(&[n, m]);
        for i in 0..m {
            let row = &self.data[i * n..(i + 1) * n];
            for (j, &v) in row.iter().enumerate() {
                out.data[j * m + i] = v;
            }
        }
        Ok(())
    }

    /// Elementwise combination into a caller-owned destination
    /// (`out[i] = f(self[i], other[i])`), allocation-free in steady state.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] on shape mismatch.
    pub fn zip_with_into<F: Fn(f32, f32) -> f32>(
        &self,
        other: &Tensor,
        out: &mut Tensor,
        f: F,
    ) -> Result<()> {
        if self.shape != other.shape {
            return Err(NeuralError::ShapeMismatch {
                expected: self.shape.clone(),
                actual: other.shape.clone(),
            });
        }
        out.resize_for_overwrite(&self.shape);
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = f(a, b);
        }
        Ok(())
    }

    fn zip_with<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Result<Tensor> {
        let mut out = Tensor::default();
        self.zip_with_into(other, &mut out, f)?;
        Ok(out)
    }
}

/// Crate-internal slice entry point of the blocked matmul, for layers that
/// multiply borrowed sub-views (e.g. a `[C, H, W]` gradient viewed as a
/// matrix) without materializing `Tensor` operands.
pub(crate) fn matmul_slices(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    matmul_kernel(a, b, out, m, k, n);
}

/// Crate-internal slice entry point of the fused `aᵀ · b` kernel.
pub(crate) fn transpose_a_matmul_slices(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    transpose_a_matmul_kernel(a, b, out, k, m, n);
}

/// `out[m × n] = a[m × k] · b[k × n]`, cache-blocked over `k`.
///
/// Per output element the accumulation runs over `p = 0..k` in ascending
/// order (blocks ascending, positions within a block ascending) from a `0.0`
/// accumulator — the exact chain of the naive kernel.
fn matmul_kernel(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    out.fill(0.0);
    let mut pb = 0;
    while pb < k {
        let pe = (pb + BLOCK_K).min(k);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let dst = &mut out[i * n..(i + 1) * n];
            // Four `b` rows per pass: each destination element receives its
            // four products as separate, sequential adds (p, p+1, p+2, p+3 —
            // the exact naive order), but the destination value stays in a
            // register across all four, quartering the dst load/store
            // traffic and the loop overhead on skinny matrices.
            let mut p = pb;
            while p + 4 <= pe {
                let a0 = a_row[p];
                let a1 = a_row[p + 1];
                let a2 = a_row[p + 2];
                let a3 = a_row[p + 3];
                let b0 = &b[p * n..(p + 1) * n];
                let b1 = &b[(p + 1) * n..(p + 2) * n];
                let b2 = &b[(p + 2) * n..(p + 3) * n];
                let b3 = &b[(p + 3) * n..(p + 4) * n];
                for ((((d, &v0), &v1), &v2), &v3) in dst.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    let mut v = *d;
                    v += a0 * v0;
                    v += a1 * v1;
                    v += a2 * v2;
                    v += a3 * v3;
                    *d = v;
                }
                p += 4;
            }
            while p < pe {
                let av = a_row[p];
                let b_row = &b[p * n..(p + 1) * n];
                for (d, &bv) in dst.iter_mut().zip(b_row) {
                    *d += av * bv;
                }
                p += 1;
            }
        }
        pb = pe;
    }
}

/// `out[m × n] = a[m × k] · b[n × k]ᵀ` — both operands walked along
/// contiguous rows; the shared dimension accumulates in ascending order.
fn matmul_transpose_b_kernel(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            *o = acc;
        }
    }
}

/// `out[m × n] = a[k × m]ᵀ · b[k × n]` — the reduction dimension is the
/// outer loop, so both operands stream along contiguous rows and the inner
/// SAXPY over `n` autovectorizes.  `n == 1` (dense backward) is
/// special-cased so the vectorizable loop runs over `m` instead.
fn transpose_a_matmul_kernel(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
    out.fill(0.0);
    if n == 1 {
        for p in 0..k {
            let scale = b[p];
            let a_row = &a[p * m..(p + 1) * m];
            for (o, &av) in out.iter_mut().zip(a_row) {
                *o += av * scale;
            }
        }
        return;
    }
    for p in 0..k {
        let a_row = &a[p * m..(p + 1) * m];
        let b_row = &b[p * n..(p + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            let dst = &mut out[i * n..(i + 1) * n];
            for (d, &bv) in dst.iter_mut().zip(b_row) {
                *d += av * bv;
            }
        }
    }
}

/// Parameters of an im2col transform (the conv → dot-product rewriting of
/// paper Eqs. (1)–(3)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Im2colSpec {
    /// Input channel count.
    pub in_channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
}

impl Im2colSpec {
    /// Output spatial height of the convolution.
    #[must_use]
    pub fn out_height(&self) -> usize {
        if self.height < self.kernel {
            0
        } else {
            (self.height - self.kernel) / self.stride + 1
        }
    }

    /// Output spatial width of the convolution.
    #[must_use]
    pub fn out_width(&self) -> usize {
        if self.width < self.kernel {
            0
        } else {
            (self.width - self.kernel) / self.stride + 1
        }
    }

    /// Length of each im2col column (= dot-product length per output pixel).
    #[must_use]
    pub fn column_length(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    fn check_input(&self, input: &Tensor) -> Result<()> {
        let expected = [self.in_channels, self.height, self.width];
        if input.shape() != expected {
            return Err(NeuralError::ShapeMismatch {
                expected: expected.to_vec(),
                actual: input.shape().to_vec(),
            });
        }
        Ok(())
    }
}

/// Lowers a `[C, H, W]` activation tensor to an im2col matrix of shape
/// `[out_h * out_w, C * k * k]`, so that convolution with a `[out_c, C*k*k]`
/// weight matrix becomes a plain matrix multiplication — exactly the
/// dot-product form the photonic VDP units execute.
///
/// # Errors
///
/// Returns [`NeuralError::ShapeMismatch`] if `input` is not `[C, H, W]` with
/// dimensions matching `spec`.
pub fn im2col(input: &Tensor, spec: &Im2colSpec) -> Result<Tensor> {
    let mut out = Tensor::default();
    im2col_into(input, spec, &mut out)?;
    Ok(out)
}

/// Destination-buffer form of [`im2col`]: lowers into a caller-owned scratch
/// tensor, allocation-free in steady state.
///
/// Each `(patch, channel, kernel-row)` segment is a contiguous run of the
/// source image, so the kernel copies `kernel`-length slices instead of
/// moving single elements.
///
/// # Errors
///
/// Returns [`NeuralError::ShapeMismatch`] if `input` is not `[C, H, W]` with
/// dimensions matching `spec`.
pub fn im2col_into(input: &Tensor, spec: &Im2colSpec, out: &mut Tensor) -> Result<()> {
    spec.check_input(input)?;
    let out_h = spec.out_height();
    let out_w = spec.out_width();
    let cols = spec.column_length();
    out.resize_for_overwrite(&[out_h * out_w, cols]);
    let src = input.as_slice();
    let dst = out.as_mut_slice();
    let hw = spec.height * spec.width;
    for oy in 0..out_h {
        for ox in 0..out_w {
            let row = oy * out_w + ox;
            let mut col = row * cols;
            for c in 0..spec.in_channels {
                let channel_base = c * hw;
                for ky in 0..spec.kernel {
                    let iy = oy * spec.stride + ky;
                    let src_base = channel_base + iy * spec.width + ox * spec.stride;
                    dst[col..col + spec.kernel]
                        .copy_from_slice(&src[src_base..src_base + spec.kernel]);
                    col += spec.kernel;
                }
            }
        }
    }
    Ok(())
}

/// Lowers a `[C, H, W]` activation tensor directly to the **transposed**
/// im2col matrix `[C * k * k, out_h * out_w]`, allocation-free in steady
/// state.
///
/// This is the layout the conv forward pass multiplies against
/// (`y = W · colsᵀ`); producing it directly fuses away the explicit
/// `transpose()` the old forward path materialized on every call.  Entry
/// `[l, p]` equals entry `[p, l]` of [`im2col`] bit-for-bit.
///
/// # Errors
///
/// Returns [`NeuralError::ShapeMismatch`] if `input` is not `[C, H, W]` with
/// dimensions matching `spec`.
pub fn im2col_transposed_into(input: &Tensor, spec: &Im2colSpec, out: &mut Tensor) -> Result<()> {
    spec.check_input(input)?;
    let out_h = spec.out_height();
    let out_w = spec.out_width();
    let pixels = out_h * out_w;
    let cols = spec.column_length();
    out.resize_for_overwrite(&[cols, pixels]);
    let src = input.as_slice();
    let dst = out.as_mut_slice();
    let hw = spec.height * spec.width;
    let mut col = 0;
    for c in 0..spec.in_channels {
        let channel_base = c * hw;
        for ky in 0..spec.kernel {
            for kx in 0..spec.kernel {
                let dst_row = &mut dst[col * pixels..(col + 1) * pixels];
                for oy in 0..out_h {
                    let iy = oy * spec.stride + ky;
                    let src_row = channel_base + iy * spec.width + kx;
                    let dst_seg = &mut dst_row[oy * out_w..(oy + 1) * out_w];
                    if spec.stride == 1 {
                        dst_seg.copy_from_slice(&src[src_row..src_row + out_w]);
                    } else {
                        for (ox, d) in dst_seg.iter_mut().enumerate() {
                            *d = src[src_row + ox * spec.stride];
                        }
                    }
                }
                col += 1;
            }
        }
    }
    Ok(())
}

/// Naive reference implementations of the blocked kernels.
///
/// These are the seed repository's original unblocked triple loops (minus
/// the `a == 0.0` skip branch, which is a no-op on finite data).  They exist
/// so property tests and the benchmark-trajectory harness can prove the
/// cache-blocked kernels **bit-identical** and measure their speedup; they
/// are not used on any hot path.
pub mod reference {
    use super::{Im2colSpec, Result, Tensor};

    /// Unblocked triple-loop matrix multiplication (`[m, k] · [k, n]`).
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::NeuralError::ShapeMismatch`] on rank or
    /// dimension mismatch.
    pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (m, k, n) = a.check_matmul(b)?;
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a.as_slice()[i * k + p];
                let row = &b.as_slice()[p * n..(p + 1) * n];
                let dst = &mut out[i * n..(i + 1) * n];
                for (d, &bv) in dst.iter_mut().zip(row.iter()) {
                    *d += av * bv;
                }
            }
        }
        Tensor::from_vec(vec![m, n], out)
    }

    /// Element-at-a-time im2col (`[C, H, W] → [P, C·k·k]`).
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::NeuralError::ShapeMismatch`] if `input` does
    /// not match `spec`.
    pub fn im2col_naive(input: &Tensor, spec: &Im2colSpec) -> Result<Tensor> {
        spec.check_input(input)?;
        let out_h = spec.out_height();
        let out_w = spec.out_width();
        let cols = spec.column_length();
        let mut data = vec![0.0f32; out_h * out_w * cols];
        let src = input.as_slice();
        for oy in 0..out_h {
            for ox in 0..out_w {
                let row = oy * out_w + ox;
                let mut col = 0;
                for c in 0..spec.in_channels {
                    for ky in 0..spec.kernel {
                        for kx in 0..spec.kernel {
                            let iy = oy * spec.stride + ky;
                            let ix = ox * spec.stride + kx;
                            data[row * cols + col] =
                                src[c * spec.height * spec.width + iy * spec.width + ix];
                            col += 1;
                        }
                    }
                }
            }
        }
        Tensor::from_vec(vec![out_h * out_w, cols], data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::zeros(vec![2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
        let f = Tensor::full(vec![2], 3.5);
        assert_eq!(f.as_slice(), &[3.5, 3.5]);
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 3]).is_err());
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(vec![3], vec![4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.hadamard(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.map(|x| x * x).as_slice(), &[1.0, 4.0, 9.0]);
        assert!((a.sum() - 6.0).abs() < 1e-6);
        assert!((a.dot(&b).unwrap() - 32.0).abs() < 1e-6);
        let c = Tensor::zeros(vec![2]);
        assert!(a.add(&c).is_err());
        assert!(a.dot(&c).is_err());
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        let a = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(vec![3], vec![4.0, 5.0, 6.0]).unwrap();
        let mut acc = a.clone();
        acc.add_assign(&b).unwrap();
        assert_eq!(acc, a.add(&b).unwrap());
        assert!(acc.add_assign(&Tensor::zeros(vec![2])).is_err());
        let mut out = Tensor::default();
        a.zip_with_into(&b, &mut out, |x, y| x * y).unwrap();
        assert_eq!(out, a.hadamard(&b).unwrap());
    }

    #[test]
    fn copy_reset_and_reshape_in_place_reuse_buffers() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let mut t = Tensor::zeros(vec![10]);
        t.copy_from(&a);
        assert_eq!(t, a);
        t.reshape_in_place(&[3, 2]).unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.as_slice(), a.as_slice());
        assert!(t.reshape_in_place(&[4, 2]).is_err());
        t.reset(&[2, 2]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
        assert!(a.matmul(&a).is_err());
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_reference_across_block_boundary() {
        // Shapes straddling BLOCK_K exercise the panel loop.
        let mut rng = StdRng::seed_from_u64(17);
        for (m, k, n) in [(3, 5, 4), (7, BLOCK_K, 9), (5, BLOCK_K + 37, 8), (1, 1, 1)] {
            let a = Tensor::random_uniform(vec![m, k], 1.0, &mut rng);
            let b = Tensor::random_uniform(vec![k, n], 1.0, &mut rng);
            let blocked = a.matmul(&b).unwrap();
            let naive = reference::matmul_naive(&a, &b).unwrap();
            assert_eq!(blocked, naive, "({m},{k},{n})");
        }
    }

    #[test]
    fn fused_transpose_variants_match_explicit_transposes() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = Tensor::random_uniform(vec![4, 6], 1.0, &mut rng);
        let b = Tensor::random_uniform(vec![5, 6], 1.0, &mut rng);
        assert_eq!(
            a.matmul_transpose_b(&b).unwrap(),
            a.matmul(&b.transpose().unwrap()).unwrap()
        );
        let c = Tensor::random_uniform(vec![4, 7], 1.0, &mut rng);
        assert_eq!(
            a.transpose_a_matmul(&c).unwrap(),
            a.transpose().unwrap().matmul(&c).unwrap()
        );
        // n == 1 fast path of transpose_a_matmul.
        let v = Tensor::random_uniform(vec![4, 1], 1.0, &mut rng);
        assert_eq!(
            a.transpose_a_matmul(&v).unwrap(),
            a.transpose().unwrap().matmul(&v).unwrap()
        );
        assert!(a.matmul_transpose_b(&c).is_err());
        assert!(a.transpose_a_matmul(&b).is_err());
    }

    #[test]
    fn matmul_into_reuses_destination() {
        let mut rng = StdRng::seed_from_u64(29);
        let a = Tensor::random_uniform(vec![3, 4], 1.0, &mut rng);
        let b = Tensor::random_uniform(vec![4, 5], 1.0, &mut rng);
        let mut out = Tensor::full(vec![9, 9], 7.0); // stale garbage, larger
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        // Shrinking and regrowing keeps results correct.
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out.shape(), &[3, 5]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.get2(0, 1), 4.0);
        let back = t.transpose().unwrap();
        assert_eq!(back, a);
        assert!(Tensor::zeros(vec![2]).transpose().is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let r = a.clone().reshape(vec![3, 2]).unwrap();
        assert_eq!(r.as_slice(), a.as_slice());
        assert!(a.clone().reshape(vec![4, 2]).is_err());
    }

    #[test]
    fn argmax_and_max() {
        let a = Tensor::from_vec(vec![4], vec![0.1, 0.7, 0.3, 0.5]).unwrap();
        assert_eq!(a.argmax(), 1);
        assert!((a.max() - 0.7).abs() < 1e-6);
    }

    #[test]
    fn random_uniform_respects_limit() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::random_uniform(vec![100], 0.25, &mut rng);
        assert!(t.as_slice().iter().all(|&x| x.abs() <= 0.25));
        // Not all identical.
        assert!(t
            .as_slice()
            .iter()
            .any(|&x| (x - t.as_slice()[0]).abs() > 1e-9));
    }

    #[test]
    fn im2col_2x2_kernel_matches_paper_example() {
        // Paper Eq. (2): a 2×2 kernel over a 2×2 activation patch is a single
        // 4-element dot product.
        let input = Tensor::from_vec(vec![1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let spec = Im2colSpec {
            in_channels: 1,
            height: 2,
            width: 2,
            kernel: 2,
            stride: 1,
        };
        let cols = im2col(&input, &spec).unwrap();
        assert_eq!(cols.shape(), &[1, 4]);
        assert_eq!(cols.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        // Dot with the kernel [k1..k4] gives k1 a1 + k2 a2 + k3 a3 + k4 a4.
        let kernel = Tensor::from_vec(vec![4], vec![0.5, 0.25, 0.125, 1.0]).unwrap();
        let flat = Tensor::from_vec(vec![4], cols.as_slice().to_vec()).unwrap();
        let y = flat.dot(&kernel).unwrap();
        assert!((y - (0.5 + 0.5 + 0.375 + 4.0)).abs() < 1e-6);
    }

    #[test]
    fn im2col_shapes_and_stride() {
        let input = Tensor::from_vec(vec![2, 4, 4], (0..32).map(|x| x as f32).collect()).unwrap();
        let spec = Im2colSpec {
            in_channels: 2,
            height: 4,
            width: 4,
            kernel: 2,
            stride: 2,
        };
        assert_eq!(spec.out_height(), 2);
        assert_eq!(spec.out_width(), 2);
        assert_eq!(spec.column_length(), 8);
        let cols = im2col(&input, &spec).unwrap();
        assert_eq!(cols.shape(), &[4, 8]);
        // First column of the first patch is the top-left pixel of channel 0.
        assert_eq!(cols.get2(0, 0), 0.0);
        // Wrong input shape is rejected.
        let bad = Tensor::zeros(vec![1, 4, 4]);
        assert!(im2col(&bad, &spec).is_err());
    }

    #[test]
    fn im2col_variants_agree_with_reference() {
        let mut rng = StdRng::seed_from_u64(31);
        for (c, h, w, kernel, stride) in [(1, 5, 5, 3, 1), (2, 6, 4, 2, 2), (3, 7, 7, 3, 2)] {
            let input = Tensor::random_uniform(vec![c, h, w], 1.0, &mut rng);
            let spec = Im2colSpec {
                in_channels: c,
                height: h,
                width: w,
                kernel,
                stride,
            };
            let naive = reference::im2col_naive(&input, &spec).unwrap();
            let fast = im2col(&input, &spec).unwrap();
            assert_eq!(fast, naive);
            let mut transposed = Tensor::default();
            im2col_transposed_into(&input, &spec, &mut transposed).unwrap();
            assert_eq!(transposed, naive.transpose().unwrap());
        }
    }

    #[test]
    fn im2col_kernel_larger_than_input_gives_empty_output() {
        let spec = Im2colSpec {
            in_channels: 1,
            height: 2,
            width: 2,
            kernel: 3,
            stride: 1,
        };
        assert_eq!(spec.out_height(), 0);
        assert_eq!(spec.out_width(), 0);
    }
}
