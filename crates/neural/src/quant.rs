//! Uniform symmetric fake-quantization of weights and activations.
//!
//! The paper's Fig. 5 sweeps weight/activation resolution from 1 to 16 bits
//! (using QKeras quantization-aware training) and shows how model accuracy
//! collapses below a model-dependent threshold.  This module provides the
//! quantizer used to reproduce that study: values are snapped to a uniform
//! symmetric grid whose scale is the tensor's absolute maximum.

use serde::{Deserialize, Serialize};

use crate::layers::fake_quantize_slice;
use crate::tensor::Tensor;

/// Weight/activation bit-width configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QuantConfig {
    /// Bits used for weights and biases.
    pub weight_bits: u32,
    /// Bits used for activations.
    pub activation_bits: u32,
}

impl QuantConfig {
    /// Creates a configuration with distinct weight and activation widths.
    #[must_use]
    pub fn new(weight_bits: u32, activation_bits: u32) -> Self {
        Self {
            weight_bits,
            activation_bits,
        }
    }

    /// Creates a configuration using the same width for weights and
    /// activations, as the paper's Fig. 5 does.
    #[must_use]
    pub fn uniform(bits: u32) -> Self {
        Self::new(bits, bits)
    }

    /// Quantizes an activation tensor to `activation_bits`.
    #[must_use]
    pub fn quantize_activations(&self, tensor: &Tensor) -> Tensor {
        let mut out = tensor.clone();
        self.quantize_activations_in_place(&mut out);
        out
    }

    /// Quantizes an activation tensor to `activation_bits` in place,
    /// allocation-free (used by the quantized forward pass on its reused
    /// activation buffers).
    pub fn quantize_activations_in_place(&self, tensor: &mut Tensor) {
        fake_quantize_slice(tensor.as_mut_slice(), self.activation_bits);
    }
}

impl Default for QuantConfig {
    fn default() -> Self {
        // The paper's headline CrossLight resolution.
        Self::uniform(16)
    }
}

/// Worst-case quantization error (half a step) for values in `[-max_abs,
/// max_abs]` quantized to `bits`.
#[must_use]
pub fn quantization_error_bound(max_abs: f32, bits: u32) -> f32 {
    if bits == 0 {
        return max_abs;
    }
    if bits >= 24 {
        return 0.0;
    }
    let levels = (1u64 << (bits - 1)) as f32;
    max_abs / levels / 2.0 + max_abs / levels * 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_config_sets_both_widths() {
        let q = QuantConfig::uniform(8);
        assert_eq!(q.weight_bits, 8);
        assert_eq!(q.activation_bits, 8);
        assert_eq!(QuantConfig::default().weight_bits, 16);
    }

    #[test]
    fn activation_quantization_respects_error_bound() {
        let values: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.21).sin()).collect();
        let t = Tensor::from_vec(vec![64], values.clone()).unwrap();
        for bits in [2u32, 4, 8, 12] {
            let q = QuantConfig::uniform(bits);
            let out = q.quantize_activations(&t);
            let bound = quantization_error_bound(1.0, bits);
            for (a, b) in values.iter().zip(out.as_slice()) {
                assert!(
                    (a - b).abs() <= bound + 1e-6,
                    "{bits}-bit error {} exceeds bound {bound}",
                    (a - b).abs()
                );
            }
        }
    }

    #[test]
    fn error_shrinks_monotonically_with_bits() {
        let mut previous = f32::INFINITY;
        for bits in 1..=16 {
            let bound = quantization_error_bound(1.0, bits);
            assert!(bound < previous);
            previous = bound;
        }
        assert_eq!(quantization_error_bound(1.0, 24), 0.0);
        assert_eq!(quantization_error_bound(0.7, 0), 0.7);
    }
}
