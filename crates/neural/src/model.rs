//! Sequential network container.

use crate::error::{NeuralError, Result};
use crate::layers::{DotProductWorkload, Layer, LayerKind};
use crate::quant::QuantConfig;
use crate::tensor::Tensor;

/// A feed-forward network built as an ordered list of layers.
///
/// # Example
///
/// ```
/// use crosslight_neural::layers::{Dense, Relu};
/// use crosslight_neural::model::Sequential;
/// use crosslight_neural::tensor::Tensor;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), crosslight_neural::error::NeuralError> {
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut model = Sequential::new("tiny", vec![4]);
/// model.push(Box::new(Dense::new(4, 8, &mut rng)?));
/// model.push(Box::new(Relu::new()));
/// model.push(Box::new(Dense::new(8, 3, &mut rng)?));
/// let logits = model.forward(&Tensor::zeros(vec![4]))?;
/// assert_eq!(logits.shape(), &[3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Sequential {
    name: String,
    input_shape: Vec<usize>,
    layers: Vec<Box<dyn Layer>>,
    /// Ping-pong activation/gradient buffers threaded through the layers by
    /// the `_into` passes; they grow once to the largest intermediate shape
    /// and are reused for every subsequent sample (zero steady-state
    /// allocations).
    ping: Tensor,
    pong: Tensor,
}

/// Structural summary of one layer within a [`Sequential`] network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSummary {
    /// Layer name.
    pub name: String,
    /// Layer kind.
    pub kind: LayerKind,
    /// Trainable parameter count.
    pub parameters: usize,
    /// Output shape for the network's input shape.
    pub output_shape: Vec<usize>,
    /// Photonic dot-product workload of the layer, if any.
    pub dot_products: Option<DotProductWorkload>,
}

impl Sequential {
    /// Creates an empty network with a name and an expected input shape.
    #[must_use]
    pub fn new(name: impl Into<String>, input_shape: Vec<usize>) -> Self {
        Self {
            name: name.into(),
            input_shape,
            layers: Vec::new(),
            ping: Tensor::default(),
            pong: Tensor::default(),
        }
    }

    /// Returns the network's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the expected input shape.
    #[must_use]
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Appends a layer to the network.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Returns the number of layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` when the network has no layers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total number of trainable parameters.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.parameter_count()).sum()
    }

    /// Runs a forward pass on one sample.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let mut output = Tensor::default();
        self.forward_into(input, &mut output)?;
        Ok(output)
    }

    /// Runs a forward pass on one sample into a caller-owned output tensor.
    ///
    /// Intermediate activations ping-pong between two persistent internal
    /// buffers, so in steady state (same input shape) the whole pass performs
    /// zero heap allocations.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    pub fn forward_into(&mut self, input: &Tensor, output: &mut Tensor) -> Result<()> {
        let count = self.layers.len();
        if count == 0 {
            output.copy_from(input);
            return Ok(());
        }
        let mut a = std::mem::take(&mut self.ping);
        let mut b = std::mem::take(&mut self.pong);
        let mut status = Ok(());
        for (idx, layer) in self.layers.iter_mut().enumerate() {
            let result = match (idx == 0, idx == count - 1) {
                (true, true) => layer.forward_into(input, output),
                (true, false) => layer.forward_into(input, &mut a),
                (false, true) => layer.forward_into(&a, output),
                (false, false) => {
                    let r = layer.forward_into(&a, &mut b);
                    std::mem::swap(&mut a, &mut b);
                    r
                }
            };
            if result.is_err() {
                status = result;
                break;
            }
        }
        self.ping = a;
        self.pong = b;
        status
    }

    /// Runs a forward pass with activation fake-quantization after every
    /// parameterised layer, emulating a `quant_bits.activation_bits`-bit
    /// analog datapath.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    pub fn forward_quantized(&mut self, input: &Tensor, quant: &QuantConfig) -> Result<Tensor> {
        let mut output = Tensor::default();
        self.forward_quantized_into(input, quant, &mut output)?;
        Ok(output)
    }

    /// Destination-buffer form of [`Sequential::forward_quantized`];
    /// quantization happens in place on the ping-pong buffers, so steady
    /// state allocates nothing.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    pub fn forward_quantized_into(
        &mut self,
        input: &Tensor,
        quant: &QuantConfig,
        output: &mut Tensor,
    ) -> Result<()> {
        let count = self.layers.len();
        let mut a = std::mem::take(&mut self.ping);
        let mut b = std::mem::take(&mut self.pong);
        a.copy_from(input);
        quant.quantize_activations_in_place(&mut a);
        if count == 0 {
            output.copy_from(&a);
            self.ping = a;
            self.pong = b;
            return Ok(());
        }
        let mut status = Ok(());
        for (idx, layer) in self.layers.iter_mut().enumerate() {
            let last = idx == count - 1;
            let result = if last {
                layer.forward_into(&a, output)
            } else {
                layer.forward_into(&a, &mut b)
            };
            if result.is_err() {
                status = result;
                break;
            }
            if layer.parameter_count() > 0 {
                if last {
                    quant.quantize_activations_in_place(output);
                } else {
                    quant.quantize_activations_in_place(&mut b);
                }
            }
            if !last {
                std::mem::swap(&mut a, &mut b);
            }
        }
        self.ping = a;
        self.pong = b;
        status
    }

    /// Runs a backward pass, accumulating parameter gradients.
    ///
    /// # Errors
    ///
    /// Propagates shape/state errors from the layers.
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut grad_input = Tensor::default();
        self.backward_into(grad_output, &mut grad_input)?;
        Ok(grad_input)
    }

    /// Runs a backward pass into a caller-owned input-gradient tensor,
    /// reusing the same persistent ping-pong buffers as the forward pass
    /// (zero steady-state allocations).
    ///
    /// # Errors
    ///
    /// Propagates shape/state errors from the layers.
    pub fn backward_into(&mut self, grad_output: &Tensor, grad_input: &mut Tensor) -> Result<()> {
        let count = self.layers.len();
        if count == 0 {
            grad_input.copy_from(grad_output);
            return Ok(());
        }
        let mut a = std::mem::take(&mut self.ping);
        let mut b = std::mem::take(&mut self.pong);
        let mut status = Ok(());
        for (idx, layer) in self.layers.iter_mut().rev().enumerate() {
            let result = match (idx == 0, idx == count - 1) {
                (true, true) => layer.backward_into(grad_output, grad_input),
                (true, false) => layer.backward_into(grad_output, &mut a),
                (false, true) => layer.backward_into(&a, grad_input),
                (false, false) => {
                    let r = layer.backward_into(&a, &mut b);
                    std::mem::swap(&mut a, &mut b);
                    r
                }
            };
            if result.is_err() {
                status = result;
                break;
            }
        }
        self.ping = a;
        self.pong = b;
        status
    }

    /// Applies all accumulated gradients with vanilla SGD.
    pub fn apply_gradients(&mut self, learning_rate: f32) {
        for layer in &mut self.layers {
            layer.apply_gradients(learning_rate);
        }
    }

    /// Clears all accumulated gradients.
    pub fn zero_gradients(&mut self) {
        for layer in &mut self.layers {
            layer.zero_gradients();
        }
    }

    /// Fake-quantizes every layer's parameters in place.
    pub fn quantize_parameters(&mut self, bits: u32) {
        for layer in &mut self.layers {
            layer.quantize_parameters(bits);
        }
    }

    /// Produces a per-layer structural summary (shapes, parameters, photonic
    /// workload), walking the declared input shape through the network.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] if the layers do not compose.
    pub fn summary(&self) -> Result<Vec<LayerSummary>> {
        let mut shape = self.input_shape.clone();
        let mut out = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let dot_products = layer.dot_products(&shape)?;
            let output_shape = layer.output_shape(&shape)?;
            out.push(LayerSummary {
                name: layer.name(),
                kind: layer.kind(),
                parameters: layer.parameter_count(),
                output_shape: output_shape.clone(),
                dot_products,
            });
            shape = output_shape;
        }
        Ok(out)
    }

    /// The output shape of the whole network.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] if the layers do not compose, or
    /// [`NeuralError::InvalidState`] for an empty network.
    pub fn output_shape(&self) -> Result<Vec<usize>> {
        if self.layers.is_empty() {
            return Err(NeuralError::InvalidState {
                reason: "network has no layers".into(),
            });
        }
        Ok(self
            .summary()?
            .last()
            .expect("non-empty network has a last layer")
            .output_shape
            .clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_cnn() -> Sequential {
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = Sequential::new("tiny_cnn", vec![1, 8, 8]);
        model.push(Box::new(Conv2d::new(1, 4, 3, 1, &mut rng).unwrap()));
        model.push(Box::new(Relu::new()));
        model.push(Box::new(MaxPool2d::new(2).unwrap()));
        model.push(Box::new(Flatten::new()));
        model.push(Box::new(Dense::new(4 * 3 * 3, 5, &mut rng).unwrap()));
        model
    }

    #[test]
    fn forward_produces_expected_output_shape() {
        let mut model = tiny_cnn();
        let out = model.forward(&Tensor::zeros(vec![1, 8, 8])).unwrap();
        assert_eq!(out.shape(), &[5]);
        assert_eq!(model.output_shape().unwrap(), vec![5]);
    }

    #[test]
    fn summary_tracks_shapes_and_workloads() {
        let model = tiny_cnn();
        let summary = model.summary().unwrap();
        assert_eq!(summary.len(), 5);
        assert_eq!(summary[0].output_shape, vec![4, 6, 6]);
        assert_eq!(summary[2].output_shape, vec![4, 3, 3]);
        assert_eq!(summary[4].output_shape, vec![5]);
        let conv_work = summary[0].dot_products.unwrap();
        assert_eq!(conv_work.dot_length, 9);
        assert_eq!(conv_work.dot_count, 4 * 36);
        assert!(summary[2].dot_products.is_none());
        let fc_work = summary[4].dot_products.unwrap();
        assert_eq!(fc_work.dot_length, 36);
        assert_eq!(fc_work.dot_count, 5);
    }

    #[test]
    fn parameter_count_sums_layers() {
        let model = tiny_cnn();
        let expected = (4 * 9 + 4) + (36 * 5 + 5);
        assert_eq!(model.parameter_count(), expected);
        assert_eq!(model.len(), 5);
        assert!(!model.is_empty());
    }

    #[test]
    fn backward_and_update_reduce_loss() {
        let mut model = tiny_cnn();
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::random_uniform(vec![1, 8, 8], 1.0, &mut rng);
        let target = 2usize;
        let mut losses = Vec::new();
        for _ in 0..30 {
            let logits = model.forward(&x).unwrap();
            let probs = crate::layers::softmax(&logits);
            losses.push(-probs.as_slice()[target].max(1e-9).ln());
            // dL/dlogits = probs - one_hot(target).
            let mut grad = probs.clone();
            grad.as_mut_slice()[target] -= 1.0;
            model.backward(&grad).unwrap();
            model.apply_gradients(0.05);
        }
        assert!(losses.last().unwrap() < &(losses[0] * 0.5));
    }

    #[test]
    fn quantized_forward_differs_from_full_precision_at_low_bits() {
        let mut model = tiny_cnn();
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::random_uniform(vec![1, 8, 8], 1.0, &mut rng);
        let full = model.forward(&x).unwrap();
        let quant = QuantConfig::new(2, 2);
        let low = model.forward_quantized(&x, &quant).unwrap();
        let diff: f32 = full
            .as_slice()
            .iter()
            .zip(low.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-6, "2-bit activations should perturb the output");
        // 16-bit activations should be near-identical.
        let high = model
            .forward_quantized(&x, &QuantConfig::new(24, 24))
            .unwrap();
        let diff_high: f32 = full
            .as_slice()
            .iter()
            .zip(high.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff_high < 1e-5);
    }

    #[test]
    fn empty_network_output_shape_errors() {
        let model = Sequential::new("empty", vec![4]);
        assert!(model.output_shape().is_err());
        assert!(model.is_empty());
    }
}
