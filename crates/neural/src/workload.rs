//! Extraction of the photonic dot-product workload of a network.
//!
//! CrossLight splits inference work into two pools: CONV-layer dot products
//! (short vectors, huge counts) run on the `n` CONV VDP units, and FC-layer
//! dot products (long vectors, modest counts) run on the `m` FC VDP units
//! (paper §IV.C).  A [`NetworkWorkload`] is the accelerator-facing summary of
//! one model: the list of dot-product jobs per layer, split by kind.

use serde::{Deserialize, Serialize};

use crate::error::Result;
use crate::layers::{DotProductWorkload, LayerKind};
use crate::model::Sequential;
use crate::zoo::ModelSpec;

/// The dot-product workload of one inference of one network.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NetworkWorkload {
    /// Network name.
    pub name: String,
    /// Dot-product jobs contributed by convolution layers (one entry per
    /// layer).
    pub conv_layers: Vec<DotProductWorkload>,
    /// Dot-product jobs contributed by fully connected layers.
    pub fc_layers: Vec<DotProductWorkload>,
    /// Number of identical towers executed per inference (e.g. 2 for a
    /// Siamese network).
    pub towers: usize,
}

impl NetworkWorkload {
    /// Builds the workload of a full-size Table I model.
    ///
    /// # Errors
    ///
    /// Propagates shape-composition errors from the spec.
    pub fn from_spec(spec: &ModelSpec) -> Result<Self> {
        let mut conv_layers = Vec::new();
        let mut fc_layers = Vec::new();
        for (kind, work) in spec.layer_workloads()? {
            match kind {
                LayerKind::Convolution => conv_layers.push(work),
                LayerKind::FullyConnected => fc_layers.push(work),
                _ => {}
            }
        }
        Ok(Self {
            name: spec.name.clone(),
            conv_layers,
            fc_layers,
            towers: spec.towers,
        })
    }

    /// Builds the workload of a concrete trainable [`Sequential`] network.
    ///
    /// # Errors
    ///
    /// Propagates shape-composition errors from the model summary.
    pub fn from_sequential(model: &Sequential) -> Result<Self> {
        let mut conv_layers = Vec::new();
        let mut fc_layers = Vec::new();
        for layer in model.summary()? {
            if let Some(work) = layer.dot_products {
                match layer.kind {
                    LayerKind::Convolution => conv_layers.push(work),
                    LayerKind::FullyConnected => fc_layers.push(work),
                    _ => {}
                }
            }
        }
        Ok(Self {
            name: model.name().to_string(),
            conv_layers,
            fc_layers,
            towers: 1,
        })
    }

    /// Total multiply–accumulate operations per inference (all towers).
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        let per_tower: u64 = self
            .conv_layers
            .iter()
            .chain(self.fc_layers.iter())
            .map(|w| w.macs() as u64)
            .sum();
        per_tower * self.towers as u64
    }

    /// Bytes this workload owns on the heap: its name's and both layer
    /// lists' capacities.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.name.capacity()
            + (self.conv_layers.capacity() + self.fc_layers.capacity())
                * std::mem::size_of::<DotProductWorkload>()
    }

    /// Platform-stable 64-bit fingerprint of the workload (name, per-layer
    /// dot-product jobs and tower count), used by the runtime layer as a
    /// cache-routing key.  Equal workloads always fingerprint equally; the
    /// converse is only probabilistic, so callers must still compare values.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        crate::fingerprint::fingerprint(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
    use crate::zoo::PaperModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn workload_from_lenet_spec() {
        let spec = PaperModel::Lenet5SignMnist.spec();
        let w = NetworkWorkload::from_spec(&spec).unwrap();
        assert_eq!(w.conv_layers.len(), 2);
        assert_eq!(w.fc_layers.len(), 2);
        assert_eq!(w.towers, 1);
        // First conv: 6 output channels over 24×24 positions, 25-long dots.
        assert_eq!(w.conv_layers[0].dot_length, 25);
        assert_eq!(w.conv_layers[0].dot_count, 6 * 24 * 24);
        assert!(w.total_macs() > 100_000);
    }

    #[test]
    fn siamese_towers_double_the_compute() {
        let spec = PaperModel::SiameseOmniglot.spec();
        let w = NetworkWorkload::from_spec(&spec).unwrap();
        assert_eq!(w.towers, 2);
        let single_tower: u64 = w
            .conv_layers
            .iter()
            .chain(w.fc_layers.iter())
            .map(|l| l.macs() as u64)
            .sum();
        assert_eq!(w.total_macs(), 2 * single_tower);
    }

    #[test]
    fn workload_from_sequential_matches_summary() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = Sequential::new("seq", vec![1, 10, 10]);
        model.push(Box::new(Conv2d::new(1, 4, 3, 1, &mut rng).unwrap()));
        model.push(Box::new(Relu::new()));
        model.push(Box::new(MaxPool2d::new(2).unwrap()));
        model.push(Box::new(Flatten::new()));
        model.push(Box::new(Dense::new(64, 10, &mut rng).unwrap()));
        let w = NetworkWorkload::from_sequential(&model).unwrap();
        assert_eq!(w.conv_layers.len(), 1);
        assert_eq!(w.fc_layers.len(), 1);
        assert_eq!(w.conv_layers[0].dot_count, 4 * 64);
        assert_eq!(w.fc_layers[0].dot_length, 64);
        assert_eq!(w.total_macs(), (9 * 4 * 64 + 64 * 10) as u64);
    }

    #[test]
    fn fingerprints_are_deterministic_and_distinguish_models() {
        let a = NetworkWorkload::from_spec(&PaperModel::Lenet5SignMnist.spec()).unwrap();
        let b = NetworkWorkload::from_spec(&PaperModel::Lenet5SignMnist.spec()).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        for model in [
            PaperModel::CnnCifar10,
            PaperModel::CnnStl10,
            PaperModel::SiameseOmniglot,
        ] {
            let other = NetworkWorkload::from_spec(&model.spec()).unwrap();
            assert_ne!(a.fingerprint(), other.fingerprint());
        }
    }

    #[test]
    fn empty_pools_report_zero_lengths() {
        let w = NetworkWorkload {
            name: "empty".into(),
            conv_layers: vec![],
            fc_layers: vec![],
            towers: 1,
        };
        assert_eq!(w.total_macs(), 0);
    }
}
