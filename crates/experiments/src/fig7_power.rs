//! E6 — Fig. 7: power-consumption comparison.
//!
//! Compares the four CrossLight variants against the photonic baselines
//! (DEAP-CNN, HolyLight) and the electronic platforms (P100, Xeon Platinum
//! 9282, Threadripper 3970x, DaDianNao, EdgeTPU, NullHop).  The qualitative
//! claims to preserve from the paper: power decreases monotonically from
//! `Cross_base` to `Cross_opt_TED`; `Cross_opt_TED` consumes less power than
//! both photonic baselines and the CPU/GPU platforms, but more than the
//! edge/mobile electronic accelerators.

use serde::{Deserialize, Serialize};

use crosslight_baselines::accelerator::{CrossLightAccelerator, PhotonicAccelerator};
use crosslight_baselines::electronic::all_platforms;
use crosslight_baselines::{DeapCnn, HolyLight};
use crosslight_core::variants::CrossLightVariant;

use crate::report::{fmt_f64, TextTable};
use crate::table_i_workloads;

/// Whether a platform is photonic (simulated here) or an electronic literature
/// reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlatformKind {
    /// A CrossLight variant.
    CrossLight,
    /// A photonic baseline accelerator.
    PhotonicBaseline,
    /// An electronic platform from the literature.
    Electronic,
}

/// One bar of the Fig. 7 power comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerRow {
    /// Platform name.
    pub name: String,
    /// Platform kind.
    pub kind: PlatformKind,
    /// Power in watts.
    pub power_watts: f64,
}

/// The full Fig. 7 comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerComparison {
    /// One row per platform, in the paper's plotting order.
    pub rows: Vec<PowerRow>,
}

impl PowerComparison {
    /// Power of a named platform, if present.
    #[must_use]
    pub fn power_of(&self, name: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.power_watts)
    }

    /// Renders the comparison as a text table.
    #[must_use]
    pub fn table(&self) -> TextTable {
        let mut table = TextTable::new(vec!["platform", "kind", "power (W)"]);
        for row in &self.rows {
            table.push_row(vec![
                row.name.clone(),
                format!("{:?}", row.kind),
                fmt_f64(row.power_watts, 2),
            ]);
        }
        table
    }
}

/// Runs the Fig. 7 power comparison over the four Table I models.
///
/// # Errors
///
/// Propagates accelerator-evaluation errors (which do not occur for the
/// built-in models).
pub fn run() -> Result<PowerComparison, Box<dyn std::error::Error>> {
    let workloads = table_i_workloads()?;

    let mut rows = Vec::new();
    for variant in CrossLightVariant::all() {
        let accelerator = CrossLightAccelerator::new(variant);
        let report = accelerator.evaluate_average(&workloads)?;
        rows.push(PowerRow {
            name: accelerator.name(),
            kind: PlatformKind::CrossLight,
            power_watts: report.power_watts,
        });
    }
    for baseline in [
        Box::new(DeapCnn::new()) as Box<dyn PhotonicAccelerator>,
        Box::new(HolyLight::new()) as Box<dyn PhotonicAccelerator>,
    ] {
        let report = baseline.evaluate_average(&workloads)?;
        rows.push(PowerRow {
            name: baseline.name(),
            kind: PlatformKind::PhotonicBaseline,
            power_watts: report.power_watts,
        });
    }
    for platform in all_platforms() {
        rows.push(PowerRow {
            name: platform.name.to_string(),
            kind: PlatformKind::Electronic,
            power_watts: platform.power_watts,
        });
    }
    Ok(PowerComparison { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_reproduces_the_figure_7_claims() {
        let comparison = run().unwrap();
        let p = |name: &str| comparison.power_of(name).expect(name);

        // The four variants are ordered by how much cross-layer optimization
        // they apply.
        assert!(p("Cross_base") > p("Cross_base_TED"));
        assert!(p("Cross_base") > p("Cross_opt"));
        assert!(p("Cross_base_TED") > p("Cross_opt_TED"));
        assert!(p("Cross_opt") > p("Cross_opt_TED"));

        // Cross_opt_TED beats both photonic baselines and the CPU/GPU
        // platforms…
        for other in ["DEAP_CNN", "Holylight", "P100", "IXP 9282", "AMD-TR"] {
            assert!(
                p("Cross_opt_TED") < p(other),
                "Cross_opt_TED should draw less power than {other}"
            );
        }
        // …but not the edge/mobile electronic accelerators.
        for edge in ["Edge TPU", "Null Hop"] {
            assert!(
                p("Cross_opt_TED") > p(edge),
                "Cross_opt_TED draws more power than {edge}"
            );
        }
    }

    #[test]
    fn every_expected_platform_is_present() {
        let comparison = run().unwrap();
        assert_eq!(comparison.rows.len(), 4 + 2 + 6);
        assert_eq!(comparison.table().len(), 12);
        assert!(comparison.power_of("does not exist").is_none());
    }
}
