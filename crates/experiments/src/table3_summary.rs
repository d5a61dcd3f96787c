//! E8 — Table III: average EPB and performance-per-watt of every platform.
//!
//! Combines the simulated photonic accelerators (averaged over the four
//! Table I models) with the electronic literature references into the paper's
//! summary table, and computes the headline improvement factors of the
//! conclusion (lower EPB and higher kFPS/W than HolyLight).

use serde::{Deserialize, Serialize};

use crosslight_baselines::accelerator::{
    AcceleratorReport, CrossLightAccelerator, PhotonicAccelerator,
};
use crosslight_baselines::electronic::all_platforms;
use crosslight_baselines::{DeapCnn, HolyLight};
use crosslight_core::variants::CrossLightVariant;
use crosslight_neural::workload::NetworkWorkload;
use crosslight_neural::zoo::PaperModel;
use crosslight_runtime::planner::SweepPlanner;
use crosslight_runtime::pool::EvalService;

use crate::report::{fmt_f64, TextTable};
use crate::table_i_workloads;

/// One row of Table III.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryRow {
    /// Platform name.
    pub name: String,
    /// Average energy per bit (pJ/bit).
    pub avg_epb_pj: f64,
    /// Average performance per watt (kFPS/W).
    pub avg_kfps_per_watt: f64,
    /// Whether the row is simulated here (photonic) or taken from the
    /// literature (electronic).
    pub simulated: bool,
}

/// The full Table III reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryTable {
    /// All rows in the paper's order (electronic platforms first, then the
    /// photonic accelerators).
    pub rows: Vec<SummaryRow>,
    /// CrossLight (opt_TED) EPB improvement over HolyLight (paper: 9.5×).
    pub epb_improvement_vs_holylight: f64,
    /// CrossLight (opt_TED) kFPS/W improvement over HolyLight (paper: 15.9×).
    pub ppw_improvement_vs_holylight: f64,
    /// CrossLight (opt_TED) EPB improvement over DEAP-CNN (paper: 1544×).
    pub epb_improvement_vs_deap: f64,
}

impl SummaryTable {
    /// Returns a named row, if present.
    #[must_use]
    pub fn row(&self, name: &str) -> Option<&SummaryRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Renders Table III as a text table.
    #[must_use]
    pub fn table(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "Accelerator",
            "Avg. EPB (pJ/bit)",
            "Avg. kFPS/Watt",
            "source",
        ]);
        for row in &self.rows {
            table.push_row(vec![
                row.name.clone(),
                fmt_f64(row.avg_epb_pj, 2),
                fmt_f64(row.avg_kfps_per_watt, 2),
                if row.simulated {
                    "simulated"
                } else {
                    "literature"
                }
                .to_string(),
            ]);
        }
        table
    }
}

/// Builds the non-CrossLight rows: electronic literature references first,
/// then the simulated DEAP-CNN and HolyLight baselines.
fn baseline_rows(
    workloads: &[NetworkWorkload],
) -> Result<Vec<SummaryRow>, Box<dyn std::error::Error>> {
    let mut rows = Vec::new();
    for platform in all_platforms() {
        rows.push(SummaryRow {
            name: platform.name.to_string(),
            avg_epb_pj: platform.avg_epb_pj,
            avg_kfps_per_watt: platform.avg_kfps_per_watt,
            simulated: false,
        });
    }
    let photonic: Vec<Box<dyn PhotonicAccelerator>> =
        vec![Box::new(DeapCnn::new()), Box::new(HolyLight::new())];
    for accelerator in &photonic {
        let report = accelerator.evaluate_average(workloads)?;
        rows.push(SummaryRow {
            name: accelerator.name(),
            avg_epb_pj: report.energy_per_bit_pj,
            avg_kfps_per_watt: report.kfps_per_watt,
            simulated: true,
        });
    }
    Ok(rows)
}

/// Computes the headline improvement factors and assembles the table.
fn finish(rows: Vec<SummaryRow>) -> SummaryTable {
    let find = |name: &str| -> SummaryRow {
        rows.iter()
            .find(|r| r.name == name)
            .cloned()
            .expect("row exists")
    };
    let opt_ted = find("Cross_opt_TED");
    let holylight = find("Holylight");
    let deap = find("DEAP_CNN");
    SummaryTable {
        epb_improvement_vs_holylight: holylight.avg_epb_pj / opt_ted.avg_epb_pj,
        ppw_improvement_vs_holylight: opt_ted.avg_kfps_per_watt / holylight.avg_kfps_per_watt,
        epb_improvement_vs_deap: deap.avg_epb_pj / opt_ted.avg_epb_pj,
        rows,
    }
}

/// Runs the Table III summary, serially.
///
/// # Errors
///
/// Propagates accelerator-evaluation errors (which do not occur for the
/// built-in models).
pub fn run() -> Result<SummaryTable, Box<dyn std::error::Error>> {
    let workloads = table_i_workloads()?;

    let mut rows = baseline_rows(&workloads)?;
    for variant in CrossLightVariant::all() {
        let report = CrossLightAccelerator::new(variant).evaluate_average(&workloads)?;
        rows.push(SummaryRow {
            name: variant.label().to_string(),
            avg_epb_pj: report.energy_per_bit_pj,
            avg_kfps_per_watt: report.kfps_per_watt,
            simulated: true,
        });
    }
    Ok(finish(rows))
}

/// Runs the Table III summary with the four CrossLight variant rows fanned
/// through the runtime's evaluation service (the electronic and non-
/// CrossLight photonic baselines have no simulator behind them and stay
/// serial).  Bit-identical to [`run`] for any worker count: the simulator
/// reports and the averaging path are shared with the serial adapter.
///
/// # Errors
///
/// Propagates planner/service and accelerator-evaluation errors.
pub fn run_on(service: &EvalService) -> Result<SummaryTable, Box<dyn std::error::Error>> {
    let workloads = table_i_workloads()?;

    let mut rows = baseline_rows(&workloads)?;
    let variants = CrossLightVariant::all();
    let requests = SweepPlanner::new().variants(&variants).plan()?;
    let models = PaperModel::all().len();
    let responses = service.submit_batch(requests)?;
    if responses.len() != variants.len() * models {
        return Err(format!(
            "sweep plan shape drifted: {} responses for {} variants × {} models",
            responses.len(),
            variants.len(),
            models
        )
        .into());
    }
    for (variant, chunk) in variants.iter().zip(responses.chunks(models)) {
        let reports: Vec<AcceleratorReport> = chunk
            .iter()
            .map(|r| AcceleratorReport::from_simulation(&r.report))
            .collect();
        let report = AcceleratorReport::average(&reports)?;
        rows.push(SummaryRow {
            name: variant.label().to_string(),
            avg_epb_pj: report.energy_per_bit_pj,
            avg_kfps_per_watt: report.kfps_per_watt,
            simulated: true,
        });
    }
    Ok(finish(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_contains_all_twelve_platforms() {
        let summary = run().unwrap();
        assert_eq!(summary.rows.len(), 12);
        assert_eq!(summary.table().len(), 12);
        assert!(summary.row("Cross_opt_TED").unwrap().simulated);
        assert!(!summary.row("P100").unwrap().simulated);
        assert!(summary.row("missing").is_none());
    }

    #[test]
    fn runtime_backed_summary_is_bit_identical_to_serial() {
        use crosslight_runtime::pool::RuntimeOptions;
        let serial = run().unwrap();
        let service = EvalService::new(RuntimeOptions::default().with_workers(4));
        let batched = run_on(&service).unwrap();
        assert_eq!(serial, batched);
        // The variant rows rode the runtime: 4 variants × 4 models.
        assert_eq!(service.stats().completed, 16);
    }

    #[test]
    fn headline_improvements_have_the_paper_shape() {
        let summary = run().unwrap();
        // Paper: 9.5× EPB and 15.9× perf/W over HolyLight; 1544× EPB over
        // DEAP-CNN.  The reproduction targets the same order of magnitude.
        assert!(
            summary.epb_improvement_vs_holylight > 3.0
                && summary.epb_improvement_vs_holylight < 40.0,
            "EPB improvement vs HolyLight: {:.1}",
            summary.epb_improvement_vs_holylight
        );
        assert!(
            summary.ppw_improvement_vs_holylight > 3.0
                && summary.ppw_improvement_vs_holylight < 60.0,
            "perf/W improvement vs HolyLight: {:.1}",
            summary.ppw_improvement_vs_holylight
        );
        assert!(
            summary.epb_improvement_vs_deap > 200.0,
            "EPB improvement vs DEAP: {:.0}",
            summary.epb_improvement_vs_deap
        );
    }

    #[test]
    fn crosslight_variants_are_ordered_in_both_metrics() {
        let summary = run().unwrap();
        let epb = |name: &str| summary.row(name).unwrap().avg_epb_pj;
        let ppw = |name: &str| summary.row(name).unwrap().avg_kfps_per_watt;
        assert!(epb("Cross_base") > epb("Cross_base_TED"));
        assert!(epb("Cross_base_TED") > epb("Cross_opt_TED"));
        assert!(epb("Cross_opt") > epb("Cross_opt_TED"));
        assert!(ppw("Cross_base") < ppw("Cross_base_TED"));
        assert!(ppw("Cross_opt") < ppw("Cross_opt_TED"));
    }

    #[test]
    fn photonic_rows_beat_deap_cnn() {
        let summary = run().unwrap();
        let deap = summary.row("DEAP_CNN").unwrap().avg_epb_pj;
        for name in ["Holylight", "Cross_base", "Cross_opt_TED"] {
            assert!(summary.row(name).unwrap().avg_epb_pj < deap);
        }
    }
}
