//! Electronic platform reference data (Fig. 7 and Table III).
//!
//! The paper takes its CPU/GPU/electronic-accelerator numbers from the Capra
//! et al. survey ("An updated survey of efficient hardware architectures for
//! accelerating deep convolutional neural networks", Future Internet 2020)
//! rather than simulating those platforms; this module records the same
//! literature values so the comparison tables can be regenerated.

use serde::{Deserialize, Serialize};

/// One electronic platform row of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ElectronicPlatform {
    /// Platform name as printed in the paper.
    pub name: &'static str,
    /// Average energy per bit in pJ/bit (Table III column 2).
    pub avg_epb_pj: f64,
    /// Average performance per watt in kFPS/W (Table III column 3).
    pub avg_kfps_per_watt: f64,
    /// Nominal board/chip power in watts (used for the Fig. 7 power
    /// comparison; vendor TDP figures).
    pub power_watts: f64,
}

/// Nvidia Tesla P100 GPU.
pub const P100: ElectronicPlatform = ElectronicPlatform {
    name: "P100",
    avg_epb_pj: 971.31,
    avg_kfps_per_watt: 24.9,
    power_watts: 300.0,
};

/// Intel Xeon Platinum 9282 CPU.
pub const IXP_9282: ElectronicPlatform = ElectronicPlatform {
    name: "IXP 9282",
    avg_epb_pj: 5099.68,
    avg_kfps_per_watt: 2.39,
    power_watts: 400.0,
};

/// AMD Threadripper 3970x CPU.
pub const AMD_TR: ElectronicPlatform = ElectronicPlatform {
    name: "AMD-TR",
    avg_epb_pj: 5831.18,
    avg_kfps_per_watt: 2.09,
    power_watts: 280.0,
};

/// DaDianNao ASIC accelerator.
pub const DADIANNAO: ElectronicPlatform = ElectronicPlatform {
    name: "DaDianNao",
    avg_epb_pj: 58.33,
    avg_kfps_per_watt: 0.65,
    power_watts: 15.9,
};

/// Google Edge TPU.
pub const EDGE_TPU: ElectronicPlatform = ElectronicPlatform {
    name: "Edge TPU",
    avg_epb_pj: 697.37,
    avg_kfps_per_watt: 17.53,
    power_watts: 2.0,
};

/// NullHop FPGA accelerator.
pub const NULL_HOP: ElectronicPlatform = ElectronicPlatform {
    name: "Null Hop",
    avg_epb_pj: 2727.43,
    avg_kfps_per_watt: 4.48,
    power_watts: 3.2,
};

/// All electronic platforms in the order Table III lists them.
#[must_use]
pub fn all_platforms() -> [ElectronicPlatform; 6] {
    [P100, IXP_9282, AMD_TR, DADIANNAO, EDGE_TPU, NULL_HOP]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_values_are_recorded_verbatim() {
        assert_eq!(P100.avg_epb_pj, 971.31);
        assert_eq!(P100.avg_kfps_per_watt, 24.9);
        assert_eq!(IXP_9282.avg_epb_pj, 5099.68);
        assert_eq!(AMD_TR.avg_kfps_per_watt, 2.09);
        assert_eq!(DADIANNAO.avg_epb_pj, 58.33);
        assert_eq!(EDGE_TPU.avg_kfps_per_watt, 17.53);
        assert_eq!(NULL_HOP.avg_epb_pj, 2727.43);
        assert_eq!(all_platforms().len(), 6);
    }

    #[test]
    fn gpu_and_edge_tpu_beat_the_cpus_in_efficiency() {
        for cpu in [IXP_9282, AMD_TR] {
            assert!(P100.avg_kfps_per_watt > cpu.avg_kfps_per_watt);
            assert!(EDGE_TPU.avg_kfps_per_watt > cpu.avg_kfps_per_watt);
            assert!(P100.avg_epb_pj < cpu.avg_epb_pj);
        }
    }
}
