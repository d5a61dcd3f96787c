//! Optoelectronic periphery devices.
//!
//! These are the non-resonator devices every noncoherent photonic accelerator
//! needs (paper Fig. 1 and Fig. 3): Mach–Zehnder modulators to imprint
//! activations, VCSELs to regenerate partial sums into the optical domain,
//! photodetectors and balanced photodetectors to perform summation,
//! transimpedance amplifiers, and the ADC/DAC transceivers that bridge to the
//! electronic control unit.  The latency and power numbers are those of the
//! paper's Table II.

use serde::{Deserialize, Serialize};

use crate::units::{Dbm, MilliWatts, Seconds};

/// Latency and power of a single optoelectronic device instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Time for the device to perform its operation once.
    pub latency: Seconds,
    /// Static + dynamic power drawn while active.
    pub power: MilliWatts,
}

impl DeviceSpec {
    /// Creates a spec from a latency and power.
    #[must_use]
    pub fn new(latency: Seconds, power: MilliWatts) -> Self {
        Self { latency, power }
    }
}

/// Vertical-cavity surface-emitting laser used to regenerate partial sums into
/// the optical domain (Table II: 10 ns, 0.66 mW).
#[must_use]
pub fn vcsel() -> DeviceSpec {
    DeviceSpec::new(Seconds::from_nanos(10.0), MilliWatts::new(0.66))
}

/// Transimpedance amplifier following each photodetector
/// (Table II: 0.15 ns, 7.2 mW).
#[must_use]
pub fn tia() -> DeviceSpec {
    DeviceSpec::new(Seconds::from_nanos(0.15), MilliWatts::new(7.2))
}

/// Photodetector performing optical-domain summation
/// (Table II: 5.8 ps, 2.8 mW).
#[must_use]
pub fn photodetector() -> DeviceSpec {
    DeviceSpec::new(Seconds::from_picos(5.8), MilliWatts::new(2.8))
}

/// Electro-optic tuner spec (Table II: 20 ns latency; power is per-nm and
/// handled by the tuning crate, so the power field holds 0 here).
#[must_use]
pub fn eo_tuner_latency() -> Seconds {
    Seconds::from_nanos(20.0)
}

/// Thermo-optic tuner latency (Table II: 4 µs).
#[must_use]
pub fn to_tuner_latency() -> Seconds {
    Seconds::from_micros(4.0)
}

/// Photodetector sensitivity floor used in the laser-power model, Eq. (7).
///
/// A −20 dBm sensitivity is typical of the Si-Ge avalanche photodiodes cited
/// by the paper (Table II reference [34]).
#[must_use]
pub fn photodetector_sensitivity() -> Dbm {
    Dbm::new(-20.0)
}

/// ADC/DAC-based transceiver from the paper's reference [37]: a 1-to-56 Gb/s
/// PAM-4 transceiver consuming below 250 mW at the maximum rate.
///
/// The accelerator uses one transceiver lane per VDP arm to convert partial
/// sums; power is scaled linearly with the operating rate relative to the
/// 56 Gb/s peak.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transceiver {
    /// Peak data rate supported by the transceiver.
    pub max_rate_gbps: f64,
    /// Power consumed when operating at the peak rate.
    pub max_power: MilliWatts,
}

impl Transceiver {
    /// The ISSCC 2019 1-to-56 Gb/s transceiver used by the paper.
    #[must_use]
    pub fn isscc2019() -> Self {
        Self {
            max_rate_gbps: 56.0,
            max_power: MilliWatts::new(250.0),
        }
    }

    /// Power consumed when operating at `rate_gbps`, clamped to the peak rate.
    #[must_use]
    pub fn power_at_rate(&self, rate_gbps: f64) -> MilliWatts {
        let rate = rate_gbps.clamp(0.0, self.max_rate_gbps);
        self.max_power * (rate / self.max_rate_gbps)
    }

    /// Energy per bit at `rate_gbps` in picojoules per bit.
    #[must_use]
    pub fn energy_per_bit_pj(&self, rate_gbps: f64) -> f64 {
        if rate_gbps <= 0.0 {
            return 0.0;
        }
        // mW / Gbps = pJ/bit.
        self.power_at_rate(rate_gbps).value() / rate_gbps.min(self.max_rate_gbps)
    }
}

impl Default for Transceiver {
    fn default() -> Self {
        Self::isscc2019()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_values() {
        assert!((vcsel().latency.to_nanos() - 10.0).abs() < 1e-9);
        assert!((vcsel().power.value() - 0.66).abs() < 1e-12);
        assert!((tia().latency.to_nanos() - 0.15).abs() < 1e-9);
        assert!((tia().power.value() - 7.2).abs() < 1e-12);
        assert!((photodetector().latency.value() - 5.8e-12).abs() < 1e-20);
        assert!((photodetector().power.value() - 2.8).abs() < 1e-12);
        assert!((eo_tuner_latency().to_nanos() - 20.0).abs() < 1e-9);
        assert!((to_tuner_latency().to_micros() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn photodetector_latency_is_much_faster_than_tuning() {
        assert!(photodetector().latency.value() < eo_tuner_latency().value());
        assert!(eo_tuner_latency().value() < to_tuner_latency().value());
    }

    #[test]
    fn transceiver_power_scales_with_rate() {
        let t = Transceiver::isscc2019();
        assert!((t.power_at_rate(56.0).value() - 250.0).abs() < 1e-9);
        assert!((t.power_at_rate(28.0).value() - 125.0).abs() < 1e-9);
        // Clamped above the peak rate.
        assert!((t.power_at_rate(100.0).value() - 250.0).abs() < 1e-9);
        assert_eq!(t.power_at_rate(0.0).value(), 0.0);
    }

    #[test]
    fn transceiver_energy_per_bit() {
        let t = Transceiver::isscc2019();
        // 250 mW at 56 Gb/s ≈ 4.46 pJ/bit.
        assert!((t.energy_per_bit_pj(56.0) - 250.0 / 56.0).abs() < 1e-9);
        assert_eq!(t.energy_per_bit_pj(0.0), 0.0);
        // Because power scales linearly with rate, pJ/bit is constant within
        // the supported range.
        assert!((t.energy_per_bit_pj(10.0) - t.energy_per_bit_pj(56.0)).abs() < 1e-9);
    }
}
