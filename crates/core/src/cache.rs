//! Memoized analytical-model layer.
//!
//! The workload-independent halves of the simulator — per-unit power reports
//! (laser, tuning with its 15×15 TED eigendecomposition, detection,
//! conversion), accelerator power/area, and achievable resolution — are pure
//! functions of small sub-configurations that repeat heavily across
//! design-space grids.  A unit report depends on one unit size, so an
//! `(N, K, n, m)` sweep contains one distinct unit per CONV size and one per
//! FC size; a resolution input carries both sizes, so it contains one per
//! distinct `(N, K)` pair.  The dense Fig. 6 grid needs 36 unit reports
//! (10 CONV plus 26 FC sizes) and 260 resolutions.  [`ModelCache`] memoizes
//! those results by their canonical sub-config keys ([`crate::canonical`]),
//! so a sweep pays for each distinct sub-model once instead of once per grid
//! point.  Below the unit reports it memoizes each bank design's tuning
//! power — nearly all of a unit report's cost, and independent of the unit
//! size — so the dense grid pays one eigensolve, not 36.  The bank memo is
//! internal: it moves no counter.
//!
//! The cache is transparent: every model is deterministic, so a hit returns
//! exactly the value a fresh computation would produce and cached evaluation
//! is bit-identical to the uncached paths (`CrossLightSimulator::prepare`,
//! `accelerator_power`, `achievable_resolution_bits`) — the core test suite
//! enforces this with exact equality over all paper variants.
//!
//! One memoized prepared simulator per full configuration sits on top, so
//! a configuration asked for again costs one map probe.  A sweep rarely
//! asks twice, so that memo is a [`BoundedMap`] of
//! [`PREPARED_BUDGET_BYTES`]: once full, it admits a configuration only on
//! its second touch and evicts by CLOCK (see [`crate::bounded`]).  The
//! unit, resolution and bank memos stay unbounded; they hold one entry per
//! unit size, `(N, K)` pair and bank design.  All four memos hash their
//! keys with [`WordHash`], seeded once per process.
//!
//! [`ModelCache`] is `Sync`: one instance can back many threads (the
//! runtime's `EvalService` shares one across its server's event loops and
//! a batch's shards, and the parallel Fig. 6 sweep shares one across its
//! scoped threads).  Values are computed
//! outside the short-lived map locks, so two threads racing on the same key
//! may both compute — they insert the same bits, and neither blocks the
//! other's unrelated lookups.

use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crosslight_photonics::units::MilliWatts;

use crate::area::{accelerator_area, AcceleratorArea};
use crate::bounded::{BoundedMap, Fingerprint, WordHash};
use crate::canonical::{ConfigKey, DesignKey, ResolutionKey, VdpUnitKey};
use crate::config::CrossLightConfig;
use crate::error::Result;
use crate::power::{accelerator_power_from_unit_reports, AcceleratorPower};
use crate::resolution::achievable_resolution_bits;
use crate::simulator::PreparedSimulator;
use crate::vdp::{VdpUnit, VdpUnitReport};

/// The most bytes of prepared simulators one [`ModelCache`] holds: 2 674
/// configurations on 64-bit targets (the paper mix needs 8).
pub const PREPARED_BUDGET_BYTES: usize = 1 << 20;

/// A prepared simulator's charge: it owns no heap bytes.
const PREPARED_CHARGE: usize = BoundedMap::<ConfigKey, PreparedSimulator>::ENTRY_BYTES;

/// The seed of the word hash `prepared`'s doorkeeper records a
/// configuration by: fixed, so the memo admits the same configurations
/// from run to run.  It is not [`ConfigKey::fingerprint`], the FNV-1a
/// hash that wire-visible keys are built on.
const DOORKEEPER_SEED: u64 = 0x243f_6a88_85a3_08d3;

impl Fingerprint for ConfigKey {
    fn fingerprint(&self) -> u64 {
        WordHash::with_seed(DOORKEEPER_SEED).hash_one(self)
    }
}

/// Point-in-time hit/miss counters of a [`ModelCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelCacheStats {
    /// Lookups answered from a memoized value.
    pub hits: u64,
    /// Lookups that computed a fresh value.
    pub misses: u64,
    /// Distinct VDP unit reports currently memoized.
    pub unit_reports: usize,
    /// Distinct resolution results currently memoized.
    pub resolutions: usize,
    /// Prepared simulators currently memoized, at most
    /// [`PREPARED_BUDGET_BYTES`]' worth.
    pub prepared_configs: usize,
}

impl ModelCacheStats {
    /// Fraction of lookups served from the cache (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Memoizes the workload-independent analytical models by canonical
/// sub-config key; see the module docs.
#[derive(Debug)]
pub struct ModelCache {
    /// Per-bank tuning power by `(mrs_per_bank, design)`, what
    /// [`VdpUnit::report`]'s eigensolve reads.
    banks: Mutex<HashMap<(usize, DesignKey), MilliWatts, WordHash>>,
    units: Mutex<HashMap<VdpUnitKey, VdpUnitReport, WordHash>>,
    resolutions: Mutex<HashMap<ResolutionKey, u32, WordHash>>,
    prepared: Mutex<BoundedMap<ConfigKey, PreparedSimulator>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for ModelCache {
    fn default() -> Self {
        Self {
            banks: Mutex::default(),
            units: Mutex::default(),
            resolutions: Mutex::default(),
            prepared: Mutex::new(BoundedMap::new(PREPARED_BUDGET_BYTES)),
            hits: AtomicU64::default(),
            misses: AtomicU64::default(),
        }
    }
}

impl ModelCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn record(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Memoized [`VdpUnit::report`]: the unit key only involves the unit size,
    /// bank size and design choices, so every grid point sharing a `(N or K,
    /// design)` sub-configuration shares one report.  A missed report is
    /// built around its bank design's memoized tuning power.
    ///
    /// # Errors
    ///
    /// Propagates unit-model errors (which do not occur for valid units).
    pub fn unit_report(&self, unit: &VdpUnit) -> Result<VdpUnitReport> {
        let key = unit.canonical_key();
        if let Some(report) = self
            .units
            .lock()
            .expect("unit-report cache lock poisoned")
            .get(&key)
        {
            self.record(true);
            return Ok(*report);
        }
        let bank_key = (unit.mrs_per_bank, unit.design.canonical_key());
        let memoized = self
            .banks
            .lock()
            .expect("bank cache lock poisoned")
            .get(&bank_key)
            .copied();
        let bank_tuning_power = match memoized {
            Some(power) => power,
            None => {
                let power = unit.bank_tuning_power()?;
                self.banks
                    .lock()
                    .expect("bank cache lock poisoned")
                    .insert(bank_key, power);
                power
            }
        };
        let report = unit.report_with_bank(bank_tuning_power)?;
        self.units
            .lock()
            .expect("unit-report cache lock poisoned")
            .insert(key, report);
        self.record(false);
        Ok(report)
    }

    /// Accelerator power built from memoized unit reports — bit-identical to
    /// [`accelerator_power`](crate::power::accelerator_power) (same combine
    /// path, same per-unit values).
    ///
    /// # Errors
    ///
    /// Propagates unit-model errors (which do not occur for valid
    /// configurations).
    pub fn power(&self, config: &CrossLightConfig) -> Result<AcceleratorPower> {
        let conv_unit = self.unit_report(&VdpUnit::conv_unit(config))?;
        let fc_unit = self.unit_report(&VdpUnit::fc_unit(config))?;
        Ok(accelerator_power_from_unit_reports(
            config, &conv_unit, &fc_unit,
        ))
    }

    /// Accelerator area.  The area model is a handful of multiplications —
    /// cheaper than a map probe — so it is computed directly; it is memoized
    /// as part of the [`PreparedSimulator`] that [`ModelCache::prepare`]
    /// caches per configuration.
    #[must_use]
    pub fn area(&self, config: &CrossLightConfig) -> AcceleratorArea {
        accelerator_area(config)
    }

    /// Memoized
    /// [`achievable_resolution_bits`](crate::resolution::achievable_resolution_bits),
    /// keyed by the resolution model's actual inputs ([`ResolutionKey`]), so
    /// an architecture grid that never changes the design or unit sizes pays
    /// for one crosstalk analysis in total.
    ///
    /// # Errors
    ///
    /// Propagates crosstalk-analysis errors (which do not occur for valid
    /// configurations).
    pub fn resolution_bits(&self, config: &CrossLightConfig) -> Result<u32> {
        let key = ResolutionKey::from(config);
        if let Some(bits) = self
            .resolutions
            .lock()
            .expect("resolution cache lock poisoned")
            .get(&key)
        {
            self.record(true);
            return Ok(*bits);
        }
        let bits = achievable_resolution_bits(config)?;
        self.resolutions
            .lock()
            .expect("resolution cache lock poisoned")
            .insert(key, bits);
        self.record(false);
        Ok(bits)
    }

    /// Memoized [`CrossLightSimulator::prepare`]: a hit is one map probe; a
    /// miss assembles the prepared simulator from the (themselves memoized)
    /// power and resolution models, and offers it to the bounded memo.
    /// Bit-identical to an uncached `prepare`.
    ///
    /// [`CrossLightSimulator::prepare`]: crate::simulator::CrossLightSimulator::prepare
    ///
    /// # Errors
    ///
    /// Propagates model errors (which do not occur for valid configurations).
    pub fn prepare(&self, config: &CrossLightConfig) -> Result<PreparedSimulator> {
        let key = config.canonical_key();
        let memoized = self
            .prepared
            .lock()
            .expect("prepared cache lock poisoned")
            .get(&key)
            .copied();
        if let Some(prepared) = memoized {
            self.record(true);
            return Ok(prepared);
        }
        let prepared = PreparedSimulator::from_parts(
            *config,
            self.power(config)?,
            self.area(config),
            self.resolution_bits(config)?,
        );
        self.prepared
            .lock()
            .expect("prepared cache lock poisoned")
            .insert(key, prepared, PREPARED_CHARGE, drop);
        self.record(false);
        Ok(prepared)
    }

    /// Snapshot of the cache counters.
    #[must_use]
    pub fn stats(&self) -> ModelCacheStats {
        ModelCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            unit_reports: self
                .units
                .lock()
                .expect("unit-report cache lock poisoned")
                .len(),
            resolutions: self
                .resolutions
                .lock()
                .expect("resolution cache lock poisoned")
                .len(),
            prepared_configs: self
                .prepared
                .lock()
                .expect("prepared cache lock poisoned")
                .len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::accelerator_power;
    use crate::simulator::CrossLightSimulator;
    use crate::variants::CrossLightVariant;

    #[test]
    fn cached_models_are_bit_identical_to_fresh_ones() {
        let cache = ModelCache::new();
        for variant in CrossLightVariant::all() {
            let config = variant.config();
            for _ in 0..2 {
                assert_eq!(
                    cache.power(&config).unwrap(),
                    accelerator_power(&config).unwrap()
                );
                assert_eq!(cache.area(&config), accelerator_area(&config));
                assert_eq!(
                    cache.resolution_bits(&config).unwrap(),
                    achievable_resolution_bits(&config).unwrap()
                );
                assert_eq!(
                    cache.prepare(&config).unwrap(),
                    CrossLightSimulator::new(config).prepare().unwrap()
                );
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.prepared_configs, 4);
        assert!(stats.hits > stats.misses, "second pass must hit: {stats:?}");
        assert!(stats.hit_rate() > 0.5);
    }

    #[test]
    fn grid_points_share_unit_reports_across_unit_counts() {
        let cache = ModelCache::new();
        let base = CrossLightConfig::paper_best();
        for (n_units, m_units) in [(50, 30), (100, 60), (150, 90)] {
            let mut config = base;
            config.conv_units = n_units;
            config.fc_units = m_units;
            cache.prepare(&config).unwrap();
        }
        let stats = cache.stats();
        // Three grid points, one (N, K) pair: one conv + one fc report.
        assert_eq!(stats.unit_reports, 2);
        assert_eq!(stats.resolutions, 1);
        assert_eq!(stats.prepared_configs, 3);
    }

    #[test]
    fn a_dense_grid_pays_one_bank_eigensolve() {
        let cache = ModelCache::new();
        let design = CrossLightConfig::paper_best().design;
        let mut grid = Vec::new();
        for n_size in (2..=20).step_by(2) {
            for k_size in (50..=300).step_by(10) {
                for n_units in (10..=150).step_by(10) {
                    for m_units in (10..=150).step_by(10) {
                        let config =
                            CrossLightConfig::new(n_size, k_size, n_units, m_units, design)
                                .unwrap();
                        cache.prepare(&config).unwrap();
                        grid.push(config);
                    }
                }
            }
        }
        // 10 CONV sizes and 26 FC sizes share one bank design.
        assert_eq!(cache.stats().unit_reports, 36);
        assert_eq!(cache.banks.lock().unwrap().len(), 1);
        // The 58 500 configurations overflow the prepared memo, which holds
        // what its budget allows.
        assert_eq!(grid.len(), 58_500);
        let held = cache.stats().prepared_configs;
        assert_eq!(held, PREPARED_BUDGET_BYTES / PREPARED_CHARGE);
        // Held or not, a configuration prepares bit-identically.
        for config in grid.iter().step_by(97) {
            assert_eq!(
                cache.prepare(config).unwrap(),
                CrossLightSimulator::new(*config).prepare().unwrap()
            );
        }
        assert!(cache.stats().prepared_configs <= held);
    }

    #[test]
    fn the_doorkeeper_fingerprint_never_reads_the_process_seed() {
        let key = CrossLightConfig::paper_best().canonical_key();
        assert_eq!(Fingerprint::fingerprint(&key), 0x02b7_d4b6_b0a4_821f);
    }

    #[test]
    fn empty_cache_reports_zeroed_stats() {
        let stats = ModelCache::new().stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.hit_rate(), 0.0);
    }
}
