//! Memoizing result cache, sharded to keep lock contention off the hot path.
//!
//! The cache key is *exact*: [`CacheKey`] pairs the bit-exact
//! [`ArchKey`](crosslight_core::canonical::ArchKey) of the architecture
//! with the full workload (compared structurally on lookup), so a hit always
//! returns the report the simulator would have computed — caching can change
//! latency, never results.  Keys also expose a platform-stable
//! [`fingerprint`](CacheKey::fingerprint) used both to pick a shard here and
//! to pick the service's worker, so all requests for one key land on one
//! worker and one shard deterministically.
//!
//! CrossLight keys hash exactly as they did before the architecture zoo
//! existed ([`ArchKey`] streams a bare `ConfigKey` for the CrossLight arm),
//! so fingerprints, shard indices and worker routes for CrossLight traffic
//! are bit-identical to the pre-zoo runtime.
//!
//! The cache holds at most [`RESULT_BUDGET_BYTES`], split evenly over its
//! shards, each a [`BoundedMap`]: below its share a shard admits every
//! insert; at it, a key is admitted only on its second touch, evicting by
//! CLOCK.  A design sweep's one-hit points are refused by a bitset test
//! instead of growing the cache, and never displace the keys clients hit.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crosslight_telemetry::Counter;

use crosslight_baselines::ArchSpec;
use crosslight_core::bounded::{BoundedMap, Fingerprint, Insert};
use crosslight_core::canonical::{ArchKey, ConfigKey};
use crosslight_core::config::CrossLightConfig;
use crosslight_core::simulator::SimulationReport;
use crosslight_neural::fingerprint::StableHasher;
use crosslight_neural::workload::NetworkWorkload;

/// Exact identity of one `(architecture, workload)` evaluation.
///
/// The routing fingerprint is computed once at construction; the hot path
/// (worker selection, shard selection, map lookups) only reads it.
#[derive(Debug, Clone)]
pub struct CacheKey {
    arch: ArchKey,
    workload: Arc<NetworkWorkload>,
    fingerprint: u64,
}

impl CacheKey {
    /// Builds the key for a CrossLight configuration/workload pair.
    #[must_use]
    pub fn new(config: &CrossLightConfig, workload: Arc<NetworkWorkload>) -> Self {
        Self::from_arch_key(ArchKey::CrossLight(config.canonical_key()), workload)
    }

    /// Builds the key for any architecture in the zoo.
    #[must_use]
    pub fn for_arch(arch: &ArchSpec, workload: Arc<NetworkWorkload>) -> Self {
        Self::from_arch_key(arch.canonical_key(), workload)
    }

    fn from_arch_key(arch: ArchKey, workload: Arc<NetworkWorkload>) -> Self {
        let mut hasher = StableHasher::new();
        arch.hash(&mut hasher);
        workload.hash(&mut hasher);
        Self {
            arch,
            workload,
            fingerprint: hasher.finish(),
        }
    }

    /// The canonical CrossLight configuration component of the key, when the
    /// key names a CrossLight design point.
    #[must_use]
    pub fn config_key(&self) -> Option<ConfigKey> {
        self.arch.config_key().copied()
    }

    /// Platform-stable 64-bit routing hash of the key, identical across
    /// processes and architectures.  Used for shard and worker selection;
    /// equality still compares the full key.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &Self) -> bool {
        self.fingerprint == other.fingerprint
            && self.arch == other.arch
            && *self.workload == *other.workload
    }
}

impl Eq for CacheKey {}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Equal keys have equal fingerprints (the fingerprint is a pure
        // function of the contents), so hashing only the precomputed value
        // is consistent with `Eq` and keeps map lookups O(1) in key size.
        state.write_u64(self.fingerprint);
    }
}

impl Fingerprint for CacheKey {
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// A sharded `CacheKey → SimulationReport` map with hit/miss counters.
///
/// The counters are telemetry [`Counter`] handles so the service can adopt
/// them into its metrics registry without changing ownership; the cache
/// stays the single writer.  `evictions` counts the entries a full shard
/// evicted to admit a second-touch key.
///
/// An entry is charged its slot and index bytes plus its workload's heap
/// bytes ([`NetworkWorkload::heap_bytes`]).  A paper model's workload is
/// one `Arc` shared by every key, so that over-counts it; an inline
/// workload is a fresh one per request, so charging it keeps a stream of
/// large inline frames bounded too.
///
/// Each entry also holds one slot for a caller's encoding of its report,
/// filled on the entry's first inline hit (`EvalService::answer`)
/// while the encodings held fit in `MEMO_BUDGET_BYTES`.  An empty slot is
/// one thin pointer, 8 bytes.  A filled one holds a server's eval-answer
/// tail: 570–649 bytes for the dense Fig. 6 sweep's reports, about 700
/// bytes of resident memory with its allocations, so the budget fills at
/// about 14 000 entries.  An evicted or replaced entry returns its
/// encoding's bytes to that budget.  The cache never reads the bytes.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Mutex<BoundedMap<CacheKey, Entry>>>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    /// Bytes of memoized encodings held, at most `MEMO_BUDGET_BYTES`.
    memo_bytes: AtomicUsize,
}

/// The most bytes of entries one cache holds, `1 / shards` of it in each
/// shard: at 552–614 bytes per paper-model entry on 64-bit targets, some
/// 29 000 entries.
pub const RESULT_BUDGET_BYTES: usize = 16 << 20;

/// The most bytes of callers' encodings one cache memoizes.  Without a
/// bound a warm server re-serving a long sweep would keep an encoding for
/// nearly every entry; past the budget, a hit on an entry without one is
/// encoded afresh each time.
pub(crate) const MEMO_BUDGET_BYTES: usize = 8 << 20;

/// What [`ShardedCache::get_inline`] finds for a cached key.
#[derive(Debug)]
pub(crate) enum Cached {
    /// The caller's encoding, memoized on the entry.
    Encoded(Arc<String>),
    /// The report, before its first encoding is memoized.
    Report(SimulationReport),
}

/// One cached report and the slot for its encoding.
#[derive(Debug)]
struct Entry {
    report: SimulationReport,
    encoded: Option<Arc<String>>,
}

impl Entry {
    fn new(report: SimulationReport) -> Self {
        Self {
            report,
            encoded: None,
        }
    }

    /// Bytes of the memoized encoding this entry holds.
    fn memo_bytes(&self) -> usize {
        self.encoded.as_ref().map_or(0, |encoded| encoded.len())
    }
}

/// An entry's charge against its shard's budget.
fn charge(key: &CacheKey) -> usize {
    BoundedMap::<CacheKey, Entry>::ENTRY_BYTES + key.workload.heap_bytes()
}

impl ShardedCache {
    /// Creates a cache with `shards` independent locks (at least one),
    /// holding at most [`RESULT_BUDGET_BYTES`].
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self::with_budget(shards, RESULT_BUDGET_BYTES)
    }

    fn with_budget(shards: usize, budget: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(BoundedMap::new(budget / shards)))
                .collect(),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            memo_bytes: AtomicUsize::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<BoundedMap<CacheKey, Entry>> {
        let index = (key.fingerprint() % self.shards.len() as u64) as usize;
        &self.shards[index]
    }

    /// Looks up a key, counting the outcome as a hit or miss.
    #[must_use]
    pub fn get(&self, key: &CacheKey) -> Option<SimulationReport> {
        let found = self
            .shard(key)
            .lock()
            .expect("cache shard lock poisoned")
            .get(key)
            .map(|entry| entry.report);
        match found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// Looks up a key for `EvalService::answer`: the encoding memoized on
    /// its entry, or its report while none is stored.  Counts the outcome
    /// as a hit or miss, as [`ShardedCache::get`] does.
    pub(crate) fn get_inline(&self, key: &CacheKey) -> Option<Cached> {
        let found = self
            .shard(key)
            .lock()
            .expect("cache shard lock poisoned")
            .get(key)
            .map(|entry| match &entry.encoded {
                Some(encoded) => Cached::Encoded(Arc::clone(encoded)),
                None => Cached::Report(entry.report),
            });
        match found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// Memoizes a caller's encoding on the entry of `key`, unless the entry
    /// already holds one or the encoding would overrun `MEMO_BUDGET_BYTES`.
    pub(crate) fn memoize(&self, key: &CacheKey, encoded: &Arc<String>) {
        let cost = encoded.len();
        let reserved = self
            .memo_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |held| {
                (held + cost <= MEMO_BUDGET_BYTES).then_some(held + cost)
            });
        if reserved.is_err() {
            return;
        }
        let mut shard = self.shard(key).lock().expect("cache shard lock poisoned");
        match shard.get(key) {
            Some(entry) if entry.encoded.is_none() => entry.encoded = Some(Arc::clone(encoded)),
            _ => {
                self.memo_bytes.fetch_sub(cost, Ordering::Relaxed);
            }
        }
    }

    /// Stores a computed report under its key, unless its shard is full
    /// and this is the key's first touch there; returns whether the key is
    /// held.  Counts what the shard evicts to admit it.  An evicted entry,
    /// or a replaced one (same-wake duplicates each insert), frees its
    /// encoding's share of the memo budget.
    pub fn insert(&self, key: CacheKey, report: SimulationReport) -> bool {
        let charge = charge(&key);
        let (mut evicted, mut freed) = (0, 0);
        let outcome = self
            .shard(&key)
            .lock()
            .expect("cache shard lock poisoned")
            .insert(key, Entry::new(report), charge, |entry| {
                evicted += 1;
                freed += entry.memo_bytes();
            });
        if let Insert::Replaced(entry) = &outcome {
            freed += entry.memo_bytes();
        }
        if evicted > 0 {
            self.evictions.add(evicted);
        }
        if freed > 0 {
            self.memo_bytes.fetch_sub(freed, Ordering::Relaxed);
        }
        !matches!(outcome, Insert::Refused)
    }

    /// Number of cached entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock poisoned").len())
            .sum()
    }

    /// Returns `true` when no entries are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that missed and required evaluation.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// The live hit counter, for adoption into a metrics registry.
    #[must_use]
    pub fn hit_counter(&self) -> &Counter {
        &self.hits
    }

    /// The live miss counter, for adoption into a metrics registry.
    #[must_use]
    pub fn miss_counter(&self) -> &Counter {
        &self.misses
    }

    /// The live eviction counter, for adoption into a metrics registry.
    #[must_use]
    pub fn eviction_counter(&self) -> &Counter {
        &self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crosslight_core::simulator::CrossLightSimulator;
    use crosslight_core::variants::CrossLightVariant;
    use crosslight_neural::zoo::PaperModel;

    fn workload(model: PaperModel) -> Arc<NetworkWorkload> {
        Arc::new(NetworkWorkload::from_spec(&model.spec()).unwrap())
    }

    #[test]
    fn equal_pairs_collide_and_perturbed_pairs_do_not() {
        let w = workload(PaperModel::CnnCifar10);
        let a = CacheKey::new(&CrossLightConfig::paper_best(), Arc::clone(&w));
        let b = CacheKey::new(&CrossLightConfig::paper_best(), Arc::clone(&w));
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());

        let other_config = CacheKey::new(&CrossLightVariant::Base.config(), Arc::clone(&w));
        assert_ne!(a, other_config);

        let other_workload = CacheKey::new(
            &CrossLightConfig::paper_best(),
            workload(PaperModel::CnnStl10),
        );
        assert_ne!(a, other_workload);
        assert_ne!(a.fingerprint(), other_workload.fingerprint());
    }

    #[test]
    fn cache_round_trips_reports_and_counts_outcomes() {
        let cache = ShardedCache::new(4);
        let w = workload(PaperModel::Lenet5SignMnist);
        let key = CacheKey::new(&CrossLightConfig::paper_best(), Arc::clone(&w));
        assert!(cache.get(&key).is_none());
        assert!(cache.is_empty());

        let report = CrossLightSimulator::new(CrossLightConfig::paper_best())
            .evaluate(&w)
            .unwrap();
        cache.insert(key.clone(), report);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key), Some(report));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn memoized_encodings_stay_within_the_budget() {
        let cache = ShardedCache::new(4);
        let w = workload(PaperModel::CnnCifar10);
        let report = CrossLightSimulator::new(CrossLightConfig::paper_best())
            .evaluate(&w)
            .unwrap();
        let keys: Vec<CacheKey> = (1..=12)
            .map(|units| {
                let mut config = CrossLightConfig::paper_best();
                config.conv_units = units;
                CacheKey::new(&config, Arc::clone(&w))
            })
            .collect();
        let quarter = Arc::new("x".repeat(MEMO_BUDGET_BYTES / 4));
        for key in &keys {
            cache.insert(key.clone(), report);
            assert!(matches!(cache.get_inline(key), Some(Cached::Report(_))));
            cache.memoize(key, &quarter);
        }
        let memoized = keys
            .iter()
            .filter(|key| matches!(cache.get_inline(key), Some(Cached::Encoded(_))))
            .count();
        assert_eq!(memoized, 4, "the budget holds four quarters");
        assert_eq!(cache.memo_bytes.load(Ordering::Relaxed), MEMO_BUDGET_BYTES);
        assert_eq!((cache.hits(), cache.misses()), (24, 0));

        // Re-inserting a memoized key drops its encoding and frees its
        // bytes for another entry.
        cache.insert(keys[0].clone(), report);
        assert!(matches!(
            cache.get_inline(&keys[0]),
            Some(Cached::Report(_))
        ));
        cache.memoize(&keys[11], &quarter);
        assert!(matches!(
            cache.get_inline(&keys[11]),
            Some(Cached::Encoded(_))
        ));
        assert_eq!(cache.memo_bytes.load(Ordering::Relaxed), MEMO_BUDGET_BYTES);
    }

    /// Eight keys of one workload, so every entry has the same charge.
    fn eight_keys() -> (Vec<CacheKey>, SimulationReport) {
        let w = workload(PaperModel::CnnCifar10);
        let report = CrossLightSimulator::new(CrossLightConfig::paper_best())
            .evaluate(&w)
            .unwrap();
        let keys = (1..=8)
            .map(|units| {
                let mut config = CrossLightConfig::paper_best();
                config.conv_units = units;
                CacheKey::new(&config, Arc::clone(&w))
            })
            .collect();
        (keys, report)
    }

    #[test]
    fn a_full_cache_evicts_on_second_touches_and_frees_their_memo_bytes() {
        let (keys, report) = eight_keys();
        let cache = ShardedCache::with_budget(1, 4 * charge(&keys[0]));
        let tail = Arc::new("x".repeat(600));
        for key in &keys[..4] {
            cache.insert(key.clone(), report);
            assert!(matches!(cache.get_inline(key), Some(Cached::Report(_))));
            cache.memoize(key, &tail);
        }
        assert_eq!(cache.memo_bytes.load(Ordering::Relaxed), 4 * tail.len());

        for (admitted, key) in keys[4..].iter().enumerate() {
            // A first touch at the budget is refused ...
            cache.insert(key.clone(), report);
            assert_eq!(cache.len(), 4);
            assert_eq!(cache.eviction_counter().get(), admitted as u64);
            // ... and a second evicts one entry, the oldest: the hand
            // cleared the four hit entries' bits on its first pass.
            cache.insert(key.clone(), report);
            assert_eq!(cache.len(), 4);
            assert_eq!(cache.eviction_counter().get(), admitted as u64 + 1);
            assert_eq!(cache.get(&keys[admitted]), None);
            assert_eq!(cache.get(key), Some(report));
            assert_eq!(
                cache.memo_bytes.load(Ordering::Relaxed),
                (3 - admitted) * tail.len(),
                "an evicted entry returns its tail's bytes"
            );
        }
    }

    #[test]
    fn zero_shards_is_clamped() {
        let cache = ShardedCache::new(0);
        assert!(cache.is_empty());
    }

    #[test]
    fn crosslight_keys_are_identical_to_their_pre_zoo_hash_stream() {
        // `CacheKey::new` must keep producing the exact fingerprint the
        // pre-zoo runtime computed (ConfigKey bytes then workload bytes), so
        // shard indices and worker routes for CrossLight traffic never move.
        let w = workload(PaperModel::SiameseOmniglot);
        let config = CrossLightConfig::paper_best();
        let via_config = CacheKey::new(&config, Arc::clone(&w));
        let mut hasher = StableHasher::new();
        config.canonical_key().hash(&mut hasher);
        w.hash(&mut hasher);
        assert_eq!(via_config.fingerprint(), hasher.finish());

        // The arch-aware constructor agrees for the CrossLight arm.
        let via_arch = CacheKey::for_arch(&ArchSpec::CrossLight(config), Arc::clone(&w));
        assert_eq!(via_config, via_arch);
        assert_eq!(via_config.fingerprint(), via_arch.fingerprint());
        assert_eq!(via_arch.config_key(), Some(config.canonical_key()));
    }

    #[test]
    fn zoo_backends_get_distinct_keys_per_workload() {
        let w = workload(PaperModel::Lenet5SignMnist);
        let mut fingerprints = std::collections::HashSet::new();
        for spec in ArchSpec::zoo_defaults() {
            let key = CacheKey::for_arch(&spec, Arc::clone(&w));
            assert!(fingerprints.insert(key.fingerprint()), "{}", spec.label());
            if spec.crosslight_config().is_none() {
                assert_eq!(key.config_key(), None);
            }
        }
        // Same backend, different workload → different key.
        let a = CacheKey::for_arch(&ArchSpec::zoo_defaults()[1], Arc::clone(&w));
        let b = CacheKey::for_arch(
            &ArchSpec::zoo_defaults()[1],
            workload(PaperModel::CnnCifar10),
        );
        assert_ne!(a, b);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
