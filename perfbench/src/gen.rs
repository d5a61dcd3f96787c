//! Seeded request generators.  The program under test only ever sees the
//! requests these produce; the same seed always gives the same sequence.

use crosslight_core::variants::CrossLightVariant;
use crosslight_experiments::fig6_design_space::dense_candidates;
use crosslight_neural::zoo::PaperModel;
use crosslight_server::loadgen::LoadGenOptions;
use crosslight_server::wire::{EvalSpec, WorkloadRef};

/// SplitMix64: a tiny, fully specified PRNG, so the generated inputs do not
/// depend on any RNG the program itself ships.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent stream `stream` of the run seeded with `seed`.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut mixer = Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        Self(mixer.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The 64-scenario paper pool (every variant × Table I model × two
/// architectures × two resolutions).
pub fn paper_pool() -> Vec<EvalSpec> {
    LoadGenOptions::paper_mix(1, 1, 0).scenarios
}

/// Zipf(s = 1) over `n` ranks.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let weights: Vec<f64> = (1..=n).map(|rank| 1.0 / rank as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    /// Probability of the top rank: `1 / H_n`.
    #[cfg(test)]
    pub fn top_share(&self) -> f64 {
        self.cdf[0]
    }

    /// A 0-based rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `warm_mix` / `routed_mix` traffic: Zipf-skewed draws from the paper
/// pool.  Popularity follows pool order (scenario 0 is the hottest) for
/// every seed, so the hot keys land on the same workers and backends in
/// every run; the seed draws the request sequence.
#[derive(Debug, Clone)]
pub struct MixPlan {
    pub pool: Vec<EvalSpec>,
    zipf: Zipf,
    seed: u64,
}

impl MixPlan {
    pub fn new(seed: u64) -> Self {
        let pool = paper_pool();
        Self {
            zipf: Zipf::new(pool.len()),
            pool,
            seed,
        }
    }

    /// The request stream of connection `conn`.
    pub fn stream(&self, conn: usize) -> MixStream<'_> {
        MixStream {
            plan: self,
            rng: SplitMix64::stream(self.seed, conn as u64),
        }
    }
}

#[derive(Debug)]
pub struct MixStream<'a> {
    plan: &'a MixPlan,
    rng: SplitMix64,
}

impl MixStream<'_> {
    /// The next request as `(pool index, spec)`.
    pub fn next_request(&mut self) -> (u32, EvalSpec) {
        let scenario = self.plan.zipf.sample(&mut self.rng);
        (scenario as u32, self.plan.pool[scenario].clone())
    }
}

/// Resolutions of the `dse_sweep` pool.
pub const SWEEP_BITS: [u32; 2] = [8, 16];
/// Unit counts of the model-cache pre-warm, outside the dense grid's 10–150.
const PREWARM_UNITS: usize = 5;
/// Keys per dense-grid candidate: variants × models × resolutions.
pub const KEYS_PER_CANDIDATE: usize = 4 * 4 * SWEEP_BITS.len();

/// `dse_sweep` traffic: a seeded shuffle of the dense Fig. 6 grid × 4
/// variants × 4 Table I models × {8, 16} bits, drawn without replacement.
/// Connection `c` of `n` takes shuffle positions `c, c + n, c + 2n, …`.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    candidates: Vec<(usize, usize, usize, usize)>,
    order: Vec<u32>,
    connections: usize,
}

impl SweepPlan {
    pub fn new(seed: u64, connections: usize) -> Self {
        let candidates = dense_candidates();
        let keys = u32::try_from(candidates.len() * KEYS_PER_CANDIDATE)
            .expect("the sweep pool fits in u32 keys");
        let mut order: Vec<u32> = (0..keys).collect();
        SplitMix64::stream(seed, u64::MAX - 1).shuffle(&mut order);
        Self {
            candidates,
            order,
            connections: connections.max(1),
        }
    }

    pub fn pool_len(&self) -> usize {
        self.order.len()
    }

    /// The spec of pool key `key`.
    pub fn spec(&self, key: u32) -> EvalSpec {
        let key = key as usize;
        let dims = self.candidates[key / KEYS_PER_CANDIDATE];
        let rest = key % KEYS_PER_CANDIDATE;
        let variant = CrossLightVariant::all()[rest / 8];
        let model = PaperModel::all()[(rest / 2) % 4];
        let bits = SWEEP_BITS[rest % 2];
        EvalSpec::crosslight(variant, dims, bits, WorkloadRef::Model(model))
    }

    /// Specs that fill a fresh server's model cache for every `(N, K)` of the
    /// grid under every variant and resolution, at unit counts the grid never
    /// uses (`n = m = 5`), so no pool key is ever answered from the result
    /// cache.
    pub fn model_prewarm(&self) -> Vec<EvalSpec> {
        let sizes: std::collections::BTreeSet<(usize, usize)> =
            self.candidates.iter().map(|&(n, k, _, _)| (n, k)).collect();
        let mut specs = Vec::new();
        for (n, k) in sizes {
            for variant in CrossLightVariant::all() {
                for bits in SWEEP_BITS {
                    specs.push(EvalSpec::crosslight(
                        variant,
                        (n, k, PREWARM_UNITS, PREWARM_UNITS),
                        bits,
                        WorkloadRef::Model(PaperModel::all()[0]),
                    ));
                }
            }
        }
        specs
    }

    /// The request stream of connection `conn`.
    pub fn stream(&self, conn: usize) -> SweepStream<'_> {
        SweepStream {
            plan: self,
            position: conn,
        }
    }
}

#[derive(Debug)]
pub struct SweepStream<'a> {
    plan: &'a SweepPlan,
    position: usize,
}

impl SweepStream<'_> {
    /// The next request as `(pool key, spec)`, or `None` once this
    /// connection's share of the pool (≈936 k keys of two) is spent.
    pub fn next_request(&mut self) -> Option<(u32, EvalSpec)> {
        let key = *self.plan.order.get(self.position)?;
        self.position += self.plan.connections;
        Some((key, self.plan.spec(key)))
    }
}

/// One connection's request source.
#[derive(Debug)]
pub enum Source<'a> {
    Mix(MixStream<'a>),
    Sweep(SweepStream<'a>),
}

impl Source<'_> {
    /// The next request, or `None` once the source has run dry (only a
    /// sweep does).
    pub fn next_request(&mut self) -> Option<(u32, EvalSpec)> {
        match self {
            Source::Mix(stream) => Some(stream.next_request()),
            Source::Sweep(stream) => stream.next_request(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(source: &mut Source<'_>, n: usize) -> Vec<(u32, EvalSpec)> {
        (0..n).map(|_| source.next_request().unwrap()).collect()
    }

    #[test]
    fn same_seed_gives_identical_request_sequences() {
        let (a, b, c) = (MixPlan::new(7), MixPlan::new(7), MixPlan::new(8));
        for conn in 0..2 {
            let first = take(&mut Source::Mix(a.stream(conn)), 500);
            assert_eq!(first, take(&mut Source::Mix(b.stream(conn)), 500));
            assert_ne!(first, take(&mut Source::Mix(c.stream(conn)), 500));
        }
        assert_ne!(
            take(&mut Source::Mix(a.stream(0)), 100),
            take(&mut Source::Mix(a.stream(1)), 100)
        );

        let (a, b, c) = (
            SweepPlan::new(7, 2),
            SweepPlan::new(7, 2),
            SweepPlan::new(8, 2),
        );
        for conn in 0..2 {
            let first = take(&mut Source::Sweep(a.stream(conn)), 500);
            assert_eq!(first, take(&mut Source::Sweep(b.stream(conn)), 500));
            assert_ne!(first, take(&mut Source::Sweep(c.stream(conn)), 500));
        }
    }

    #[test]
    fn sweep_pool_never_repeats_a_key() {
        let plan = SweepPlan::new(3, 2);
        assert_eq!(plan.pool_len(), 58_500 * KEYS_PER_CANDIDATE);
        // The shuffle is a permutation of the key space …
        let mut seen = vec![false; plan.pool_len()];
        for &key in &plan.order {
            assert!(!std::mem::replace(&mut seen[key as usize], true));
        }
        // … and distinct keys name distinct specs.
        let mut specs = std::collections::HashSet::new();
        for key in 0..plan.pool_len() as u32 {
            assert!(specs.insert(format!("{:?}", plan.spec(key))));
        }
        // The model-cache pre-warm never touches a pool key.
        let warm = plan.model_prewarm();
        assert_eq!(warm.len(), 10 * 26 * 4 * SWEEP_BITS.len());
        for spec in &warm {
            assert!(!specs.contains(&format!("{spec:?}")));
        }
        // The connections' interleaved streams partition the shuffle, and
        // each runs dry at the end of its share instead of repeating a key.
        let mut drawn = std::collections::HashSet::new();
        for conn in 0..2 {
            let mut source = Source::Sweep(plan.stream(conn));
            while let Some((key, _)) = source.next_request() {
                assert!(drawn.insert(key));
            }
        }
        assert_eq!(drawn.len(), plan.pool_len());
    }

    #[test]
    fn zipf_top_scenario_gets_its_predicted_share() {
        let plan = MixPlan::new(11);
        let expected = 1.0 / (1..=64).map(|r| 1.0 / f64::from(r)).sum::<f64>();
        assert!((plan.zipf.top_share() - expected).abs() < 1e-12);
        let draws = 200_000;
        let mut stream = plan.stream(0);
        let hot = (0..draws).filter(|_| stream.next_request().0 == 0).count();
        let share = hot as f64 / draws as f64;
        // Binomial standard error at n = 200k is ≈0.0009; allow 5σ.
        assert!(
            (share - expected).abs() < 0.0046,
            "top share {share} vs predicted {expected}"
        );
    }

    #[test]
    fn every_generated_request_is_a_valid_spec() {
        let plan = MixPlan::new(1);
        assert_eq!(plan.pool.len(), 64);
        for spec in &plan.pool {
            spec.arch.to_arch_spec().expect("paper scenarios are valid");
        }
        let sweep = SweepPlan::new(1, 2);
        for key in (0..sweep.pool_len() as u32).step_by(7) {
            sweep
                .spec(key)
                .arch
                .to_arch_spec()
                .expect("every dense-grid point is a valid architecture");
        }
    }
}
