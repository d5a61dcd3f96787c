//! The sweep engine behind Fig. 5, Fig. 6 and the architecture zoo: a
//! deterministic parallel fold over a slice, and a streaming top-K/Pareto
//! [`Frontier`] whose per-worker parts merge to the same summary whatever
//! the split.

use std::cmp::Ordering;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

/// Runs each worker claims on average: small enough that a worker stuck on
/// a slow run leaves the rest to the others, large enough that the cursor
/// is touched a few dozen times per sweep, not once per item.
const RUNS_PER_WORKER: usize = 8;

/// Folds every item of `items` into a per-worker accumulator and returns
/// the accumulators, at least one.
///
/// Up to `workers` scoped threads claim runs of consecutive indices through
/// one atomic cursor; with `workers <= 1` (or at most one item) the fold
/// runs inline on the caller's thread.  `step` sees each index exactly once
/// unless an item fails.  Which worker folds which run depends on
/// scheduling, so callers either merge the parts with an order-independent
/// merge ([`Frontier::merge`]) or sort by index ([`map`]).
///
/// # Errors
///
/// If several items fail, returns the error of the lowest failing index: a
/// worker stops at its first failure, and every index below it was claimed
/// earlier and folded by a worker that either finished that run or failed
/// lower.
pub(crate) fn fold<T, A, E>(
    items: &[T],
    workers: usize,
    init: impl Fn() -> A + Sync,
    step: impl Fn(&mut A, usize, &T) -> Result<(), E> + Sync,
) -> Result<Vec<A>, E>
where
    T: Sync,
    A: Send,
    E: Send,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        let mut acc = init();
        for (index, item) in items.iter().enumerate() {
            step(&mut acc, index, item)?;
        }
        return Ok(vec![acc]);
    }
    let run = items.len().div_ceil(RUNS_PER_WORKER * workers);
    // The cursor hands out disjoint index ranges and publishes nothing
    // else: items are shared read-only, and results come back through the
    // joins.
    let cursor = AtomicUsize::new(0);
    let worker = || -> Result<A, (usize, E)> {
        let mut acc = init();
        loop {
            let start = cursor.fetch_add(run, AtomicOrdering::Relaxed);
            if start >= items.len() {
                return Ok(acc);
            }
            let end = items.len().min(start + run);
            for (index, item) in (start..end).zip(&items[start..end]) {
                step(&mut acc, index, item).map_err(|e| (index, e))?;
            }
        }
    };
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("sweep worker thread panicked"))
            .collect()
    });
    let mut parts = Vec::with_capacity(workers);
    let mut failures = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(acc) => parts.push(acc),
            Err(failure) => failures.push(failure),
        }
    }
    match failures.into_iter().min_by_key(|&(index, _)| index) {
        Some((_, e)) => Err(e),
        None => Ok(parts),
    }
}

/// Maps every item through `f` on up to `workers` threads ([`fold`]) and
/// returns the results in index order: the same vector a serial map gives,
/// for any worker count.
///
/// # Errors
///
/// Returns the error of the lowest failing index.
pub(crate) fn map<T, R, E>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
{
    let parts = fold(items, workers, Vec::new, |out, index, item| {
        out.push((index, f(item)?));
        Ok(())
    })?;
    let mut indexed: Vec<(usize, R)> = parts.into_iter().flatten().collect();
    indexed.sort_unstable_by_key(|&(index, _)| index);
    Ok(indexed.into_iter().map(|(_, result)| result).collect())
}

/// A sweep result a [`Frontier`] can rank.
pub(crate) trait FrontierPoint: Clone {
    /// The figure of merit the top-K ranks by, higher first.
    fn fom(&self) -> f64;
    /// Whether the point is inside the sweep's constraint (an area cap or a
    /// power budget); only admitted points are ranked.
    fn admitted(&self) -> bool;
    /// Whether `self` Pareto-dominates `other`.  Must be a strict partial
    /// order; a point with a NaN metric should neither dominate nor be
    /// dominated.
    fn dominates(&self, other: &Self) -> bool;
}

/// Best first: figure of merit descending under [`f64::total_cmp`], then
/// index ascending.  A total order, so bitwise ties, NaN and ±inf all rank
/// deterministically.
fn rank<P: FrontierPoint>(a: (usize, &P), b: (usize, &P)) -> Ordering {
    b.1.fom().total_cmp(&a.1.fom()).then(a.0.cmp(&b.0))
}

/// Streaming summary of a sweep in O(top-K + Pareto set) memory: the top-K
/// admitted points by [`rank`], the Pareto set of *all* points, and the
/// counts.
///
/// Both [`Frontier::push`] and [`Frontier::merge`] are order-independent
/// for a fixed assignment of indices: the top-K is a prefix of one total
/// order, and the Pareto set of a set does not depend on insertion order.
/// So any split of one stream into parts, merged in any order, finishes to
/// the summary one serial pass gives.
#[derive(Debug, Clone)]
pub(crate) struct Frontier<P> {
    top_k: usize,
    /// The best `max(top_k, 1)` admitted points, best first: one more than
    /// asked when `top_k` is 0, so the best point is always `top[0]`.
    top: Vec<(usize, P)>,
    pareto: Vec<(usize, P)>,
    evaluated: usize,
    admitted: usize,
}

/// A finished [`Frontier`].
#[derive(Debug)]
pub(crate) struct Summary<P> {
    /// The top-K admitted points, best first.
    pub(crate) top: Vec<P>,
    /// The Pareto set of every point, in index order.
    pub(crate) pareto: Vec<P>,
    /// The best admitted point, if any point was admitted.
    pub(crate) best: Option<P>,
    /// Points pushed.
    pub(crate) evaluated: usize,
    /// Points admitted.
    pub(crate) admitted: usize,
}

impl<P: FrontierPoint> Frontier<P> {
    /// An empty frontier keeping the best `top_k` admitted points.
    pub(crate) fn new(top_k: usize) -> Self {
        Self {
            top_k,
            top: Vec::with_capacity(top_k.saturating_add(1).min(1024)),
            pareto: Vec::new(),
            evaluated: 0,
            admitted: 0,
        }
    }

    /// Folds one point, with its index in the swept slice.
    pub(crate) fn push(&mut self, index: usize, point: P) {
        self.evaluated += 1;
        if point.admitted() {
            self.admitted += 1;
            self.offer_top(index, &point);
        }
        self.offer_pareto(index, point);
    }

    /// Merges a frontier built over a disjoint part of the same stream.
    pub(crate) fn merge(&mut self, other: Self) {
        self.evaluated += other.evaluated;
        self.admitted += other.admitted;
        for (index, point) in &other.top {
            self.offer_top(*index, point);
        }
        for (index, point) in other.pareto {
            self.offer_pareto(index, point);
        }
    }

    fn offer_top(&mut self, index: usize, point: &P) {
        let keep = self.top_k.max(1);
        let at = self
            .top
            .binary_search_by(|(i, p)| rank((*i, p), (index, point)))
            .unwrap_or_else(|at| at);
        if at < keep {
            self.top.insert(at, (index, point.clone()));
            self.top.truncate(keep);
        }
    }

    fn offer_pareto(&mut self, index: usize, point: P) {
        if self.pareto.iter().any(|(_, p)| p.dominates(&point)) {
            return;
        }
        self.pareto.retain(|(_, p)| !point.dominates(p));
        self.pareto.push((index, point));
    }

    /// Finishes the summary: top-K best first, Pareto set in index order.
    pub(crate) fn finish(mut self) -> Summary<P> {
        self.pareto.sort_by_key(|&(index, _)| index);
        let best = self.top.first().map(|(_, p)| p.clone());
        self.top.truncate(self.top_k);
        Summary {
            top: self.top.into_iter().map(|(_, p)| p).collect(),
            pareto: self.pareto.into_iter().map(|(_, p)| p).collect(),
            best,
            evaluated: self.evaluated,
            admitted: self.admitted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn parallel_map_equals_serial_map_and_folds_every_index_once() {
        let mut rng = StdRng::seed_from_u64(16);
        for len in 0..=200 {
            let items: Vec<u64> = (0..len).map(|_| rng.gen()).collect();
            let serial: Vec<u64> = items.iter().map(|x| x.rotate_left(7) ^ 0xC1A0).collect();
            for workers in 1..=9 {
                let mapped = map(&items, workers, |x| Ok::<_, ()>(x.rotate_left(7) ^ 0xC1A0));
                assert_eq!(mapped, Ok(serial.clone()), "{len} items, {workers} workers");

                let parts = fold(&items, workers, Vec::new, |seen, index, item| {
                    assert_eq!(*item, items[index], "step sees the item at its index");
                    seen.push(index);
                    Ok::<_, ()>(())
                })
                .unwrap();
                assert!(!parts.is_empty() && parts.len() <= workers.max(1));
                let mut seen: Vec<usize> = parts.into_iter().flatten().collect();
                seen.sort_unstable();
                assert_eq!(
                    seen,
                    (0..len).collect::<Vec<_>>(),
                    "{len} items, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn the_lowest_failing_index_wins_at_every_worker_count() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for trial in 0..40 {
            let len = rng.gen_range(1..=200usize);
            let failing: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.05)).collect();
            let lowest = failing.iter().position(|&f| f);
            let items: Vec<usize> = (0..len).collect();
            for workers in 1..=9 {
                let outcome = map(
                    &items,
                    workers,
                    |&i| if failing[i] { Err(i) } else { Ok(i) },
                );
                match lowest {
                    Some(index) => assert_eq!(outcome, Err(index), "trial {trial}, {workers}w"),
                    None => assert_eq!(outcome, Ok(items.clone()), "trial {trial}, {workers}w"),
                }
            }
        }
    }

    /// A synthetic point: `id` is its index in the stream, so two summaries
    /// are equal exactly when they name the same ids.
    #[derive(Debug, Clone)]
    struct Probe {
        id: usize,
        fom: f64,
        cost: f64,
        admitted: bool,
    }

    impl FrontierPoint for Probe {
        fn fom(&self) -> f64 {
            self.fom
        }
        fn admitted(&self) -> bool {
            self.admitted
        }
        fn dominates(&self, other: &Self) -> bool {
            self.fom >= other.fom
                && self.cost <= other.cost
                && (self.fom > other.fom || self.cost < other.cost)
        }
    }

    fn ids(summary: &Summary<Probe>) -> (Vec<usize>, Vec<usize>, Option<usize>, usize, usize) {
        (
            summary.top.iter().map(|p| p.id).collect(),
            summary.pareto.iter().map(|p| p.id).collect(),
            summary.best.as_ref().map(|p| p.id),
            summary.evaluated,
            summary.admitted,
        )
    }

    fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.gen_range(0..=i));
        }
    }

    #[test]
    fn any_split_merged_in_any_order_equals_one_serial_push() {
        // Few distinct values, so foms tie bitwise and costs tie too.
        const FOMS: [f64; 8] = [
            1.0,
            2.0,
            -0.0,
            0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            2.0,
        ];
        const COSTS: [f64; 5] = [1.0, 3.0, f64::NAN, f64::INFINITY, 0.5];
        let mut rng = StdRng::seed_from_u64(6);
        for trial in 0..60 {
            let len = rng.gen_range(0..=120usize);
            let points: Vec<Probe> = (0..len)
                .map(|id| Probe {
                    id,
                    fom: FOMS[rng.gen_range(0..FOMS.len())],
                    cost: COSTS[rng.gen_range(0..COSTS.len())],
                    admitted: rng.gen_bool(0.7),
                })
                .collect();
            let top_k = [0, 1, 3, 10, 200][trial % 5];
            let mut serial = Frontier::new(top_k);
            for p in &points {
                serial.push(p.id, p.clone());
            }
            let serial = serial.finish();

            // The serial pass itself is right: the top-K is a prefix of the
            // sorted admitted points, the Pareto set is every undominated
            // point in index order.
            let mut ranked: Vec<&Probe> = points.iter().filter(|p| p.admitted).collect();
            ranked.sort_by(|a, b| rank((a.id, *a), (b.id, *b)));
            let expected_top: Vec<usize> = ranked.iter().take(top_k).map(|p| p.id).collect();
            let expected_pareto: Vec<usize> = points
                .iter()
                .filter(|p| !points.iter().any(|q| q.dominates(p)))
                .map(|p| p.id)
                .collect();
            let (top, pareto, best, evaluated, admitted) = ids(&serial);
            assert_eq!(top, expected_top, "trial {trial}");
            assert_eq!(pareto, expected_pareto, "trial {trial}");
            assert_eq!(best, ranked.first().map(|p| p.id), "trial {trial}");
            assert_eq!((evaluated, admitted), (len, ranked.len()), "trial {trial}");

            let part_count = rng.gen_range(1..=6usize);
            let mut parts: Vec<Vec<Probe>> = vec![Vec::new(); part_count];
            for p in &points {
                parts[rng.gen_range(0..part_count)].push(p.clone());
            }
            let mut frontiers: Vec<Frontier<Probe>> = parts
                .into_iter()
                .map(|mut part| {
                    shuffle(&mut part, &mut rng);
                    let mut frontier = Frontier::new(top_k);
                    for p in part {
                        frontier.push(p.id, p);
                    }
                    frontier
                })
                .collect();
            shuffle(&mut frontiers, &mut rng);
            let mut merged = Frontier::new(top_k);
            for frontier in frontiers {
                merged.merge(frontier);
            }
            assert_eq!(ids(&merged.finish()), ids(&serial), "trial {trial}");
        }
    }
}
