//! The one parallel engine of the workspace: a deterministic parallel fold
//! over a slice on scoped threads.  [`EvalService::submit_batch`] serves a
//! batch's shards on it, and the experiments' sweeps (Fig. 5, Fig. 6 and
//! the architecture zoo) fold their candidates with it.
//!
//! [`EvalService::submit_batch`]: crate::pool::EvalService::submit_batch

use std::sync::atomic::{AtomicUsize, Ordering};

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
/// merge or sort by index ([`map`]).
///
/// # Errors
///
/// If several items fail, returns the error of the lowest failing index: a
/// worker stops at its first failure, and every index below it was claimed
/// earlier and folded by a worker that either finished that run or failed
/// lower.
pub fn fold<T, A, E>(
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
            let start = cursor.fetch_add(run, Ordering::Relaxed);
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
pub fn map<T, R, E>(
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
}
