//! The streaming top-K/Pareto [`Frontier`] of Fig. 6 and the architecture
//! zoo: the runtime's parallel fold ([`crosslight_runtime::sweep::fold`])
//! builds one per worker, and the parts merge to the same summary whatever
//! the split.

use std::cmp::Ordering;

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
    /// The slot in `pareto` of the member that dominated the last dominated
    /// point, checked first: a sweep's neighbours tend to share a
    /// dominator.  Only a hint; any slot gives the same set.
    dominator: usize,
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
            dominator: 0,
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
        if let Some((_, p)) = self.pareto.get(self.dominator) {
            if p.dominates(&point) {
                return;
            }
        }
        if let Some(at) = self.pareto.iter().position(|(_, p)| p.dominates(&point)) {
            self.dominator = at;
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
