//! The ε-grid-order join (Böhm, Braunmüller, Krebs, Kriegel — SIGMOD
//! 2001) and its compact extension.
//!
//! The paper's related work covers similarity joins *without* an index;
//! its discussion (§VII) notes that the compact-output idea carries over:
//! "one need only modify the JoinBuffer function … to add the early
//! termination-as-a-group case". This module implements both:
//!
//! * the plain grid join — lay an ε-wide grid over the data, join each
//!   cell with itself and its lexicographically-positive neighbours
//!   (the in-memory equivalent of the ε-grid order);
//! * the compact variant — before enumerating a cell (pair)'s links,
//!   check whether the points' bounding box has diameter ≤ ε and emit one
//!   group if so; residual links can additionally be merged through a
//!   CSJ-style window.
//!
//! Because a link can span at most one cell per axis when the cell width
//! is ε (for every `Lp` metric, per-axis deltas are bounded by the
//! distance), the neighbour scan is exhaustive.

use std::collections::HashMap;

use csj_geom::{Mbr, Metric, Point, RecordId};

use crate::engine::DirectEmit;
use crate::engine::{infallible, CollectSink, LinkHandler, RowSink, WindowedEmit};
use crate::group::MbrShape;
use crate::output::JoinOutput;
use crate::stats::JoinStats;
use crate::JoinConfig;

/// The ε-grid-order similarity self-join over a plain point slice.
///
/// ```
/// use csj_core::{brute::brute_force_links, egrid::GridJoin};
/// use csj_geom::Point;
///
/// let pts: Vec<Point<2>> = (0..100)
///     .map(|i| Point::new([(i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0]))
///     .collect();
/// let out = GridJoin::new(0.15).run(&pts);
/// assert_eq!(out.expanded_link_set(), brute_force_links(&pts, 0.15));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct GridJoin {
    cfg: JoinConfig,
    compact: bool,
    window: usize,
}

impl GridJoin {
    /// A standard (link-enumerating) grid join with range `epsilon`.
    pub fn new(epsilon: f64) -> Self {
        GridJoin { cfg: JoinConfig::new(epsilon), compact: false, window: 0 }
    }

    /// Enables the compact extension: cells / cell pairs whose point
    /// bounding box fits in ε are emitted as one group.
    pub fn compact(mut self) -> Self {
        self.compact = true;
        self
    }

    /// Additionally merge residual links into the `g` most recent groups
    /// (implies [`GridJoin::compact`]).
    pub fn with_window(mut self, g: usize) -> Self {
        self.compact = true;
        self.window = g;
        self
    }

    /// Replaces the metric.
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.cfg.metric = metric;
        self
    }

    /// Runs the join over `points` (record ids are slice indexes).
    pub fn run<const D: usize>(&self, points: &[Point<D>]) -> JoinOutput {
        if self.window > 0 {
            let handler =
                WindowedEmit::<MbrShape<D>, D>::new(self.window, self.cfg.epsilon, self.cfg.metric);
            self.run_with(points, handler)
        } else {
            self.run_with(points, DirectEmit)
        }
    }

    fn run_with<H: LinkHandler<D>, const D: usize>(
        &self,
        points: &[Point<D>],
        mut handler: H,
    ) -> JoinOutput {
        let eps = self.cfg.epsilon;
        let mut sink = CollectSink::default();
        let mut stats = JoinStats::new(false);

        if eps <= 0.0 {
            // Degenerate range: only exactly-coincident points qualify.
            self.join_coincident(points, &mut handler, &mut sink, &mut stats);
            infallible(handler.finish(&mut sink, &mut stats));
            return JoinOutput { items: sink.items, stats, ..Default::default() };
        }

        // Bucket points into ε-wide cells.
        let mut cells: HashMap<[i64; D], Vec<RecordId>> = HashMap::new();
        for (i, p) in points.iter().enumerate() {
            let mut key = [0i64; D];
            for d in 0..D {
                key[d] = (p[d] / eps).floor() as i64;
            }
            cells.entry(key).or_default().push(i as RecordId);
        }
        // ε-grid order: process cells lexicographically (determinism and
        // the locality the windowed merge relies on).
        let mut keys: Vec<[i64; D]> = cells.keys().copied().collect();
        keys.sort_unstable();

        let offsets = positive_offsets::<D>();
        for key in &keys {
            let bucket = &cells[key];
            self.join_buffer(points, bucket, None, &mut handler, &mut sink, &mut stats);
            for off in &offsets {
                let mut nkey = *key;
                for d in 0..D {
                    nkey[d] += off[d];
                }
                if let Some(nbucket) = cells.get(&nkey) {
                    self.join_buffer(
                        points,
                        bucket,
                        Some(nbucket),
                        &mut handler,
                        &mut sink,
                        &mut stats,
                    );
                }
            }
        }
        infallible(handler.finish(&mut sink, &mut stats));
        JoinOutput { items: sink.items, stats, ..Default::default() }
    }

    /// The JoinBuffer step: one cell with itself (`other == None`) or two
    /// neighbouring cells — with the paper's §VII "early
    /// termination-as-a-group" modification in compact mode.
    fn join_buffer<H: LinkHandler<D>, R: RowSink, const D: usize>(
        &self,
        points: &[Point<D>],
        bucket: &[RecordId],
        other: Option<&[RecordId]>,
        handler: &mut H,
        sink: &mut R,
        stats: &mut JoinStats,
    ) {
        let eps = self.cfg.epsilon;
        let metric = self.cfg.metric;
        if self.compact {
            let mut mbr = Mbr::empty();
            for &id in bucket.iter().chain(other.into_iter().flatten()) {
                mbr.expand_to_point(&points[id as usize]);
            }
            if metric.mbr_diameter(&mbr) <= eps {
                stats.early_stops_node += 1;
                let ids: Vec<RecordId> =
                    bucket.iter().chain(other.into_iter().flatten()).copied().collect();
                infallible(handler.on_subtree(&ids, bucket.len(), &mbr, sink, stats));
                return;
            }
        }
        match other {
            None => {
                for i in 0..bucket.len() {
                    let pa = &points[bucket[i] as usize];
                    for &b in &bucket[(i + 1)..] {
                        let pb = &points[b as usize];
                        stats.distance_computations += 1;
                        if metric.within(pa, pb, eps) {
                            infallible(handler.on_link(bucket[i], pa, b, pb, sink, stats));
                        }
                    }
                }
            }
            Some(nbucket) => {
                for &a in bucket {
                    let pa = &points[a as usize];
                    for &b in nbucket {
                        let pb = &points[b as usize];
                        stats.distance_computations += 1;
                        if metric.within(pa, pb, eps) {
                            infallible(handler.on_link(a, pa, b, pb, sink, stats));
                        }
                    }
                }
            }
        }
    }

    /// ε = 0: group points by exact coordinates.
    fn join_coincident<H: LinkHandler<D>, R: RowSink, const D: usize>(
        &self,
        points: &[Point<D>],
        handler: &mut H,
        sink: &mut R,
        stats: &mut JoinStats,
    ) {
        let mut seen: HashMap<Vec<u64>, Vec<RecordId>> = HashMap::new();
        for (i, p) in points.iter().enumerate() {
            let key: Vec<u64> = p.coords().iter().map(|c| c.to_bits()).collect();
            seen.entry(key).or_default().push(i as RecordId);
        }
        let mut buckets: Vec<Vec<RecordId>> = seen.into_values().collect();
        buckets.sort();
        for bucket in buckets {
            for i in 0..bucket.len() {
                for j in (i + 1)..bucket.len() {
                    stats.distance_computations += 1;
                    let (a, b) = (bucket[i], bucket[j]);
                    infallible(handler.on_link(
                        a,
                        &points[a as usize],
                        b,
                        &points[b as usize],
                        sink,
                        stats,
                    ));
                }
            }
        }
    }
}

/// All offsets in `{-1, 0, 1}^D` that are lexicographically positive
/// (first non-zero component is `+1`). Together with the zero offset
/// (handled as the self-join) they cover every unordered cell pair within
/// Chebyshev distance 1 exactly once.
fn positive_offsets<const D: usize>() -> Vec<[i64; D]> {
    let mut out = Vec::new();
    let total = 3usize.pow(D as u32);
    for code in 0..total {
        let mut off = [0i64; D];
        let mut c = code;
        for slot in off.iter_mut() {
            *slot = (c % 3) as i64 - 1;
            c /= 3;
        }
        let positive = off.iter().find(|&&v| v != 0).is_some_and(|&v| v > 0);
        if positive {
            out.push(off);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_links_metric;

    fn scatter(n: usize) -> Vec<Point<2>> {
        (0..n)
            .map(|i| {
                let x = ((i * 2654435761) % 10_000) as f64 / 10_000.0;
                let y = ((i * 40503 + 99) % 10_000) as f64 / 10_000.0;
                Point::new([x, y])
            })
            .collect()
    }

    #[test]
    fn offsets_cover_half_neighbourhood() {
        let offs = positive_offsets::<2>();
        assert_eq!(offs.len(), 4, "(3^2 - 1) / 2");
        let offs3 = positive_offsets::<3>();
        assert_eq!(offs3.len(), 13, "(3^3 - 1) / 2");
        // No offset and its negation both present.
        for o in &offs3 {
            let neg = [-o[0], -o[1], -o[2]];
            assert!(!offs3.contains(&neg), "offset {o:?} and its negation");
        }
    }

    #[test]
    fn standard_grid_join_matches_brute() {
        let pts = scatter(300);
        for eps in [0.03, 0.1, 0.4] {
            let out = GridJoin::new(eps).run(&pts);
            assert_eq!(
                out.expanded_link_set(),
                brute_force_links_metric(&pts, eps, Metric::Euclidean),
                "eps={eps}"
            );
            assert_eq!(out.num_groups(), 0);
            // Each link appears exactly once (half-neighbourhood works).
            assert_eq!(out.num_links(), out.expanded_link_set().len());
        }
    }

    #[test]
    fn compact_grid_join_is_lossless_and_smaller() {
        // Tightly clustered data: many cells collapse to groups.
        let pts: Vec<Point<2>> = (0..200)
            .map(|i| {
                let c = (i / 50) as f64 * 0.31;
                Point::new([c + (i % 7) as f64 * 1e-3, c + (i % 11) as f64 * 1e-3])
            })
            .collect();
        let eps = 0.12;
        let plain = GridJoin::new(eps).run(&pts);
        let compact = GridJoin::new(eps).compact().run(&pts);
        let windowed = GridJoin::new(eps).with_window(10).run(&pts);
        let want = brute_force_links_metric(&pts, eps, Metric::Euclidean);
        assert_eq!(plain.expanded_link_set(), want);
        assert_eq!(compact.expanded_link_set(), want);
        assert_eq!(windowed.expanded_link_set(), want);
        let w = 3;
        assert!(compact.total_bytes(w) < plain.total_bytes(w), "groups must shrink output");
        assert!(windowed.total_bytes(w) <= compact.total_bytes(w));
        assert!(compact.stats.early_stops_node > 0);
    }

    #[test]
    fn negative_coordinates() {
        let pts = vec![
            Point::new([-1.05, -1.05]),
            Point::new([-0.95, -0.95]),
            Point::new([0.95, 0.95]),
            Point::new([1.05, 1.05]),
        ];
        let eps = 0.2;
        let out = GridJoin::new(eps).run(&pts);
        assert_eq!(out.expanded_link_set(), brute_force_links_metric(&pts, eps, Metric::Euclidean));
    }

    #[test]
    fn zero_epsilon_joins_only_duplicates() {
        let pts =
            vec![Point::new([0.5, 0.5]), Point::new([0.5, 0.5]), Point::new([0.5, 0.5000001])];
        let out = GridJoin::new(0.0).run(&pts);
        let set = out.expanded_link_set();
        assert_eq!(set.into_iter().collect::<Vec<_>>(), vec![(0, 1)]);
    }

    #[test]
    fn three_dimensional_join() {
        let pts: Vec<Point<3>> = (0..150)
            .map(|i| {
                Point::new([
                    ((i * 31) % 100) as f64 / 100.0,
                    ((i * 57) % 100) as f64 / 100.0,
                    ((i * 91) % 100) as f64 / 100.0,
                ])
            })
            .collect();
        let eps = 0.15;
        let out = GridJoin::new(eps).run(&pts);
        assert_eq!(out.expanded_link_set(), brute_force_links_metric(&pts, eps, Metric::Euclidean));
    }

    #[test]
    fn manhattan_metric_grid_join() {
        let pts = scatter(200);
        let eps = 0.1;
        let out = GridJoin::new(eps).with_metric(Metric::Manhattan).run(&pts);
        assert_eq!(out.expanded_link_set(), brute_force_links_metric(&pts, eps, Metric::Manhattan));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::brute::brute_force_links_metric;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The grid join (all variants) is lossless on arbitrary inputs.
        #[test]
        fn grid_join_lossless(
            pts in prop::collection::vec(prop::array::uniform2(-2.0f64..2.0), 0..120),
            eps in 0.0f64..1.0,
            mode in 0usize..3,
        ) {
            let points: Vec<Point<2>> = pts.into_iter().map(Point::new).collect();
            let join = match mode {
                0 => GridJoin::new(eps),
                1 => GridJoin::new(eps).compact(),
                _ => GridJoin::new(eps).with_window(8),
            };
            let out = join.run(&points);
            prop_assert_eq!(
                out.expanded_link_set(),
                brute_force_links_metric(&points, eps, Metric::Euclidean)
            );
        }
    }
}
