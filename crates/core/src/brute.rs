//! The `O(n²)` reference join — ground truth for every lossless-ness test.

use std::collections::BTreeSet;

use csj_geom::{Metric, Point, RecordId};

/// All pairs `(i, j)` with `i < j` and `‖points[i] − points[j]‖ ≤ eps`
/// under the Euclidean metric. Record ids are slice indexes.
pub fn brute_force_links<const D: usize>(
    points: &[Point<D>],
    eps: f64,
) -> BTreeSet<(RecordId, RecordId)> {
    brute_force_links_metric(points, eps, Metric::Euclidean)
}

/// [`brute_force_links`] under an arbitrary metric.
pub fn brute_force_links_metric<const D: usize>(
    points: &[Point<D>],
    eps: f64,
    metric: Metric,
) -> BTreeSet<(RecordId, RecordId)> {
    let mut set = BTreeSet::new();
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            if metric.within(&points[i], &points[j], eps) {
                set.insert((i as RecordId, j as RecordId));
            }
        }
    }
    set
}

/// The cross-join reference for spatial (two-dataset) joins: all pairs
/// `(i, j)` with `‖left[i] − right[j]‖ ≤ eps`.
pub fn brute_force_cross_links<const D: usize>(
    left: &[Point<D>],
    right: &[Point<D>],
    eps: f64,
    metric: Metric,
) -> BTreeSet<(RecordId, RecordId)> {
    let mut set = BTreeSet::new();
    for (i, p) in left.iter().enumerate() {
        for (j, q) in right.iter().enumerate() {
            if metric.within(p, q, eps) {
                set.insert((i as RecordId, j as RecordId));
            }
        }
    }
    set
}

/// The `(left, right)` link set that a spatial join's written rows
/// imply, each row `<left ids> | <right ids>` standing for every pair of
/// a left and a right id: the written bytes read back for comparison
/// with [`brute_force_cross_links`]. `None` when a row is malformed.
pub fn parse_cross_links(text: &str) -> Option<BTreeSet<(RecordId, RecordId)>> {
    let ids =
        |side: &str| side.split_whitespace().map(|t| t.parse().ok()).collect::<Option<Vec<_>>>();
    let mut set = BTreeSet::new();
    for line in text.lines() {
        let (left, right) = line.split_once(" | ")?;
        let right = ids(right)?;
        for l in ids(left)? {
            set.extend(right.iter().map(|&r| (l, r)));
        }
    }
    Some(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_line_example_from_paper() {
        // §III Figure 2: points 1..5 on a line, eps = 3 → 9 links.
        let pts: Vec<Point<1>> = (1..=5).map(|i| Point::new([i as f64])).collect();
        let links = brute_force_links(&pts, 3.0);
        assert_eq!(links.len(), 9);
        assert!(links.contains(&(0, 3)), "1-4 qualifies");
        assert!(!links.contains(&(0, 4)), "1-5 is at distance 4");
    }

    #[test]
    fn boundary_is_inclusive() {
        let pts = vec![Point::new([0.0, 0.0]), Point::new([1.0, 0.0])];
        assert_eq!(brute_force_links(&pts, 1.0).len(), 1);
        assert_eq!(brute_force_links(&pts, 0.999).len(), 0);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(brute_force_links::<2>(&[], 1.0).is_empty());
        assert!(brute_force_links(&[Point::new([0.0, 0.0])], 1.0).is_empty());
    }

    #[test]
    fn metric_variant() {
        let pts = vec![Point::new([0.0, 0.0]), Point::new([0.6, 0.6])];
        assert_eq!(brute_force_links_metric(&pts, 0.7, Metric::Chebyshev).len(), 1);
        assert_eq!(brute_force_links_metric(&pts, 0.7, Metric::Manhattan).len(), 0);
    }

    #[test]
    fn cross_links() {
        let left = vec![Point::new([0.0, 0.0]), Point::new([5.0, 5.0])];
        let right = vec![Point::new([0.1, 0.0]), Point::new([5.0, 5.05])];
        let links = brute_force_cross_links(&left, &right, 0.2, Metric::Euclidean);
        assert_eq!(links.into_iter().collect::<Vec<_>>(), vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn cross_rows_parse_back_to_their_links() {
        let links = parse_cross_links("0001 | 0022\n0003 0004 | 0005\n").unwrap();
        assert_eq!(links.into_iter().collect::<Vec<_>>(), vec![(1, 22), (3, 5), (4, 5)]);
        assert_eq!(parse_cross_links(""), Some(BTreeSet::new()));
        assert_eq!(parse_cross_links("0001 0002\n"), None, "no separator");
        assert_eq!(parse_cross_links("0001 | x\n"), None, "not an id");
    }
}
