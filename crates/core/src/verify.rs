//! Machine checks of the paper's Theorems 1 and 2.
//!
//! * **Completeness** (Theorem 1): every pair within ε appears — as an
//!   explicit link or implicitly inside some group.
//! * **Correctness** (Theorem 2): every pair inside any emitted group (and
//!   every explicit link) is genuinely within ε.
//!
//! [`verify_lossless`] checks both against the `O(n²)` ground truth, and
//! additionally asserts the stronger group invariant the proofs rest on:
//! the true diameter of each group's member set is at most ε.

use csj_geom::{Metric, Point, RecordId};

use crate::brute::brute_force_links_metric;
use crate::output::{JoinOutput, OutputItem};

/// A violation of Theorem 1 or 2.
#[derive(Clone, Debug, PartialEq)]
pub enum VerifyError {
    /// A qualifying pair is absent from the output (completeness).
    MissingLink {
        /// First record.
        a: RecordId,
        /// Second record.
        b: RecordId,
        /// Their true distance.
        distance: f64,
    },
    /// A reported pair does not qualify (correctness).
    ExtraLink {
        /// First record.
        a: RecordId,
        /// Second record.
        b: RecordId,
        /// Their true distance.
        distance: f64,
    },
    /// A group's member set has diameter above ε.
    GroupTooWide {
        /// Index of the offending output row.
        item_index: usize,
        /// True diameter of the member set.
        diameter: f64,
    },
    /// An output row references a record id outside the dataset.
    UnknownRecord {
        /// The offending id.
        id: RecordId,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::MissingLink { a, b, distance } => {
                write!(f, "completeness violated: pair ({a}, {b}) at distance {distance} missing")
            }
            VerifyError::ExtraLink { a, b, distance } => {
                write!(f, "correctness violated: pair ({a}, {b}) at distance {distance} reported")
            }
            VerifyError::GroupTooWide { item_index, diameter } => {
                write!(f, "group at row {item_index} has diameter {diameter} > eps")
            }
            VerifyError::UnknownRecord { id } => write!(f, "unknown record id {id}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Summary of a successful verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// Ground-truth link count.
    pub true_links: usize,
    /// Output rows checked.
    pub rows: usize,
    /// Groups whose true diameter was individually validated.
    pub groups_checked: usize,
}

/// Verifies that `output` is a lossless representation of the ε-join over
/// `points` (record ids are slice indexes), under `metric`.
///
/// # Errors
/// Returns a [`VerifyError`] describing the first violation found:
/// a missing or spurious link, or a group whose true diameter
/// exceeds ε.
pub fn verify_lossless<const D: usize>(
    output: &JoinOutput,
    points: &[Point<D>],
    eps: f64,
    metric: Metric,
) -> Result<VerifyReport, VerifyError> {
    let fetch = |id: RecordId| -> Result<&Point<D>, VerifyError> {
        points.get(id as usize).ok_or(VerifyError::UnknownRecord { id })
    };

    // Theorem 2 (correctness), including the group-diameter invariant.
    let mut groups_checked = 0usize;
    for (idx, item) in output.items.iter().enumerate() {
        match item {
            OutputItem::Link(a, b) => {
                let d = metric.distance(fetch(a)?, fetch(b)?);
                if d > eps {
                    return Err(VerifyError::ExtraLink { a, b, distance: d });
                }
            }
            OutputItem::Group(ids) => {
                groups_checked += 1;
                let mut diameter = 0.0_f64;
                for i in 0..ids.len() {
                    let pi = fetch(ids[i])?;
                    for j in (i + 1)..ids.len() {
                        let d = metric.distance(pi, fetch(ids[j])?);
                        if d > eps {
                            return Err(VerifyError::ExtraLink {
                                a: ids[i],
                                b: ids[j],
                                distance: d,
                            });
                        }
                        diameter = diameter.max(d);
                    }
                }
                if diameter > eps {
                    return Err(VerifyError::GroupTooWide { item_index: idx, diameter });
                }
            }
        }
    }

    // Theorem 1 (completeness).
    let truth = brute_force_links_metric(points, eps, metric);
    let expanded = output.expanded_link_set();
    if let Some(&(a, b)) = truth.difference(&expanded).next() {
        let d = metric.distance(&points[a as usize], &points[b as usize]);
        return Err(VerifyError::MissingLink { a, b, distance: d });
    }
    // (Extra links were already caught above, but double-check the sets.)
    if let Some(&(a, b)) = expanded.difference(&truth).next() {
        let d = metric.distance(&points[a as usize], &points[b as usize]);
        return Err(VerifyError::ExtraLink { a, b, distance: d });
    }

    Ok(VerifyReport { true_links: truth.len(), rows: output.items.len(), groups_checked })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::{JoinOutput, Rows};
    use crate::parallel::ParallelAlgo;
    use crate::resilient::ResilientJoin;
    use crate::stats::JoinStats;
    use csj_index::{rstar::RStarTree, RTreeConfig};

    fn sample_points() -> Vec<Point<2>> {
        (0..60)
            .map(|i| {
                let t = i as f64 * 0.13;
                Point::new([(t.sin() * 0.3 + 0.5), ((t * 1.7).cos() * 0.3 + 0.5)])
            })
            .collect()
    }

    #[test]
    fn real_join_outputs_verify() {
        let pts = sample_points();
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(5));
        for eps in [0.05, 0.15, 0.4] {
            for algo in [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(10)] {
                let out = ResilientJoin::new(eps, algo).run(&tree).expect("in memory");
                let report = verify_lossless(&out, &pts, eps, Metric::Euclidean)
                    .unwrap_or_else(|e| panic!("eps={eps}: {e}"));
                assert_eq!(report.rows, out.items.len());
            }
        }
    }

    #[test]
    fn detects_missing_link() {
        let pts = vec![Point::new([0.0, 0.0]), Point::new([0.05, 0.0])];
        let empty =
            JoinOutput { items: Rows::new(), stats: JoinStats::default(), ..Default::default() };
        match verify_lossless(&empty, &pts, 0.1, Metric::Euclidean) {
            Err(VerifyError::MissingLink { a: 0, b: 1, .. }) => {}
            other => panic!("expected MissingLink, got {other:?}"),
        }
    }

    #[test]
    fn detects_extra_link() {
        let pts = vec![Point::new([0.0, 0.0]), Point::new([5.0, 0.0])];
        let bad = JoinOutput {
            items: Rows::from_iter([OutputItem::Link(0, 1)]),
            stats: JoinStats::default(),
            ..Default::default()
        };
        match verify_lossless(&bad, &pts, 0.1, Metric::Euclidean) {
            Err(VerifyError::ExtraLink { a: 0, b: 1, distance }) => {
                assert_eq!(distance, 5.0)
            }
            other => panic!("expected ExtraLink, got {other:?}"),
        }
    }

    #[test]
    fn detects_overwide_group() {
        let pts = vec![Point::new([0.0, 0.0]), Point::new([0.05, 0.0]), Point::new([0.2, 0.0])];
        let bad = JoinOutput {
            items: Rows::from_iter([OutputItem::Group(&[0, 1, 2])]),
            stats: JoinStats::default(),
            ..Default::default()
        };
        // Pair (0, 2) is at 0.2 > eps: reported as an extra link.
        match verify_lossless(&bad, &pts, 0.1, Metric::Euclidean) {
            Err(VerifyError::ExtraLink { a: 0, b: 2, .. }) => {}
            other => panic!("expected ExtraLink, got {other:?}"),
        }
    }

    #[test]
    fn detects_unknown_record() {
        let pts = vec![Point::new([0.0, 0.0])];
        let bad = JoinOutput {
            items: Rows::from_iter([OutputItem::Link(0, 9)]),
            stats: JoinStats::default(),
            ..Default::default()
        };
        assert_eq!(
            verify_lossless(&bad, &pts, 0.1, Metric::Euclidean),
            Err(VerifyError::UnknownRecord { id: 9 })
        );
    }

    #[test]
    fn error_messages_are_informative() {
        let e = VerifyError::MissingLink { a: 1, b: 2, distance: 0.05 };
        assert!(e.to_string().contains("completeness"));
        let e = VerifyError::GroupTooWide { item_index: 3, diameter: 0.5 };
        assert!(e.to_string().contains("row 3"));
    }
}
