//! Small-group outlier mining (§I, §IV-D).
//!
//! The paper: *"a compact representation will highlight unusual pairs …
//! small-size groups could correspond to outliers"* and *"a compact
//! representation already provides a type of pre-sort. After all, we would
//! expect outliers to be separate from large groups of data, so the focus
//! should be on the small groups."*
//!
//! This module turns a [`JoinOutput`] into per-record *cohesion scores*
//! (the size of the largest output row a record appears in) and extracts
//! the records / rows below a threshold.

use std::collections::HashMap;

use csj_geom::RecordId;

use crate::output::{JoinOutput, OutputItem};

/// Per-record cohesion derived from a compact join output.
#[derive(Clone, Debug, Default)]
pub struct CohesionScores {
    scores: HashMap<RecordId, usize>,
}

impl CohesionScores {
    /// Computes scores from `output`: for every record mentioned in any
    /// row, the size of the largest row containing it (links count as
    /// size-2 rows). Records absent from the output have score 0 — they
    /// have no neighbour within ε at all.
    pub fn from_output(output: &JoinOutput) -> Self {
        let mut scores: HashMap<RecordId, usize> = HashMap::new();
        let mut bump = |id: RecordId, size: usize| {
            let s = scores.entry(id).or_insert(0);
            *s = (*s).max(size);
        };
        for item in &output.items {
            match item {
                OutputItem::Link(a, b) => {
                    bump(a, 2);
                    bump(b, 2);
                }
                OutputItem::Group(ids) => {
                    for &id in ids {
                        bump(id, ids.len());
                    }
                }
            }
        }
        CohesionScores { scores }
    }

    /// The score of one record (0 if it appears in no row).
    pub fn score(&self, id: RecordId) -> usize {
        self.scores.get(&id).copied().unwrap_or(0)
    }

    /// Records with `score <= max_cohesion`, most isolated first
    /// (ascending score, ties by id). `num_records` is the dataset size;
    /// records never mentioned in the output are included with score 0.
    pub fn outliers(&self, num_records: usize, max_cohesion: usize) -> Vec<(RecordId, usize)> {
        let mut out: Vec<(RecordId, usize)> = (0..num_records as RecordId)
            .map(|id| (id, self.score(id)))
            .filter(|&(_, s)| s <= max_cohesion)
            .collect();
        out.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }
}

/// The §IV-D pre-sort: output rows of size at most `max_size`, smallest
/// first — the rows an outlier hunt should inspect first.
pub fn small_rows(output: &JoinOutput, max_size: usize) -> Vec<OutputItem<'_>> {
    let mut rows: Vec<OutputItem<'_>> =
        output.items.iter().filter(|i| i.len() <= max_size).collect();
    rows.sort_by_key(OutputItem::len);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::Rows;
    use crate::parallel::ParallelAlgo;
    use crate::resilient::ResilientJoin;
    use csj_geom::Point;
    use csj_index::{rstar::RStarTree, RTreeConfig};

    #[test]
    fn scores_from_mixed_output() {
        let out = JoinOutput {
            items: Rows::from_iter([
                OutputItem::Group(&[0, 1, 2, 3]),
                OutputItem::Link(3, 4),
                OutputItem::Link(5, 6),
            ]),
            stats: Default::default(),
            completion: crate::Completion::Complete,
        };
        let scores = CohesionScores::from_output(&out);
        assert_eq!(scores.score(0), 4);
        assert_eq!(scores.score(3), 4, "max over rows wins");
        assert_eq!(scores.score(4), 2);
        assert_eq!(scores.score(7), 0, "absent record");
    }

    #[test]
    fn outliers_sorted_most_isolated_first() {
        let out = JoinOutput {
            items: Rows::from_iter([OutputItem::Group(&[0, 1, 2]), OutputItem::Link(3, 4)]),
            stats: Default::default(),
            completion: crate::Completion::Complete,
        };
        let scores = CohesionScores::from_output(&out);
        // 6 records total; record 5 appears nowhere.
        let outliers = scores.outliers(6, 2);
        assert_eq!(outliers, vec![(5, 0), (3, 2), (4, 2)]);
    }

    #[test]
    fn small_rows_filter_and_order() {
        let out = JoinOutput {
            items: Rows::from_iter([
                OutputItem::Group(&[0, 1, 2, 3, 4]),
                OutputItem::Link(8, 9),
                OutputItem::Group(&[5, 6, 7]),
            ]),
            stats: Default::default(),
            completion: crate::Completion::Complete,
        };
        let rows = small_rows(&out, 3);
        assert_eq!(rows.len(), 2);
        assert!(matches!(rows[0], OutputItem::Link(8, 9)));
        assert!(matches!(rows[1], OutputItem::Group(g) if g.len() == 3));
    }

    #[test]
    fn end_to_end_isolated_pair_detected() {
        // A dense blob of 40 points plus one isolated pair far away: the
        // pair must surface as the lowest-cohesion linked records.
        let mut pts: Vec<Point<2>> = (0..40)
            .map(|i| Point::new([0.2 + (i % 8) as f64 * 1e-3, 0.2 + (i / 8) as f64 * 1e-3]))
            .collect();
        pts.push(Point::new([0.9, 0.9]));
        pts.push(Point::new([0.9005, 0.9]));
        let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(8));
        let out = ResilientJoin::new(0.05, ParallelAlgo::Csj(10)).run(&tree).expect("in memory");
        let scores = CohesionScores::from_output(&out);
        let outliers = scores.outliers(pts.len(), 2);
        let ids: Vec<u32> = outliers.iter().map(|&(id, _)| id).collect();
        assert!(ids.contains(&40) && ids.contains(&41), "isolated pair flagged: {ids:?}");
        for &(id, _) in &outliers {
            assert!(id >= 40, "blob members must not be flagged, got {id}");
        }
    }
}
