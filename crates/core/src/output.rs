//! Join output: links and groups, expansion, byte accounting.
//!
//! Collected rows live in one flat [`Rows`] store — every row's ids back
//! to back in one vector, plus one end offset per row — and come out as
//! borrowed [`OutputItem`] views. A row costs its ids and one offset,
//! with no allocation of its own.

use std::collections::BTreeSet;
use std::fmt;

use csj_geom::RecordId;
use csj_storage::{OutputSink, OutputWriter, StorageError};

use crate::budget::Completion;
use crate::stats::JoinStats;

/// One output row, borrowed from a [`Rows`] store: an individual link
/// or a group of mutually-qualifying records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputItem<'a> {
    /// A single qualifying pair.
    Link(RecordId, RecordId),
    /// `k` records all within ε of each other, encoding `k·(k−1)/2` links.
    Group(&'a [RecordId]),
}

impl OutputItem<'_> {
    /// Number of links this row implies.
    pub fn implied_links(&self) -> u64 {
        match self {
            OutputItem::Link(..) => 1,
            OutputItem::Group(ids) => {
                let k = ids.len() as u64;
                k * k.saturating_sub(1) / 2
            }
        }
    }

    /// Number of record ids in the row (2 for a link).
    pub fn len(&self) -> usize {
        match self {
            OutputItem::Link(..) => 2,
            OutputItem::Group(ids) => ids.len(),
        }
    }

    /// Whether the row holds no ids (an empty group; never emitted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes this row occupies in the paper's text format with the given
    /// id width: each id is `width` bytes, ids are space-separated, the
    /// line ends in `\n` — so a row of `k` ids is `k·width + k` bytes.
    /// Assumes every id fits in `width` digits (use
    /// [`csj_storage::OutputWriter::id_width_for`]).
    pub fn format_bytes(&self, width: usize) -> u64 {
        (self.len() * (width + 1)) as u64
    }
}

/// Flags a row end as a group row; the low bits are the row's end
/// offset into [`Rows`]' id vector.
const GROUP_ROW: u64 = 1 << 63;

/// Output rows in emission order, stored flat: the ids of every row
/// back to back, and per row its end offset carrying a link/group flag.
/// A link stores its two ids; a group its members.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Rows {
    ids: Vec<RecordId>,
    ends: Vec<u64>,
}

impl Rows {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with room for `rows` rows holding `ids` ids.
    pub fn with_capacity(rows: usize, ids: usize) -> Self {
        Rows { ids: Vec::with_capacity(ids), ends: Vec::with_capacity(rows) }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Number of record ids over all rows.
    pub fn num_ids(&self) -> usize {
        self.ids.len()
    }

    /// Bytes the rows occupy in the paper's text format at the given id
    /// width, when every id fits the width: each id is `width` digits
    /// plus one separator (a space, or the row's newline).
    pub fn total_bytes(&self, width: usize) -> u64 {
        (self.ids.len() * (width + 1)) as u64
    }

    /// Appends a link row.
    pub fn push_link(&mut self, a: RecordId, b: RecordId) {
        self.ids.extend_from_slice(&[a, b]);
        self.ends.push(self.ids.len() as u64);
    }

    /// Appends a group row.
    pub fn push_group(&mut self, ids: &[RecordId]) {
        self.ids.extend_from_slice(ids);
        self.ends.push(self.ids.len() as u64 | GROUP_ROW);
    }

    /// Appends a group row of the ids `members` yields.
    pub fn push_group_iter(&mut self, members: impl IntoIterator<Item = RecordId>) {
        self.ids.extend(members);
        self.ends.push(self.ids.len() as u64 | GROUP_ROW);
    }

    /// Appends a row view.
    pub fn push(&mut self, item: OutputItem<'_>) {
        match item {
            OutputItem::Link(a, b) => self.push_link(a, b),
            OutputItem::Group(ids) => self.push_group(ids),
        }
    }

    /// Appends every row of `other`, in order.
    pub fn append(&mut self, other: &Rows) {
        let base = self.ids.len() as u64;
        self.ids.extend_from_slice(&other.ids);
        self.ends.extend(other.ends.iter().map(|&end| end + base));
    }

    /// The row at `index`, if any.
    pub fn get(&self, index: usize) -> Option<OutputItem<'_>> {
        let end = *self.ends.get(index)?;
        let start = match index {
            0 => 0,
            i => self.ends[i - 1] & !GROUP_ROW,
        };
        Some(self.view(start as usize, end))
    }

    /// The rows in order.
    pub fn iter(&self) -> RowIter<'_> {
        RowIter { rows: self, ends: self.ends.iter(), start: 0 }
    }

    fn view(&self, start: usize, end: u64) -> OutputItem<'_> {
        let ids = &self.ids[start..(end & !GROUP_ROW) as usize];
        if end & GROUP_ROW != 0 {
            OutputItem::Group(ids)
        } else {
            OutputItem::Link(ids[0], ids[1])
        }
    }
}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over the rows of a [`Rows`] store.
#[derive(Clone, Debug)]
pub struct RowIter<'a> {
    rows: &'a Rows,
    ends: std::slice::Iter<'a, u64>,
    start: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = OutputItem<'a>;

    fn next(&mut self) -> Option<OutputItem<'a>> {
        let end = *self.ends.next()?;
        let item = self.rows.view(self.start, end);
        self.start = (end & !GROUP_ROW) as usize;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for RowIter<'_> {}

impl<'a> IntoIterator for &'a Rows {
    type Item = OutputItem<'a>;
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

impl<'a> FromIterator<OutputItem<'a>> for Rows {
    fn from_iter<I: IntoIterator<Item = OutputItem<'a>>>(items: I) -> Self {
        let mut rows = Rows::new();
        for item in items {
            rows.push(item);
        }
        rows
    }
}

/// The collected result of a join run.
#[derive(Clone, Debug, Default)]
pub struct JoinOutput {
    /// Output rows in emission order.
    pub items: Rows,
    /// Operation counters of the producing run.
    pub stats: JoinStats,
    /// Whether the run finished, or stopped early on a budget/cancel —
    /// in which case the rows are still lossless over the processed
    /// region and the variant carries extrapolated totals.
    pub completion: Completion,
}

impl JoinOutput {
    /// Number of individual link rows.
    pub fn num_links(&self) -> usize {
        self.items.ends.iter().filter(|&&end| end & GROUP_ROW == 0).count()
    }

    /// Number of group rows.
    pub fn num_groups(&self) -> usize {
        self.items.len() - self.num_links()
    }

    /// Total links implied by the output, counting duplicates once per
    /// occurrence (the sum of [`OutputItem::implied_links`]).
    pub fn implied_links(&self) -> u64 {
        self.items.iter().map(|item| item.implied_links()).sum()
    }

    /// Output size in bytes in the paper's text format at the given id
    /// width — exactly what an [`OutputWriter`] would produce when every
    /// id fits the width ([`Rows::total_bytes`]).
    pub fn total_bytes(&self, width: usize) -> u64 {
        self.items.total_bytes(width)
    }

    /// Expands the compact output back to the plain link set: every link,
    /// each normalized to `(min, max)`, deduplicated. This is the paper's
    /// "individual links can easily be recovered by expanding the
    /// returned groups", used by the lossless-ness checks.
    pub fn expanded_link_set(&self) -> BTreeSet<(RecordId, RecordId)> {
        let mut set = BTreeSet::new();
        for item in &self.items {
            match item {
                OutputItem::Link(a, b) => {
                    if a != b {
                        set.insert((a.min(b), a.max(b)));
                    }
                }
                OutputItem::Group(ids) => {
                    for i in 0..ids.len() {
                        for j in (i + 1)..ids.len() {
                            let (a, b) = (ids[i], ids[j]);
                            if a != b {
                                set.insert((a.min(b), a.max(b)));
                            }
                        }
                    }
                }
            }
        }
        set
    }

    /// Streams the rows into an [`OutputWriter`] (for file output or
    /// byte-exact re-measurement), one sink write per row. Rows written
    /// before a sink failure remain valid output.
    ///
    /// # Errors
    /// Returns [`StorageError`] from the first failing sink write.
    pub fn write_to<S: OutputSink>(
        &self,
        writer: &mut OutputWriter<S>,
    ) -> Result<(), StorageError> {
        for item in &self.items {
            match item {
                OutputItem::Link(a, b) => writer.write_link(a, b)?,
                OutputItem::Group(ids) => writer.write_group(ids)?,
            }
        }
        Ok(())
    }

    /// Sizes of all group rows, descending — the view the outlier-mining
    /// application (§I) starts from.
    pub fn group_sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self
            .items
            .iter()
            .filter_map(|i| match i {
                OutputItem::Group(ids) => Some(ids.len()),
                OutputItem::Link(..) => None,
            })
            .collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csj_storage::VecSink;

    #[test]
    fn implied_links_per_item() {
        assert_eq!(OutputItem::Link(1, 2).implied_links(), 1);
        assert_eq!(OutputItem::Group(&[1, 2, 3, 4]).implied_links(), 6);
        assert_eq!(OutputItem::Group(&[9]).implied_links(), 0);
    }

    #[test]
    fn format_bytes_matches_writer() {
        let items =
            [OutputItem::Link(1, 22), OutputItem::Group(&[1, 2, 3]), OutputItem::Group(&[7])];
        for width in [2usize, 4, 7] {
            let out = JoinOutput {
                items: items.into_iter().collect(),
                stats: JoinStats::default(),
                ..Default::default()
            };
            let mut w = OutputWriter::new(VecSink::new(), width);
            out.write_to(&mut w).unwrap();
            assert_eq!(out.total_bytes(width), w.bytes_written(), "width {width}");
        }
    }

    #[test]
    fn paper_figure1_example_counts() {
        // Figure 1: 8 links reduced to 3 groups ({1,2,3,4}, {4,5}, {6,7}),
        // a 50% savings in rows.
        let compact = JoinOutput {
            items: Rows::from_iter([
                OutputItem::Group(&[1, 2, 3, 4]),
                OutputItem::Group(&[4, 5]),
                OutputItem::Group(&[6, 7]),
            ]),
            stats: JoinStats::default(),
            ..Default::default()
        };
        assert_eq!(compact.num_groups(), 3);
        assert_eq!(compact.expanded_link_set().len(), 8);
    }

    #[test]
    fn expansion_dedups_overlapping_groups() {
        // Figure 2: groups {1,2,3,4}, {2,5}, {3,4,5} over the integer line
        // with eps = 3 expand to exactly the 9 standard-join links.
        let out = JoinOutput {
            items: Rows::from_iter([
                OutputItem::Group(&[1, 2, 3, 4]),
                OutputItem::Group(&[2, 5]),
                OutputItem::Group(&[3, 4, 5]),
            ]),
            stats: JoinStats::default(),
            ..Default::default()
        };
        let set = out.expanded_link_set();
        assert_eq!(set.len(), 9);
        for a in 1u32..=5 {
            for b in (a + 1)..=5 {
                assert_eq!(set.contains(&(a, b)), b - a <= 3, "pair ({a},{b})");
            }
        }
        // Implied links count duplicates: 6 + 1 + 3 = 10 > 9.
        assert_eq!(out.implied_links(), 10);
    }

    #[test]
    fn expansion_normalizes_and_ignores_self_pairs() {
        let out = JoinOutput {
            items: Rows::from_iter([
                OutputItem::Link(5, 3),
                OutputItem::Link(3, 5),
                OutputItem::Link(4, 4),
            ]),
            stats: JoinStats::default(),
            ..Default::default()
        };
        let set = out.expanded_link_set();
        assert_eq!(set.into_iter().collect::<Vec<_>>(), vec![(3, 5)]);
    }

    #[test]
    fn group_sizes_sorted_descending() {
        let out = JoinOutput {
            items: Rows::from_iter([
                OutputItem::Group(&[1, 2]),
                OutputItem::Link(8, 9),
                OutputItem::Group(&[3, 4, 5, 6]),
                OutputItem::Group(&[7, 8, 9]),
            ]),
            stats: JoinStats::default(),
            ..Default::default()
        };
        assert_eq!(out.group_sizes(), vec![4, 3, 2]);
    }

    #[test]
    fn rows_store_links_and_groups_flat() {
        let mut rows = Rows::new();
        rows.push_link(3, 9);
        rows.push_group(&[4, 5, 6]);
        rows.push_group_iter([7, 8]);
        assert_eq!((rows.len(), rows.num_ids()), (3, 7));
        assert_eq!(rows.get(1), Some(OutputItem::Group(&[4, 5, 6])));
        assert_eq!(rows.get(3), None);

        let mut joined = Rows::from_iter([OutputItem::Link(1, 2)]);
        joined.append(&rows);
        assert_eq!(
            joined.iter().collect::<Vec<_>>(),
            [
                OutputItem::Link(1, 2),
                OutputItem::Link(3, 9),
                OutputItem::Group(&[4, 5, 6]),
                OutputItem::Group(&[7, 8]),
            ]
        );
        assert_eq!(joined.get(3), Some(OutputItem::Group(&[7, 8])));
        // A link and a 2-group hold the same ids but stay distinct rows.
        let link = Rows::from_iter([OutputItem::Link(1, 2)]);
        assert_ne!(link, Rows::from_iter([OutputItem::Group(&[1, 2])]));
        assert_eq!(format!("{link:?}"), "[Link(1, 2)]");
    }
}
