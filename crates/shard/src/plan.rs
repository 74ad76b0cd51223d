//! The shard plan: which slice of the task list a task key runs.
//!
//! Every worker expands the same key-ordered task list that
//! `csj_core::parallel::ParallelJoin` runs on threads (the tree, the
//! expansion rules and the target are the same in every worker), so a
//! shard is named by a key alone. Key `[i]` takes slice `i` of the
//! `shards` equal slices; a re-split of key `k` gives `k.0` and `k.1`,
//! the two halves of `k`'s slice. Slices of sibling keys are adjacent
//! and together make their parent's, so committing the completed slices
//! in key order commits the task list in order (McCauley & Silvestri's
//! partitioning by work rather than by space).

use std::ops::Range;

/// The entries of a `total`-entry task list that `key` runs, under a
/// plan of `shards` top-level slices. The supervisor halves only slices
/// of two or more entries, so both halves are non-empty.
pub fn slice_of(key: &[u32], shards: usize, total: usize) -> Range<usize> {
    let Some((&top, halves)) = key.split_first() else { return 0..total };
    let shards = shards.max(1);
    let top = (top as usize).min(shards);
    let mut slice = top * total / shards..(top + 1).min(shards) * total / shards;
    for &half in halves {
        let mid = slice.start + slice.len() / 2;
        slice = if half == 0 { slice.start..mid } else { mid..slice.end };
    }
    slice
}

/// Formats a task key dotted (`[2, 0]` → `"2.0"`).
pub fn key_string(key: &[u32]) -> String {
    key.iter().map(u32::to_string).collect::<Vec<_>>().join(".")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_level_slices_partition_the_list_in_key_order() {
        for total in [0, 1, 5, 24, 97] {
            for shards in [1, 2, 3, 7, 100] {
                let mut next = 0;
                for i in 0..shards as u32 {
                    let slice = slice_of(&[i], shards, total);
                    assert_eq!(slice.start, next, "total {total}, {shards} shards");
                    next = slice.end;
                }
                assert_eq!(next, total);
            }
        }
    }

    #[test]
    fn halves_partition_their_parent() {
        let parent = slice_of(&[1], 3, 50);
        let (left, right) = (slice_of(&[1, 0], 3, 50), slice_of(&[1, 1], 3, 50));
        assert_eq!((left.start, left.end, right.end), (parent.start, right.start, parent.end));
        assert!(!left.is_empty() && !right.is_empty());
    }

    #[test]
    fn key_strings_are_dotted() {
        assert_eq!(key_string(&[2]), "2");
        assert_eq!(key_string(&[2, 0, 1]), "2.0.1");
        assert_eq!(key_string(&[]), "");
    }
}
