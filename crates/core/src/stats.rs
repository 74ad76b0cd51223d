//! Operation counters collected by every join run.
//!
//! The paper's evaluation needs three views of a run: wall-clock time
//! (measured by the harness), output size in bytes (from the writer), and
//! *why* the time went where it did — Experiment 3 attributes the compact
//! joins' savings mostly to the early-stopping rule (fewer distance
//! computations) and partly to smaller output. These counters expose that
//! attribution directly.

/// Counters accumulated during a join.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Single-node recursion steps (`simJoin(n)` calls).
    pub node_visits: u64,
    /// Node-pair recursion steps (`simJoin(n1, n2)` calls).
    pub pair_visits: u64,
    /// Point-to-point distance predicate evaluations: the pairs the leaf
    /// probes actually evaluate. A Euclidean cross-leaf probe evaluates
    /// only its ε-strip (the rows of each leaf within ε of the other's
    /// box), so this counts fewer pairs than the leaves' product.
    pub distance_computations: u64,
    /// Early stops on a single node (subtree emitted as one group).
    pub early_stops_node: u64,
    /// Early stops on a node pair.
    pub early_stops_pair: u64,
    /// Links emitted individually.
    pub links_emitted: u64,
    /// Groups emitted (early stops + CSJ window groups).
    pub groups_emitted: u64,
    /// Sum of group sizes (members across all emitted groups).
    pub group_members_emitted: u64,
    /// CSJ: merge attempts against a window group.
    pub merge_attempts: u64,
    /// CSJ: links successfully merged into an existing group.
    pub merges_succeeded: u64,
    /// Node-pair recursions skipped because MINDIST exceeded ε.
    pub pairs_pruned: u64,
    /// Links implied by emitted groups (`k·(k−1)/2` per group of size
    /// `k`); together with [`JoinStats::links_emitted`] this is the
    /// represented-link total that resource budgets meter.
    pub links_in_groups: u64,
    /// Transient storage faults absorbed by retry (pager / sink level).
    pub io_retries: u64,
    /// Worker threads the run actually used (1 for sequential joins).
    pub threads_used: u64,
    /// Tasks the parallel runner committed complete (0 for sequential
    /// joins).
    pub tasks_executed: u64,
    /// Always 0: the parallel runner's ordered task stream never steals.
    /// Kept only because the frozen benchmark reads it; it goes with the
    /// next benchmark change.
    pub tasks_stolen: u64,
    /// Always 0: the parallel runner never splits a task at run time.
    /// Kept only because the frozen benchmark reads it; it goes with the
    /// next benchmark change.
    pub tasks_split: u64,
    /// Sharded runs: shard attempts relaunched after a failure
    /// (worker lost, corrupt frame, timeout, typed worker error).
    pub shard_retries: u64,
    /// Sharded runs: shard attempts abandoned because they outlived the
    /// per-shard deadline.
    pub shard_timeouts: u64,
    /// Sharded runs: shards re-split into two sub-shards after timing
    /// out twice (skew mitigation).
    pub shard_resplits: u64,
    /// Sharded runs: results delivered by a speculative twin launched
    /// against a straggler, beating the original attempt.
    pub shard_speculative_wins: u64,
    /// Sequence of visited node ids (one entry per node access), present
    /// only when [`crate::JoinConfig::record_access_log`] is set.
    pub access_log: Option<Vec<u32>>,
}

impl JoinStats {
    /// A fresh stats block, with the access log pre-armed when requested.
    pub fn new(record_access_log: bool) -> Self {
        JoinStats { access_log: record_access_log.then(Vec::new), ..Default::default() }
    }

    /// Records a node access (counted, and logged when armed).
    #[inline]
    pub fn touch_node(&mut self, node: u32) {
        if let Some(log) = &mut self.access_log {
            log.push(node);
        }
    }

    /// Total output rows (links + groups).
    pub fn rows_emitted(&self) -> u64 {
        self.links_emitted + self.groups_emitted
    }

    /// Merges these stats into `self` (used by the parallel runner).
    pub fn absorb(&mut self, other: &JoinStats) {
        self.node_visits += other.node_visits;
        self.pair_visits += other.pair_visits;
        self.distance_computations += other.distance_computations;
        self.early_stops_node += other.early_stops_node;
        self.early_stops_pair += other.early_stops_pair;
        self.links_emitted += other.links_emitted;
        self.groups_emitted += other.groups_emitted;
        self.group_members_emitted += other.group_members_emitted;
        self.merge_attempts += other.merge_attempts;
        self.merges_succeeded += other.merges_succeeded;
        self.pairs_pruned += other.pairs_pruned;
        self.links_in_groups += other.links_in_groups;
        self.io_retries += other.io_retries;
        // Scheduler counters: threads_used is a property of the whole
        // run (kept, not summed); the task counters accumulate.
        self.threads_used = self.threads_used.max(other.threads_used);
        self.tasks_executed += other.tasks_executed;
        self.tasks_stolen += other.tasks_stolen;
        self.tasks_split += other.tasks_split;
        self.shard_retries += other.shard_retries;
        self.shard_timeouts += other.shard_timeouts;
        self.shard_resplits += other.shard_resplits;
        self.shard_speculative_wins += other.shard_speculative_wins;
        if let (Some(mine), Some(theirs)) = (&mut self.access_log, &other.access_log) {
            mine.extend_from_slice(theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_without_log() {
        let s = JoinStats::new(false);
        assert!(s.access_log.is_none());
        assert_eq!(s.rows_emitted(), 0);
    }

    #[test]
    fn touch_node_logs_when_armed() {
        let mut s = JoinStats::new(true);
        s.touch_node(3);
        s.touch_node(7);
        assert_eq!(s.access_log.as_deref(), Some(&[3, 7][..]));
        let mut silent = JoinStats::new(false);
        silent.touch_node(3);
        assert!(silent.access_log.is_none());
    }

    #[test]
    fn absorb_sums_counters_and_logs() {
        let mut a = JoinStats::new(true);
        a.links_emitted = 5;
        a.touch_node(1);
        let mut b = JoinStats::new(true);
        b.links_emitted = 7;
        b.groups_emitted = 2;
        b.touch_node(9);
        a.absorb(&b);
        assert_eq!(a.links_emitted, 12);
        assert_eq!(a.groups_emitted, 2);
        assert_eq!(a.rows_emitted(), 14);
        assert_eq!(a.access_log.as_deref(), Some(&[1, 9][..]));
    }
}
