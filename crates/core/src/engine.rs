//! The Figure-3 join engine: one recursion for every join path.
//!
//! Figure 3 of the paper gives one pseudo-code skeleton for all three
//! algorithms — `simJoin(n)` / `simJoin(n1, n2)` — with the compact
//! variants differing only in the italicized early-stopping lines and in
//! what happens to a qualifying link. [`Engine`] is that skeleton:
//!
//! * `early_stop = false`, [`DirectEmit`] → **SSJ**;
//! * `early_stop = true`, [`DirectEmit`] → **N-CSJ**;
//! * `early_stop = true`, [`WindowedEmit`] → **CSJ(g)**.
//!
//! The engine reaches nodes through a [`NodeSource`]. Every [`JoinIndex`]
//! is one, with `NodeId` handles and no I/O; `outofcore::PagedSource`
//! reads node pages through a pinned buffer pool; and the spatial join's
//! two-tree source runs `simJoin(n1, n2)` from the pair of roots of two
//! trees (§IV-D). Every pruning and
//! early-stopping decision is a pure function of bounding shapes a parent
//! already holds for its children, so the in-memory and paged sources
//! make the same decisions in the same order and emit the same bytes;
//! only the I/O differs.
//!
//! A [`Step`] is `simJoin(n)` or `simJoin(n1, n2)`. One function decides
//! what a step does once visited: stop early, probe a leaf (pair), or run
//! its surviving child steps — in stored order, or in plane-sweep order
//! when configured. The recursion runs those children; the parallel
//! runner's task splitter and the resilient runner's root split (the one
//! sequential task loop, over any source) take them from
//! [`Engine::split`] and run them as separate tasks, so every path counts
//! the same visits and pruned pairs.
//!
//! Output rows go to a [`RowSink`] — collected in memory or streamed
//! straight into a `csj-storage` writer — so the same engine serves both
//! verification (structured output) and the experiment harness (byte
//! counting at full speed).

use csj_geom::{DistKernel, Mbr, Metric, Point, RecordId, SoaView};
use csj_index::{JoinIndex, LeafEntry, NodeId};
use csj_storage::{OutputSink, OutputWriter};

use crate::budget::{CancelToken, StopReason};
use crate::error::CsjError;
use crate::group::{GroupShape, GroupWindow, LinkProbe, OpenGroup};
use crate::output::Rows;
use crate::stats::JoinStats;
use crate::JoinConfig;

/// Receives finished output rows. Row delivery is fallible: a sink
/// backed by real storage can fail, and the engine stops cleanly at the
/// row boundary instead of panicking.
pub trait RowSink {
    /// An individual link row.
    fn link_row(&mut self, a: RecordId, b: RecordId) -> Result<(), CsjError>;
    /// A group row (at least two members).
    fn group_row(&mut self, ids: &[RecordId]) -> Result<(), CsjError>;
}

/// Collects rows into a flat [`Rows`] store.
#[derive(Debug, Default)]
pub struct CollectSink {
    /// Rows collected so far.
    pub items: Rows,
}

impl RowSink for CollectSink {
    fn link_row(&mut self, a: RecordId, b: RecordId) -> Result<(), CsjError> {
        self.items.push_link(a, b);
        Ok(())
    }
    fn group_row(&mut self, ids: &[RecordId]) -> Result<(), CsjError> {
        self.items.push_group(ids);
        Ok(())
    }
}

/// Streams rows into an [`OutputWriter`] without retaining them.
pub struct StreamSink<'w, S> {
    writer: &'w mut OutputWriter<S>,
}

impl<'w, S: OutputSink> StreamSink<'w, S> {
    /// Wraps a writer.
    pub fn new(writer: &'w mut OutputWriter<S>) -> Self {
        StreamSink { writer }
    }
}

impl<S: OutputSink> RowSink for StreamSink<'_, S> {
    fn link_row(&mut self, a: RecordId, b: RecordId) -> Result<(), CsjError> {
        self.writer.write_link(a, b).map_err(CsjError::from)
    }
    fn group_row(&mut self, ids: &[RecordId]) -> Result<(), CsjError> {
        self.writer.write_group(ids).map_err(CsjError::from)
    }
}

/// What to do with a qualifying link / an early-stopped subtree.
pub trait LinkHandler<const D: usize> {
    /// Handles one qualifying link.
    fn on_link<R: RowSink>(
        &mut self,
        a: RecordId,
        pa: &Point<D>,
        b: RecordId,
        pb: &Point<D>,
        sink: &mut R,
        stats: &mut JoinStats,
    ) -> Result<(), CsjError>;

    /// Handles a subtree (or pair of subtrees) whose bounding shape fits
    /// within ε: `ids` are all records below, the first `first` of them
    /// from the step's first node, and `mbr` is the covering shape.
    fn on_subtree<R: RowSink>(
        &mut self,
        ids: Vec<RecordId>,
        first: usize,
        mbr: &Mbr<D>,
        sink: &mut R,
        stats: &mut JoinStats,
    ) -> Result<(), CsjError>;

    /// Flushes any buffered state at the end of the join (a handler that
    /// buffers nothing keeps this default).
    fn finish<R: RowSink>(
        &mut self,
        _sink: &mut R,
        _stats: &mut JoinStats,
    ) -> Result<(), CsjError> {
        Ok(())
    }
}

/// Emits a finalized group row: suppresses single-member rows (they
/// encode no links) and tallies the rest.
#[inline]
fn emit_group_row<R: RowSink>(
    sink: &mut R,
    stats: &mut JoinStats,
    ids: &[RecordId],
) -> Result<(), CsjError> {
    if ids.len() < 2 {
        return Ok(());
    }
    let k = ids.len() as u64;
    sink.group_row(ids)?;
    stats.groups_emitted += 1;
    stats.group_members_emitted += k;
    stats.links_in_groups += k * (k - 1) / 2;
    Ok(())
}

/// SSJ / N-CSJ behaviour: links go out individually, subtrees as one
/// group row each.
#[derive(Debug, Default)]
pub struct DirectEmit;

impl<const D: usize> LinkHandler<D> for DirectEmit {
    fn on_link<R: RowSink>(
        &mut self,
        a: RecordId,
        _pa: &Point<D>,
        b: RecordId,
        _pb: &Point<D>,
        sink: &mut R,
        stats: &mut JoinStats,
    ) -> Result<(), CsjError> {
        sink.link_row(a, b)?;
        stats.links_emitted += 1;
        Ok(())
    }

    fn on_subtree<R: RowSink>(
        &mut self,
        ids: Vec<RecordId>,
        _first: usize,
        _mbr: &Mbr<D>,
        sink: &mut R,
        stats: &mut JoinStats,
    ) -> Result<(), CsjError> {
        emit_group_row(sink, stats, &ids)
    }
}

/// CSJ(g) behaviour: links are merged into the `g` most recent groups
/// (opening a new group on failure); subtree groups also enter the
/// window. Groups leave the window — and reach the sink — oldest first.
#[derive(Debug)]
pub struct WindowedEmit<S, const D: usize> {
    window: GroupWindow<S, D>,
    eps: f64,
    metric: Metric,
}

impl<S: GroupShape<D>, const D: usize> WindowedEmit<S, D> {
    /// A window of `g` recent groups under the join parameters.
    pub fn new(g: usize, eps: f64, metric: Metric) -> Self {
        WindowedEmit { window: GroupWindow::new(g), eps, metric }
    }
}

impl<S: GroupShape<D>, const D: usize> LinkHandler<D> for WindowedEmit<S, D> {
    fn on_link<R: RowSink>(
        &mut self,
        a: RecordId,
        pa: &Point<D>,
        b: RecordId,
        pb: &Point<D>,
        sink: &mut R,
        stats: &mut JoinStats,
    ) -> Result<(), CsjError> {
        let link = LinkProbe::new(a, pa, b, pb);
        if self.window.try_merge_link(&link, self.eps, self.metric, &mut stats.merge_attempts) {
            stats.merges_succeeded += 1;
            return Ok(());
        }
        // Probe missed: open a group for the link in place; the displaced
        // oldest group (if any) is emitted straight from its ring slot.
        self.window.open_link(&link, self.metric, |ids| emit_group_row(sink, stats, ids))
    }

    fn on_subtree<R: RowSink>(
        &mut self,
        ids: Vec<RecordId>,
        _first: usize,
        mbr: &Mbr<D>,
        sink: &mut R,
        stats: &mut JoinStats,
    ) -> Result<(), CsjError> {
        let group = OpenGroup::from_subtree(ids, mbr, self.metric);
        if let Some(evicted) = self.window.push(group) {
            emit_group_row(sink, stats, &evicted.into_sorted_members())?;
        }
        Ok(())
    }

    fn finish<R: RowSink>(&mut self, sink: &mut R, stats: &mut JoinStats) -> Result<(), CsjError> {
        for group in self.window.drain() {
            emit_group_row(sink, stats, &group.into_sorted_members())?;
        }
        Ok(())
    }
}

/// One Figure-3 call: `simJoin(n)` or `simJoin(n1, n2)`.
#[derive(Clone, Copy, Debug)]
pub enum Step<N> {
    /// `simJoin(n)`: the self-join of one subtree.
    Node(N),
    /// `simJoin(n1, n2)`: the join across two subtrees.
    Pair(N, N),
}

/// A pinned leaf: its records and their struct-of-arrays coordinate
/// slab, row for row (`soa().point(i) == entries()[i].point`).
pub trait LeafView<const D: usize> {
    /// The leaf's records.
    fn entries(&self) -> &[LeafEntry<D>];
    /// The records' coordinates, one contiguous slab per dimension.
    fn soa(&self) -> SoaView<'_, D>;
}

/// How the engine reaches tree nodes.
///
/// A handle carries what the pruning rules need, so the three bounds are
/// I/O-free; reading a node's contents (children, leaf records) is
/// fallible and may pin a page until the returned view drops. Every
/// [`JoinIndex`] is a source, with `NodeId` handles and no I/O;
/// `outofcore::PagedSource` reads node pages through a buffer pool.
pub trait NodeSource<const D: usize> {
    /// A node handle.
    type Node: Copy;
    /// A pinned leaf.
    type Leaf<'a>: LeafView<D>
    where
        Self: 'a;

    /// The root, or `None` for an empty tree.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when the root cannot be read.
    fn root(&mut self) -> Result<Option<Self::Node>, CsjError>;

    /// `true` if `n` stores records directly.
    fn is_leaf(&self, n: Self::Node) -> bool;

    /// The id the access log records for a visit of `n`.
    fn log_id(&self, n: Self::Node) -> u32;

    /// A rectangle covering `n`'s bounding shape.
    fn mbr(&self, n: Self::Node) -> Mbr<D>;

    /// Upper bound on the distance between two points below `n`.
    fn max_diameter(&self, n: Self::Node, metric: Metric) -> f64;

    /// Upper bound on the distance between two points below `a` or `b`.
    fn pair_diameter(&self, a: Self::Node, b: Self::Node, metric: Metric) -> f64;

    /// Lower bound on the distance between a point below `a` and one
    /// below `b`.
    fn min_dist(&self, a: Self::Node, b: Self::Node, metric: Metric) -> f64;

    /// The children of internal node `n`, in stored order.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when `n` cannot be read.
    fn children(&mut self, n: Self::Node) -> Result<Vec<Self::Node>, CsjError>;

    /// Pins leaf `n`.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when `n` cannot be read.
    fn leaf(&mut self, n: Self::Node) -> Result<Self::Leaf<'_>, CsjError>;

    /// Pins leaves `a` and `b` for a cross probe, readying both before
    /// pinning either.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when either leaf cannot be read.
    fn leaf_pair(
        &mut self,
        a: Self::Node,
        b: Self::Node,
    ) -> Result<(Self::Leaf<'_>, Self::Leaf<'_>), CsjError>;

    /// Appends every record id below `n` to `out`, in
    /// [`JoinIndex::collect_record_ids`] order (the group-member order).
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when a node below `n` cannot be read.
    fn collect_record_ids(
        &mut self,
        n: Self::Node,
        out: &mut Vec<RecordId>,
    ) -> Result<(), CsjError>;

    /// Appends every record below `n` to `out` (for tightened group
    /// MBRs).
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when a node below `n` cannot be read.
    fn collect_entries(
        &mut self,
        n: Self::Node,
        out: &mut Vec<LeafEntry<D>>,
    ) -> Result<(), CsjError>;

    /// The rules the engine expands steps by, given before the run: a
    /// source that reads ahead can apply them to children it already
    /// holds.
    fn expand_with(&mut self, _expander: Expander) {}

    /// A frame is about to run `steps`, in order.
    fn push(&mut self, _steps: &[Step<Self::Node>]) {}

    /// The frame of the matching [`NodeSource::push`] has returned.
    fn pop(&mut self) {}

    /// The run is over, finished or failed: release what the source
    /// holds and add what it counted to `stats` (storage retries
    /// absorbed during the run).
    fn end_run(&mut self, _stats: &mut JoinStats) {}
}

/// A leaf of an in-memory [`JoinIndex`], read on demand.
pub struct IndexLeaf<'t, T: ?Sized> {
    tree: &'t T,
    n: NodeId,
}

impl<T: JoinIndex<D> + ?Sized, const D: usize> LeafView<D> for IndexLeaf<'_, T> {
    fn entries(&self) -> &[LeafEntry<D>] {
        self.tree.leaf_entries(self.n)
    }
    fn soa(&self) -> SoaView<'_, D> {
        self.tree.leaf_soa(self.n)
    }
}

impl<'t, T: JoinIndex<D> + ?Sized, const D: usize> NodeSource<D> for &'t T {
    type Node = NodeId;
    type Leaf<'a>
        = IndexLeaf<'t, T>
    where
        Self: 'a;

    fn root(&mut self) -> Result<Option<NodeId>, CsjError> {
        Ok((**self).root())
    }
    fn is_leaf(&self, n: NodeId) -> bool {
        (**self).is_leaf(n)
    }
    fn log_id(&self, n: NodeId) -> u32 {
        n.0
    }
    fn mbr(&self, n: NodeId) -> Mbr<D> {
        (**self).node_mbr(n)
    }
    fn max_diameter(&self, n: NodeId, metric: Metric) -> f64 {
        (**self).max_diameter(n, metric)
    }
    fn pair_diameter(&self, a: NodeId, b: NodeId, metric: Metric) -> f64 {
        (**self).pair_diameter(a, b, metric)
    }
    fn min_dist(&self, a: NodeId, b: NodeId, metric: Metric) -> f64 {
        (**self).min_dist(a, b, metric)
    }
    fn children(&mut self, n: NodeId) -> Result<Vec<NodeId>, CsjError> {
        Ok((**self).children(n).to_vec())
    }
    fn leaf(&mut self, n: NodeId) -> Result<IndexLeaf<'t, T>, CsjError> {
        Ok(IndexLeaf { tree: *self, n })
    }
    fn leaf_pair(
        &mut self,
        a: NodeId,
        b: NodeId,
    ) -> Result<(IndexLeaf<'t, T>, IndexLeaf<'t, T>), CsjError> {
        Ok((IndexLeaf { tree: *self, n: a }, IndexLeaf { tree: *self, n: b }))
    }
    fn collect_record_ids(&mut self, n: NodeId, out: &mut Vec<RecordId>) -> Result<(), CsjError> {
        (**self).collect_record_ids(n, out);
        Ok(())
    }
    fn collect_entries(&mut self, n: NodeId, out: &mut Vec<LeafEntry<D>>) -> Result<(), CsjError> {
        (**self).collect_entries(n, out);
        Ok(())
    }
}

/// What a step does once visited.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expansion {
    /// Its subtree (pair) fits within ε: one group.
    EarlyStop,
    /// A leaf (pair): probe the records.
    Leaf,
    /// It expands into child steps.
    Children,
}

/// The rules that decide a step's fate, none of which reads a node: the
/// early-stop and leaf tests, then child pairing with the MINDIST prune,
/// in stored order or, with plane sweep, in order of the children's
/// lower bound on the widest axis, where a pair is skipped once the axis
/// gap alone exceeds ε.
///
/// The engine applies them to the children it reads. A source that
/// reads ahead gets them from [`NodeSource::expand_with`] and applies
/// them to children it already holds, to learn a frame's page reads
/// before the frame runs.
#[derive(Clone, Copy, Debug)]
pub struct Expander {
    cfg: JoinConfig,
    early_stop: bool,
}

impl Expander {
    /// The rules of a join with `cfg`; `early_stop` enables the compact
    /// joins' group rules.
    pub fn new(cfg: JoinConfig, early_stop: bool) -> Self {
        Expander { cfg, early_stop }
    }

    /// How `step` expands.
    pub fn classify<S: NodeSource<D>, const D: usize>(
        &self,
        src: &S,
        step: Step<S::Node>,
    ) -> Expansion {
        let (eps, metric) = (self.cfg.epsilon, self.cfg.metric);
        match step {
            Step::Node(n) => {
                if self.early_stop && src.max_diameter(n, metric) <= eps {
                    Expansion::EarlyStop
                } else if src.is_leaf(n) {
                    Expansion::Leaf
                } else {
                    Expansion::Children
                }
            }
            Step::Pair(a, b) => {
                if self.early_stop && src.pair_diameter(a, b, metric) <= eps {
                    Expansion::EarlyStop
                } else if src.is_leaf(a) && src.is_leaf(b) {
                    Expansion::Leaf
                } else {
                    Expansion::Children
                }
            }
        }
    }

    /// Pairs the children of a `step` classified [`Expansion::Children`]:
    /// `ca` holds the children of `n` for `Node(n)`, or of `a` for
    /// `Pair(a, b)` (empty if `a` is a leaf); `cb` those of `b` (empty
    /// if `b` is a leaf). Hands `emit` each child step in execution
    /// order and `None` for each pair the MINDIST prune drops, until
    /// `emit` returns `false`.
    pub fn pair<S: NodeSource<D>, const D: usize>(
        &self,
        src: &S,
        step: Step<S::Node>,
        ca: Vec<S::Node>,
        cb: Vec<S::Node>,
        mut emit: impl FnMut(Option<Step<S::Node>>) -> bool,
    ) {
        // A pair step, or `None` when the MINDIST prune drops it.
        let pair = |x: S::Node, y: S::Node| {
            (src.min_dist(x, y, self.cfg.metric) <= self.cfg.epsilon).then_some(Step::Pair(x, y))
        };
        match step {
            Step::Node(n) => {
                let axis = self.sweep_axis(src, &[n]);
                let children = self.sweep_sorted(src, ca, axis);
                for (i, &a) in children.iter().enumerate() {
                    if !emit(Some(Step::Node(a))) {
                        return;
                    }
                    for &b in &children[(i + 1)..] {
                        if self.swept_past(src, axis, a, b) {
                            break;
                        }
                        if !emit(pair(a, b)) {
                            return;
                        }
                    }
                }
            }
            Step::Pair(a, b) => match (src.is_leaf(a), src.is_leaf(b)) {
                (true, true) => {}
                (true, false) => {
                    for c in cb {
                        if !emit(pair(a, c)) {
                            return;
                        }
                    }
                }
                (false, true) => {
                    for c in ca {
                        if !emit(pair(c, b)) {
                            return;
                        }
                    }
                }
                (false, false) => {
                    let axis = self.sweep_axis(src, &[a, b]);
                    let (ca, cb) =
                        (self.sweep_sorted(src, ca, axis), self.sweep_sorted(src, cb, axis));
                    for &x in &ca {
                        for &y in &cb {
                            if self.swept_past(src, axis, x, y) {
                                break;
                            }
                            if !emit(pair(x, y)) {
                                return;
                            }
                        }
                    }
                }
            },
        }
    }

    /// The plane-sweep axis over `nodes`' combined box, or `None` when
    /// plane sweep is off.
    fn sweep_axis<S: NodeSource<D>, const D: usize>(
        &self,
        src: &S,
        nodes: &[S::Node],
    ) -> Option<usize> {
        self.cfg.plane_sweep.then(|| {
            let union = nodes.iter().map(|&n| src.mbr(n)).reduce(|x, y| x.union(&y));
            union.map_or(0, |m| widest_axis(&m))
        })
    }

    /// `nodes` in sweep order: by lower bound on `axis` (stable), or as
    /// stored without plane sweep.
    fn sweep_sorted<S: NodeSource<D>, const D: usize>(
        &self,
        src: &S,
        mut nodes: Vec<S::Node>,
        axis: Option<usize>,
    ) -> Vec<S::Node> {
        if let Some(axis) = axis {
            let lo = |n: S::Node| src.mbr(n).lo[axis];
            nodes.sort_by(|&x, &y| lo(x).total_cmp(&lo(y)));
        }
        nodes
    }

    /// `true` when `b` starts more than ε past the end of `a` on the
    /// sweep axis; in sweep order, so does every node after `b`.
    fn swept_past<S: NodeSource<D>, const D: usize>(
        &self,
        src: &S,
        axis: Option<usize>,
        a: S::Node,
        b: S::Node,
    ) -> bool {
        axis.is_some_and(|axis| src.mbr(b).lo[axis] - src.mbr(a).hi[axis] > self.cfg.epsilon)
    }
}

/// The widest side of `mbr`: the plane-sweep axis, where axis
/// separation prunes the most pairs.
fn widest_axis<const D: usize>(mbr: &Mbr<D>) -> usize {
    let mut best = 0;
    let mut best_extent = f64::NEG_INFINITY;
    for d in 0..D {
        if mbr.extent(d) > best_extent {
            best_extent = mbr.extent(d);
            best = d;
        }
    }
    best
}

/// Plane-sweep leaf self-join: entries sorted along `axis`; the inner
/// scan stops once the axis gap alone exceeds ε (valid for every `Lp`
/// metric, where per-axis deltas lower-bound the distance).
fn sweep_self<const D: usize>(
    entries: &[LeafEntry<D>],
    axis: usize,
    metric: Metric,
    eps: f64,
    comps: &mut u64,
    mut hit: impl FnMut(&LeafEntry<D>, &LeafEntry<D>) -> Result<(), CsjError>,
) -> Result<(), CsjError> {
    let mut entries = entries.to_vec();
    entries.sort_by(|x, y| x.point[axis].total_cmp(&y.point[axis]));
    for (i, x) in entries.iter().enumerate() {
        for y in &entries[(i + 1)..] {
            if y.point[axis] - x.point[axis] > eps {
                break;
            }
            *comps += 1;
            if metric.within(&x.point, &y.point, eps) {
                hit(x, y)?;
            }
        }
    }
    Ok(())
}

/// Plane-sweep leaf cross-join: both entry lists sorted along `axis`,
/// joined with a sliding window.
fn sweep_cross<const D: usize>(
    left: &[LeafEntry<D>],
    right: &[LeafEntry<D>],
    axis: usize,
    metric: Metric,
    eps: f64,
    comps: &mut u64,
    mut hit: impl FnMut(&LeafEntry<D>, &LeafEntry<D>) -> Result<(), CsjError>,
) -> Result<(), CsjError> {
    let mut ea = left.to_vec();
    let mut eb = right.to_vec();
    ea.sort_by(|x, y| x.point[axis].total_cmp(&y.point[axis]));
    eb.sort_by(|x, y| x.point[axis].total_cmp(&y.point[axis]));
    let mut start = 0usize;
    for x in &ea {
        while start < eb.len() && eb[start].point[axis] < x.point[axis] - eps {
            start += 1;
        }
        for y in &eb[start..] {
            if y.point[axis] - x.point[axis] > eps {
                break;
            }
            *comps += 1;
            if metric.within(&x.point, &y.point, eps) {
                hit(x, y)?;
            }
        }
    }
    Ok(())
}

/// The Figure-3 recursion, generic over node source, link handling and
/// row sink.
pub struct Engine<S: NodeSource<D>, H, R, const D: usize> {
    pub(crate) source: S,
    /// The child steps of every frame on the recursion path, innermost
    /// frame's last.
    steps: Vec<Step<S::Node>>,
    cfg: JoinConfig,
    early_stop: bool,
    pub(crate) handler: H,
    cancel: Option<CancelToken>,
    stopped: Option<StopReason>,
    /// The row sink (public so callers can recover collected rows).
    pub sink: R,
    /// Accumulated counters.
    pub stats: JoinStats,
}

impl<S, H, R, const D: usize> Engine<S, H, R, D>
where
    S: NodeSource<D>,
    H: LinkHandler<D>,
    R: RowSink,
{
    /// Builds an engine; `early_stop` enables the compact-join group
    /// rules (italic lines of Figure 3).
    pub fn new(mut source: S, cfg: JoinConfig, early_stop: bool, handler: H, sink: R) -> Self {
        source.expand_with(Expander::new(cfg, early_stop));
        // One engine is one thread of execution; the parallel runner
        // overwrites this with its worker count.
        let stats = JoinStats { threads_used: 1, ..JoinStats::new(cfg.record_access_log) };
        Engine {
            source,
            steps: Vec::new(),
            cfg,
            early_stop,
            handler,
            cancel: None,
            stopped: None,
            sink,
            stats,
        }
    }

    /// Arms a cooperative cancellation token: the recursion checks it on
    /// every step and unwinds promptly (keeping all rows emitted so far)
    /// once it is triggered.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Why the traversal stopped early, if it did.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stopped
    }

    /// `true` once the traversal has been stopped (it then unwinds
    /// without visiting further nodes).
    fn check_stopped(&mut self) -> bool {
        if self.stopped.is_some() {
            return true;
        }
        if self.cancel.as_ref().is_some_and(CancelToken::is_canceled) {
            self.stopped = Some(StopReason::Canceled);
            return true;
        }
        false
    }

    /// Runs the full self-join as one unsplit recursion: the reference
    /// the task loops, which split the root, are tested against.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when a node read fails beyond retry
    /// or the sink rejects a write; traversal stops at the failure.
    pub fn run(&mut self) -> Result<(), CsjError> {
        if let Some(root) = self.source.root()? {
            self.run_step(Step::Node(root))?;
        }
        self.finish_only()
    }

    /// Runs only the finish step (used by the task runners after their
    /// last task or an aborted traversal; drains the CSJ window so the
    /// output stays lossless over the processed region).
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when draining the window into the
    /// sink fails.
    pub fn finish_only(&mut self) -> Result<(), CsjError> {
        self.handler.finish(&mut self.sink, &mut self.stats)
    }

    /// Runs one step and everything below it.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] as [`Engine::run`] does.
    pub fn run_step(&mut self, step: Step<S::Node>) -> Result<(), CsjError> {
        if self.check_stopped() {
            return Ok(());
        }
        self.visit(step);
        let start = self.steps.len();
        match self.expand(step)? {
            Expansion::EarlyStop => self.emit_subtree(step),
            Expansion::Leaf => self.probe_leaves(step),
            Expansion::Children => {
                self.source.push(&self.steps[start..]);
                for i in start..self.steps.len() {
                    self.run_step(self.steps[i])?;
                }
                self.source.pop();
                self.steps.truncate(start);
                Ok(())
            }
        }
    }

    /// Expands `step` one level exactly as [`Engine::run_step`] would and
    /// returns its child steps instead of running them, crediting the
    /// step's visit and pruned pairs. Returns `None`, crediting nothing,
    /// when the step must run whole: a leaf (pair) or an early stop.
    /// Running the children in order is running the step.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when a node read fails.
    pub fn split(&mut self, step: Step<S::Node>) -> Result<Option<Vec<Step<S::Node>>>, CsjError> {
        let start = self.steps.len();
        Ok(match self.expand(step)? {
            Expansion::Children => {
                self.visit(step);
                Some(self.steps.split_off(start))
            }
            Expansion::EarlyStop | Expansion::Leaf => None,
        })
    }

    /// The root split: the steps the root expands into (see
    /// [`Engine::split`]), or the root alone when it must run whole;
    /// empty for an empty tree.
    ///
    /// # Errors
    /// Returns [`CsjError::Storage`] when a node read fails.
    pub fn split_root(&mut self) -> Result<Vec<Step<S::Node>>, CsjError> {
        let Some(root) = self.source.root()? else { return Ok(Vec::new()) };
        Ok(self.split(Step::Node(root))?.unwrap_or_else(|| vec![Step::Node(root)]))
    }

    /// Counts a step's visit (and logs its nodes when armed).
    fn visit(&mut self, step: Step<S::Node>) {
        match step {
            Step::Node(n) => {
                self.stats.node_visits += 1;
                self.stats.touch_node(self.source.log_id(n));
            }
            Step::Pair(a, b) => {
                self.stats.pair_visits += 1;
                self.stats.touch_node(self.source.log_id(a));
                self.stats.touch_node(self.source.log_id(b));
            }
        }
    }

    /// The one place a step's fate is decided, by the [`Expander`]
    /// rules: the children the step expands into are read here, and the
    /// surviving child steps pushed on the step stack (pruned pairs are
    /// counted here).
    fn expand(&mut self, step: Step<S::Node>) -> Result<Expansion, CsjError> {
        let expander = Expander::new(self.cfg, self.early_stop);
        let fate = expander.classify(&self.source, step);
        if fate != Expansion::Children {
            return Ok(fate);
        }
        let (ca, cb) = match step {
            Step::Node(n) => (self.source.children(n)?, Vec::new()),
            Step::Pair(a, b) => {
                let ca =
                    if self.source.is_leaf(a) { Vec::new() } else { self.source.children(a)? };
                let cb =
                    if self.source.is_leaf(b) { Vec::new() } else { self.source.children(b)? };
                (ca, cb)
            }
        };
        let (steps, stats) = (&mut self.steps, &mut self.stats);
        expander.pair(&self.source, step, ca, cb, |child| {
            match child {
                Some(child) => steps.push(child),
                None => stats.pairs_pruned += 1,
            }
            true
        });
        Ok(Expansion::Children)
    }

    /// The plane-sweep axis over `nodes`' combined box, or `None` when
    /// plane sweep is off.
    fn sweep_axis(&self, nodes: &[S::Node]) -> Option<usize> {
        Expander::new(self.cfg, self.early_stop).sweep_axis(&self.source, nodes)
    }

    /// Emits an early-stopped subtree (pair) as one group.
    fn emit_subtree(&mut self, step: Step<S::Node>) -> Result<(), CsjError> {
        let mut ids = Vec::new();
        let (first, mbr) = match step {
            Step::Node(n) => {
                self.stats.early_stops_node += 1;
                self.source.collect_record_ids(n, &mut ids)?;
                (ids.len(), self.subtree_mbr(n)?)
            }
            Step::Pair(a, b) => {
                self.stats.early_stops_pair += 1;
                self.source.collect_record_ids(a, &mut ids)?;
                let first = ids.len();
                self.source.collect_record_ids(b, &mut ids)?;
                (first, self.subtree_mbr(a)?.union(&self.subtree_mbr(b)?))
            }
        };
        self.handler.on_subtree(ids, first, &mbr, &mut self.sink, &mut self.stats)
    }

    /// The subtree group MBR: the node's bounding shape by default, or
    /// recomputed from the member points when configured.
    fn subtree_mbr(&mut self, n: S::Node) -> Result<Mbr<D>, CsjError> {
        if !self.cfg.tighten_group_mbr {
            return Ok(self.source.mbr(n));
        }
        let mut entries = Vec::new();
        self.source.collect_entries(n, &mut entries)?;
        let mut mbr = Mbr::empty();
        for e in &entries {
            mbr.expand_to_point(&e.point);
        }
        Ok(mbr)
    }

    /// Probes a leaf (pair): the batched distance kernel over the
    /// struct-of-arrays slabs (SIMD when the host has it, chunked scalar
    /// otherwise), or the sorted plane sweep when configured.
    fn probe_leaves(&mut self, step: Step<S::Node>) -> Result<(), CsjError> {
        let eps = self.cfg.epsilon;
        let metric = self.cfg.metric;
        let kernel = DistKernel::new(metric, eps);
        let axis = match step {
            Step::Node(n) => self.sweep_axis(&[n]),
            Step::Pair(a, b) => self.sweep_axis(&[a, b]),
        };
        let handler = &mut self.handler;
        let sink = &mut self.sink;
        let stats = &mut self.stats;
        let mut comps = 0u64;
        let mut hit = |x: &LeafEntry<D>, y: &LeafEntry<D>| {
            handler.on_link(x.id, &x.point, y.id, &y.point, &mut *sink, &mut *stats)
        };
        let res = match step {
            Step::Node(n) => {
                let leaf = self.source.leaf(n)?;
                let e = leaf.entries();
                match axis {
                    Some(axis) => sweep_self(e, axis, metric, eps, &mut comps, &mut hit),
                    None => kernel.self_join(leaf.soa(), &mut comps, |i, j| hit(&e[i], &e[j])),
                }
            }
            Step::Pair(a, b) => {
                let (la, lb) = self.source.leaf_pair(a, b)?;
                let (ea, eb) = (la.entries(), lb.entries());
                match axis {
                    Some(axis) => sweep_cross(ea, eb, axis, metric, eps, &mut comps, &mut hit),
                    None => kernel
                        .cross_join(la.soa(), lb.soa(), &mut comps, |i, j| hit(&ea[i], &eb[j])),
                }
            }
        };
        self.stats.distance_computations += comps;
        res
    }
}

/// Unwraps a result that cannot be `Err` because every sink involved is
/// in-memory (infallible). Kept as a function so the reasoning is in one
/// place rather than scattered `unwrap`s.
pub(crate) fn infallible<T>(res: Result<T, CsjError>) -> T {
    match res {
        Ok(v) => v,
        Err(e) => unreachable!("in-memory join cannot fail, yet got: {e}"),
    }
}

#[cfg(test)]
mod sweep_tests {
    use crate::brute::brute_force_links;
    use crate::output::JoinOutput;
    use crate::parallel::ParallelAlgo;
    use crate::resilient::ResilientJoin;
    use crate::JoinConfig;
    use csj_geom::{Metric, Point};
    use csj_index::{rstar::RStarTree, JoinIndex, RTreeConfig};

    fn join<T: JoinIndex<D>, const D: usize>(
        cfg: JoinConfig,
        algo: ParallelAlgo,
        tree: &T,
    ) -> JoinOutput {
        ResilientJoin::with_config(cfg, algo).run(tree).expect("in memory")
    }

    fn stripe(n: usize) -> Vec<Point<2>> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                Point::new([t, (t * 29.0).sin() * 0.04])
            })
            .collect()
    }

    #[test]
    fn sweep_reports_the_same_link_set() {
        let pts = stripe(800);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        for eps in [0.004, 0.02, 0.1] {
            let truth = brute_force_links(&pts, eps);
            let (plain, swept) = (JoinConfig::new(eps), JoinConfig::new(eps).with_plane_sweep());
            let ssj = join(plain, ParallelAlgo::Ssj, &tree);
            assert_eq!(ssj.expanded_link_set(), truth, "plain eps={eps}");
            for algo in [ParallelAlgo::Ssj, ParallelAlgo::Ncsj, ParallelAlgo::Csj(10)] {
                let out = join(swept, algo, &tree);
                assert_eq!(out.expanded_link_set(), truth, "{algo:?} swept eps={eps}");
            }
        }
    }

    #[test]
    fn sweep_reduces_distance_computations_at_small_eps() {
        // A long thin stripe with small eps: most leaf pairs are far
        // apart along x, exactly what the sweep skips without a distance
        // computation.
        let pts = stripe(2000);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(32));
        let eps = 0.002;
        let plain = join(JoinConfig::new(eps), ParallelAlgo::Ssj, &tree);
        let swept = join(JoinConfig::new(eps).with_plane_sweep(), ParallelAlgo::Ssj, &tree);
        assert!(
            swept.stats.distance_computations < plain.stats.distance_computations / 2,
            "sweep {} vs plain {}",
            swept.stats.distance_computations,
            plain.stats.distance_computations
        );
        assert_eq!(swept.expanded_link_set(), plain.expanded_link_set());
    }

    #[test]
    fn sweep_correct_under_non_euclidean_metrics() {
        // The sweep prune (axis gap > eps implies distance > eps) must
        // hold for L1 and Linf too.
        let pts = stripe(500);
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(8));
        for metric in [Metric::Manhattan, Metric::Chebyshev] {
            let eps = 0.01;
            let cfg = JoinConfig::new(eps).with_metric(metric);
            let plain = join(cfg, ParallelAlgo::Ssj, &tree);
            let swept = join(cfg.with_plane_sweep(), ParallelAlgo::Ssj, &tree);
            assert_eq!(plain.expanded_link_set(), swept.expanded_link_set(), "{metric:?}");
        }
    }

    #[test]
    fn sweep_on_3d_data() {
        let pts: Vec<Point<3>> = (0..600)
            .map(|i| {
                let t = i as f64 / 600.0;
                Point::new([t, (t * 13.0).cos() * 0.05, (t * 7.0).sin() * 0.05])
            })
            .collect();
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(10));
        let eps = 0.01;
        let mut truth = std::collections::BTreeSet::new();
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                if pts[i].euclidean(&pts[j]) <= eps {
                    truth.insert((i as u32, j as u32));
                }
            }
        }
        let swept = join(JoinConfig::new(eps).with_plane_sweep(), ParallelAlgo::Ssj, &tree);
        assert_eq!(swept.expanded_link_set(), truth);
    }
}
