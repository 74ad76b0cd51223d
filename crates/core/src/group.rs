//! Group shapes and the CSJ window of open groups.
//!
//! §V-A: a group's bounding shape must support constant-time membership
//! checks and updates, and must *guarantee* that any two covered points
//! mutually satisfy the range — i.e. its diameter under the join metric is
//! at most ε. The paper chooses minimum bounding hyper-rectangles (the
//! diagonal-`≤ ε` rule); bounding circles cover more area per group but
//! cost more to center optimally. Both are implemented here behind
//! [`GroupShape`], so the §V-A trade-off is measurable
//! (`ablation_shapes` bench).
//!
//! The merge path is the hottest loop of CSJ(g) — every residual link is
//! tested against up to `g` open groups. Three things keep it cheap:
//!
//! * [`LinkProbe`] precomputes the link's bounding box once per link, so
//!   each of the up-to-`g` attempts folds a ready-made span instead of
//!   re-deriving the two-point box;
//! * [`GroupShape::try_extend_link`] lets the MBR shape run the merge test
//!   as one fused `O(D)` pass — grown bounds and side lengths in a single
//!   loop, then a branch-free squared-diagonal-vs-ε² compare
//!   ([`Metric::norm_within`]) with no shape copy and no undo;
//! * [`GroupWindow`] is a fixed-capacity array ring (no `VecDeque`
//!   indirection); a link that opens a group once the ring is full emits
//!   the displaced oldest group straight from its slot and reuses that
//!   slot's member vector ([`GroupWindow::open_link`]).

use csj_geom::{probe, KernelPath, Mbr, Metric, Point, RecordId, Sphere};

/// A qualifying link prepared for merge probing: both endpoints plus the
/// link's bounding box, computed once and reused across every merge
/// attempt in the window.
#[derive(Clone, Copy, Debug)]
pub struct LinkProbe<'a, const D: usize> {
    /// First endpoint's record id.
    pub a: RecordId,
    /// First endpoint's coordinates.
    pub pa: &'a Point<D>,
    /// Second endpoint's record id.
    pub b: RecordId,
    /// Second endpoint's coordinates.
    pub pb: &'a Point<D>,
    /// The smallest box covering both endpoints.
    pub span: Mbr<D>,
}

impl<'a, const D: usize> LinkProbe<'a, D> {
    /// Prepares a link for merge probing (one `from_corners` per link).
    #[inline]
    pub fn new(a: RecordId, pa: &'a Point<D>, b: RecordId, pb: &'a Point<D>) -> Self {
        LinkProbe { a, pa, b, pb, span: Mbr::from_corners(pa, pb) }
    }
}

/// A constant-time-updatable bounding shape for an output group.
///
/// The contract: after any sequence of constructor / `try_extend` calls,
/// every point ever covered lies within the shape, and
/// `diameter() <= ε` implies all covered point pairs are within ε.
pub trait GroupShape<const D: usize>: Clone + std::fmt::Debug {
    /// Smallest shape covering two points.
    fn from_pair(a: &Point<D>, b: &Point<D>) -> Self;

    /// Smallest shape covering a prepared link's endpoints. Must equal
    /// `from_pair(link.pa, link.pb)`; shapes whose two-point form *is*
    /// the link's bounding box override this to adopt the precomputed
    /// span instead of re-deriving it. The default delegates.
    #[inline]
    fn from_link_probe(link: &LinkProbe<'_, D>, metric: Metric) -> Self {
        let _ = metric;
        Self::from_pair(link.pa, link.pb)
    }

    /// `true` when [`GroupShape::from_link_probe`] already covers both
    /// endpoints exactly, so the opening extend step can be skipped.
    /// Shapes with a degenerate two-point form (e.g. a zero-radius ball)
    /// leave this `false`.
    const FROM_LINK_EXACT: bool = false;

    /// Box bounds for the window's batched slab probe, when the shape is
    /// an axis-aligned box whose merge test
    /// [`csj_geom::probe::mbr_fit_mask`] evaluates (the squared-diagonal
    /// rule) and whose growth is the min/max fold of the link span into
    /// those bounds. `None` — the default — opts the shape out, and
    /// windows holding it probe sequentially. Shapes returning `Some`
    /// must also implement [`GroupShape::set_slab_bounds`]: on the slab
    /// probe path the window maintains the merged bounds in its slabs
    /// alone and restores the shapes from them when groups leave the
    /// window.
    #[inline]
    fn slab_bounds(&self) -> Option<(Point<D>, Point<D>)> {
        None
    }

    /// Restores the shape from slab bounds — the inverse of
    /// [`GroupShape::slab_bounds`]. Never called for shapes whose
    /// `slab_bounds` is `None`; the default therefore only flags the
    /// missing override in debug builds.
    #[inline]
    fn set_slab_bounds(&mut self, lo: &Point<D>, hi: &Point<D>) {
        let _ = (lo, hi);
        debug_assert!(false, "shapes providing slab_bounds must implement set_slab_bounds");
    }

    /// Shape covering an existing bounding rectangle (used when a whole
    /// subtree becomes a group: the node's bounding shape is reused).
    fn from_mbr(mbr: &Mbr<D>, metric: Metric) -> Self;

    /// Diameter under `metric`: an upper bound on the distance between
    /// any two covered points.
    fn diameter(&self, metric: Metric) -> f64;

    /// Attempts to grow the shape to also cover `a` and `b` while keeping
    /// `diameter() <= eps`. On success the shape is updated and `true` is
    /// returned; on failure the shape is left unchanged (the pseudo-code's
    /// "undo extension").
    fn try_extend(&mut self, a: &Point<D>, b: &Point<D>, eps: f64, metric: Metric) -> bool;

    /// [`GroupShape::try_extend`] for a prepared link. Must decide and
    /// mutate exactly as `try_extend(link.pa, link.pb, eps, metric)`
    /// would; shapes override it when the precomputed span enables a
    /// cheaper incremental test. The default delegates.
    #[inline]
    fn try_extend_link(&mut self, link: &LinkProbe<'_, D>, eps: f64, metric: Metric) -> bool {
        self.try_extend(link.pa, link.pb, eps, metric)
    }

    /// Unconditional cover-extension: grow the shape over the link with no
    /// diameter check. Callers use it only when the fit is already decided
    /// (an `ε = ∞` open, or a batched probe that evaluated the exact merge
    /// test). Must commit the same bits `try_extend_link(link, eps, ..)`
    /// would on success. The default routes through the checked path with
    /// `ε = ∞`.
    #[inline]
    fn extend_link(&mut self, link: &LinkProbe<'_, D>, metric: Metric) {
        let grew = self.try_extend_link(link, f64::INFINITY, metric);
        debug_assert!(grew);
    }
}

/// Which bounding shape CSJ(g)'s open groups use (§V-A), selected by
/// [`crate::JoinConfig::group_shape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GroupShapeKind {
    /// Minimum bounding hyper-rectangle, diagonal ≤ ε ([`MbrShape`], the
    /// paper's choice: constant-time updates, reuses tree node shapes).
    #[default]
    Mbr,
    /// Bounding ball, diameter ≤ ε ([`BallShape`]: covers more volume
    /// per group, but centers are updated approximately).
    Ball,
}

/// The paper's group shape: a minimum bounding hyper-rectangle whose
/// metric diameter (Euclidean: main diagonal) must stay within ε.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MbrShape<const D: usize>(pub Mbr<D>);

impl<const D: usize> GroupShape<D> for MbrShape<D> {
    fn from_pair(a: &Point<D>, b: &Point<D>) -> Self {
        MbrShape(Mbr::from_corners(a, b))
    }

    /// The link's span *is* the two-point MBR — adopt it as-is.
    #[inline]
    fn from_link_probe(link: &LinkProbe<'_, D>, _metric: Metric) -> Self {
        MbrShape(link.span)
    }

    const FROM_LINK_EXACT: bool = true;

    #[inline]
    fn slab_bounds(&self) -> Option<(Point<D>, Point<D>)> {
        Some((self.0.lo, self.0.hi))
    }

    #[inline]
    fn set_slab_bounds(&mut self, lo: &Point<D>, hi: &Point<D>) {
        self.0 = Mbr { lo: *lo, hi: *hi };
    }

    fn from_mbr(mbr: &Mbr<D>, _metric: Metric) -> Self {
        MbrShape(*mbr)
    }

    fn diameter(&self, metric: Metric) -> f64 {
        metric.mbr_diameter(&self.0)
    }

    fn try_extend(&mut self, a: &Point<D>, b: &Point<D>, eps: f64, metric: Metric) -> bool {
        let mut grown = self.0;
        grown.expand_to_point(a);
        grown.expand_to_point(b);
        // Hot path of every CSJ merge attempt: the ε²-compare skips the
        // sqrt of the full diameter norm.
        if metric.mbr_diameter_within(&grown, eps) {
            self.0 = grown;
            true
        } else {
            false
        }
    }

    /// The fused merge test: grown bounds and side lengths in one `O(D)`
    /// pass over the precomputed link span, then a branch-free
    /// squared-extended-diagonal-vs-ε² compare. Folding the span into the
    /// box is exactly `expand_to_point(pa); expand_to_point(pb)` (min/max
    /// are commutative and associative), and [`Metric::norm_within`] on
    /// the grown sides is exactly [`Metric::mbr_diameter_within`], so the
    /// decision — and the committed shape — match [`GroupShape::try_extend`]
    /// on every input. No shape copy, no undo: bounds are committed only
    /// after the test passes.
    ///
    /// Deliberately branch-free until the single `norm_within` compare:
    /// a per-dimension `side > ε` bail-out was measured slower here —
    /// merge attempts fail unpredictably, and the mispredictions cost
    /// more than the handful of min/max ops they would skip.
    #[inline]
    fn try_extend_link(&mut self, link: &LinkProbe<'_, D>, eps: f64, metric: Metric) -> bool {
        let mut lo = self.0.lo;
        let mut hi = self.0.hi;
        let mut sides = [0.0f64; D];
        for d in 0..D {
            let l = lo[d].min(link.span.lo[d]);
            let h = hi[d].max(link.span.hi[d]);
            lo[d] = l;
            hi[d] = h;
            sides[d] = h - l;
        }
        if metric.norm_within(sides, eps) {
            self.0.lo = lo;
            self.0.hi = hi;
            true
        } else {
            false
        }
    }

    /// Known-fit commit: the min/max fold of [`GroupShape::try_extend_link`]
    /// without the (already-decided) diameter test.
    #[inline]
    fn extend_link(&mut self, link: &LinkProbe<'_, D>, _metric: Metric) {
        for d in 0..D {
            self.0.lo[d] = self.0.lo[d].min(link.span.lo[d]);
            self.0.hi[d] = self.0.hi[d].max(link.span.hi[d]);
        }
    }
}

/// §V-A alternative: a bounding ball. Covers up to ~57% more area than a
/// rectangle of the same diameter in 2-D, but the incremental center
/// updates (Ritter steps) are approximate, so merge acceptance differs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BallShape<const D: usize>(pub Sphere<D>);

impl<const D: usize> GroupShape<D> for BallShape<D> {
    fn from_pair(a: &Point<D>, b: &Point<D>) -> Self {
        // Midpoint center is exact for L2 and valid (covering) for the
        // other metrics after the radius check below.
        let center = a.midpoint(b);
        BallShape(Sphere::new(center, 0.0))
    }

    fn from_mbr(mbr: &Mbr<D>, metric: Metric) -> Self {
        BallShape(Sphere::new(mbr.center(), 0.5 * metric.mbr_diameter(mbr)))
    }

    fn diameter(&self, _metric: Metric) -> f64 {
        self.0.diameter()
    }

    fn try_extend(&mut self, a: &Point<D>, b: &Point<D>, eps: f64, metric: Metric) -> bool {
        let mut grown = self.0;
        grown.expand_to_point(a, metric);
        grown.expand_to_point(b, metric);
        if grown.diameter() <= eps {
            self.0 = grown;
            true
        } else {
            false
        }
    }
}

/// Appends an endpoint to a raw member log, skipping the common case of
/// the same endpoint recurring across consecutive links (nested leaf
/// loops); full deduplication happens once, at emission.
#[inline]
fn push_member(members: &mut Vec<RecordId>, id: RecordId) {
    if members.last() != Some(&id) {
        members.push(id);
    }
}

/// The shape of a group opened for `link`. `from_link_probe` may produce
/// a degenerate shape (e.g. a zero-radius ball at the midpoint); extend
/// covers both endpoints exactly. Shapes that adopt the span exactly skip
/// the step at compile time.
#[inline]
fn link_shape<S: GroupShape<D>, const D: usize>(link: &LinkProbe<'_, D>, metric: Metric) -> S {
    let mut shape = S::from_link_probe(link, metric);
    if !S::FROM_LINK_EXACT {
        shape.extend_link(link, metric);
    }
    shape
}

/// An output group still open for CSJ merging.
///
/// Members are kept as a raw push log (consecutive duplicates skipped);
/// [`OpenGroup::into_sorted_members`] deduplicates at emission time. This
/// keeps the per-link merge cost to a couple of comparisons instead of a
/// hash insert — the merge loop is the hottest path of CSJ(g).
#[derive(Clone, Debug)]
pub struct OpenGroup<S, const D: usize> {
    /// Member record ids as pushed (may contain non-consecutive repeats).
    pub members: Vec<RecordId>,
    /// Current bounding shape.
    pub shape: S,
}

impl<S: GroupShape<D>, const D: usize> OpenGroup<S, D> {
    /// Opens a group from a single qualifying link.
    pub fn from_link(
        a: RecordId,
        pa: &Point<D>,
        b: RecordId,
        pb: &Point<D>,
        metric: Metric,
    ) -> Self {
        let link = LinkProbe::new(a, pa, b, pb);
        let mut g = OpenGroup { members: Vec::with_capacity(2), shape: link_shape(&link, metric) };
        g.add_member(a);
        g.add_member(b);
        g
    }

    /// Opens a group for a whole subtree (the early-stopping rule).
    pub fn from_subtree(members: Vec<RecordId>, mbr: &Mbr<D>, metric: Metric) -> Self {
        debug_assert!(!members.is_empty());
        OpenGroup { members, shape: S::from_mbr(mbr, metric) }
    }

    fn add_member(&mut self, id: RecordId) {
        push_member(&mut self.members, id);
    }

    /// The pseudo-code's merge step: try to extend the shape to cover the
    /// link; on success add both endpoints as members.
    pub fn try_merge(
        &mut self,
        a: RecordId,
        pa: &Point<D>,
        b: RecordId,
        pb: &Point<D>,
        eps: f64,
        metric: Metric,
    ) -> bool {
        if self.shape.try_extend(pa, pb, eps, metric) {
            self.add_member(a);
            self.add_member(b);
            true
        } else {
            false
        }
    }

    /// [`OpenGroup::try_merge`] for a prepared link — the merge hot path.
    /// Decision and state changes are identical; the prepared span just
    /// makes the shape test cheaper.
    #[inline]
    pub fn try_merge_probe(&mut self, link: &LinkProbe<'_, D>, eps: f64, metric: Metric) -> bool {
        if self.shape.try_extend_link(link, eps, metric) {
            self.add_member(link.a);
            self.add_member(link.b);
            true
        } else {
            false
        }
    }

    /// Number of member entries pushed so far (counts repeats; use
    /// [`OpenGroup::into_sorted_members`] for the true member set).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the group has no members (never happens for constructed
    /// groups; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Finalizes the group: the member set, sorted and deduplicated.
    #[inline]
    pub fn into_sorted_members(self) -> Vec<RecordId> {
        let mut m = self.members;
        sort_dedup_members(&mut m);
        m
    }
}

/// Finalizes a member log in place: sorted, deduplicated.
#[inline]
fn sort_dedup_members(m: &mut Vec<RecordId>) {
    // Never-merged two-point groups dominate; their log is two distinct
    // ids (consecutive duplicates are skipped at push), so ordering them
    // is one compare — skip the sort machinery.
    if m.len() == 2 {
        if m[0] > m[1] {
            m.swap(0, 1);
        }
        return;
    }
    m.sort_unstable();
    m.dedup();
}

/// The `g` most recent groups, as a FIFO ring. Pushing beyond capacity
/// evicts (returns) the oldest group, which is then final and can be
/// emitted — groups outside the window can never change again.
///
/// Stored struct-of-arrays: the shapes live in one contiguous slab,
/// the member vectors in a parallel one, and — for box shapes — the
/// bounds additionally in per-dimension slabs (`slab_lo`/`slab_hi`).
/// The merge probe — the hottest loop of CSJ(g), run up to `g` times
/// per residual link — then collapses to one wide pass: a fit bitmask
/// over the whole window ([`csj_geom::probe::mbr_fit_mask`], SIMD when
/// the host has it) and integer arithmetic to recover the newest-first
/// accept decision and the attempt count the sequential walk would have
/// produced. A member vector is touched exactly once, on the one group
/// that accepts the link. A wrapping head index replaces `VecDeque`
/// indirection: once warm, a push is one `mem::replace` per slab at the
/// head slot.
#[derive(Debug)]
pub struct GroupWindow<S, const D: usize> {
    /// Group shapes; grows up to `capacity`, then slots are overwritten
    /// in place. `head` is the oldest slot once the ring is full (and 0
    /// while still filling), so slot age increases with distance from
    /// the newest slot.
    shapes: Vec<S>,
    /// Raw member lists, parallel to `shapes`.
    members: Vec<Vec<RecordId>>,
    /// Per-dimension lower/upper bound slabs mirroring `shapes`,
    /// maintained while every shape reports [`GroupShape::slab_bounds`];
    /// they feed the vectorized whole-window probe. Held at the fixed
    /// padded length [`GroupWindow::slab_len`]: slots no open group
    /// occupies stay at the `+∞` sentinel (an infinite side always fails
    /// the ordered `≤ ε²` compare, so sentinel lanes never set a mask
    /// bit), which lets the SIMD probe run whole vectors with no scalar
    /// tail and lets `push` store by index instead of branching between
    /// grow and replace.
    slab_lo: [Vec<f64>; D],
    slab_hi: [Vec<f64>; D],
    /// Fixed slab length: the capacity rounded up to a 4-lane multiple,
    /// or 0 when the window is too wide for the mask probe (or has no
    /// capacity) and probes sequentially instead.
    slab_len: usize,
    /// `false` once any pushed shape declined to provide slab bounds;
    /// the window then probes sequentially for its whole life.
    slab_ok: bool,
    /// Dispatch for the mask probe, resolved once per window.
    path: KernelPath,
    head: usize,
    capacity: usize,
}

/// Padded bound-slab length for a window: the capacity rounded up to a
/// whole number of 4-wide SIMD lanes, or 0 when the window exceeds the
/// mask width (those windows probe sequentially).
fn slab_len_for(capacity: usize) -> usize {
    if capacity == 0 || capacity > probe::MAX_WINDOW {
        0
    } else {
        (capacity + 3) & !3
    }
}

impl<S: GroupShape<D>, const D: usize> GroupWindow<S, D> {
    /// A window considering the `capacity` most recent groups.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.min(1024);
        let slab_len = slab_len_for(capacity);
        GroupWindow {
            shapes: Vec::with_capacity(cap),
            members: Vec::with_capacity(cap),
            slab_lo: std::array::from_fn(|_| vec![f64::INFINITY; slab_len]),
            slab_hi: std::array::from_fn(|_| vec![f64::INFINITY; slab_len]),
            slab_len,
            slab_ok: slab_len != 0,
            path: KernelPath::detect(),
            head: 0,
            capacity,
        }
    }

    /// Refreshes slot `i`'s bound-slab columns from its shape.
    fn sync_slab(&mut self, i: usize) {
        if self.slab_ok {
            if let Some((lo, hi)) = self.shapes[i].slab_bounds() {
                for d in 0..D {
                    self.slab_lo[d][i] = lo[d];
                    self.slab_hi[d][i] = hi[d];
                }
            }
        }
    }

    /// Number of currently open groups.
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// `true` if no groups are open.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// Tries to merge a link into the open groups, newest first. Returns
    /// `true` on success and reports the number of attempts via
    /// `attempts`.
    pub fn try_merge_link(
        &mut self,
        link: &LinkProbe<'_, D>,
        eps: f64,
        metric: Metric,
        attempts: &mut u64,
    ) -> bool {
        let n = self.shapes.len();
        if n == 0 {
            return false;
        }
        // Slab probe path: the decision is the squared-diagonal fit of
        // the padded bound slabs, which are the authoritative merged
        // bounds here (shapes are only rematerialized from them when
        // groups leave the window via `drain`). One wide fit mask plus
        // integer selection recovers the slot the sequential
        // newest-first walk would accept and the attempts it would have
        // counted, so decisions, output, and stats are identical on
        // every dispatch path.
        if self.slab_ok && matches!(metric, Metric::Euclidean) {
            let head = self.head;
            debug_assert!(n <= probe::MAX_WINDOW && head < probe::MAX_WINDOW);
            let eps_sq = eps * eps;
            // SIMD needs a NaN-free span (the one case where lane
            // min/max diverges from f64::min/max) and a finite ε² (so
            // the `+∞` sentinels in the padded lanes can never pass);
            // otherwise the scalar kernel probes the live slots only —
            // same operations, same decision.
            let simd_ok = eps_sq < f64::INFINITY
                && (0..D).all(|d| !link.span.lo[d].is_nan() && !link.span.hi[d].is_nan());
            let lo: [&[f64]; D] = std::array::from_fn(|d| self.slab_lo[d].as_slice());
            let hi: [&[f64]; D] = std::array::from_fn(|d| self.slab_hi[d].as_slice());
            let path = if simd_ok { self.path } else { KernelPath::Scalar };
            // csj-lint: allow(padding-invariant) — the finite-ε guard is
            // `simd_ok` above, which selects the scalar kernel as a *value*
            // (`path`) rather than branching around the call; value flow is
            // outside the control-flow analysis, but the sentinel contract
            // holds: a non-finite ε² forces KernelPath::Scalar.
            let (slot, tried) = probe::mbr_fit_pick(
                path,
                &lo,
                &hi,
                &link.span.lo.0,
                &link.span.hi.0,
                eps_sq,
                head,
                n,
            );
            *attempts += tried;
            return match slot {
                Some(i) => {
                    // Debug builds re-run the checked shape merge: it
                    // must agree with the mask, and it keeps the ring
                    // shape fresh so the slab-vs-shape invariant below
                    // can be asserted bit-for-bit.
                    #[cfg(debug_assertions)]
                    assert!(
                        self.shapes[i].try_extend_link(link, eps, metric),
                        "fit mask and sequential merge test must agree"
                    );
                    // Commit: fold the span into the slabs — exactly the
                    // min/max the shape's own merge would perform.
                    for d in 0..D {
                        let l = self.slab_lo[d][i];
                        self.slab_lo[d][i] = l.min(link.span.lo[d]);
                        let h = self.slab_hi[d][i];
                        self.slab_hi[d][i] = h.max(link.span.hi[d]);
                    }
                    #[cfg(debug_assertions)]
                    if let Some((lo, hi)) = self.shapes[i].slab_bounds() {
                        for d in 0..D {
                            assert_eq!(lo[d].to_bits(), self.slab_lo[d][i].to_bits());
                            assert_eq!(hi[d].to_bits(), self.slab_hi[d][i].to_bits());
                        }
                    }
                    let members = &mut self.members[i];
                    push_member(members, link.a);
                    push_member(members, link.b);
                    true
                }
                None => false,
            };
        }

        // Sequential reference walk (no slabs, or a metric the mask
        // does not evaluate — shapes are authoritative here). Ring ages
        // run oldest-at-`head`, wrapping; newest-first order is
        // therefore `[0, head)` reversed, then `[head, len)` reversed —
        // two plain slice walks over the shape slab alone. The member
        // slab is only touched by the one group that accepts the link.
        let head = self.head;
        let (front, back) = self.shapes.split_at_mut(head);
        let mut hit = None;
        for (off, shape) in front.iter_mut().rev().chain(back.iter_mut().rev()).enumerate() {
            *attempts += 1;
            if shape.try_extend_link(link, eps, metric) {
                // Chain order visits head-1 .. 0, then n-1 .. head.
                hit = Some(if off < head { head - 1 - off } else { n - 1 - (off - head) });
                break;
            }
        }
        match hit {
            Some(i) => {
                self.sync_slab(i);
                let members = &mut self.members[i];
                push_member(members, link.a);
                push_member(members, link.b);
                true
            }
            None => false,
        }
    }

    /// Opens a group covering `link` in the newest slot, finalizing —
    /// through `emit` — the oldest group the open displaces once the
    /// ring is full. The displaced slot's member log is sorted and
    /// deduplicated in place and handed to `emit` as a slice, then its
    /// allocation is reused for the new group: the steady-state open
    /// neither allocates nor moves a vector, where routing through
    /// [`GroupWindow::push`] would bounce both through the caller. With
    /// zero capacity the link's own (already final) pair is emitted from
    /// the stack.
    ///
    /// Decision-equivalent to `push(OpenGroup::from_link(..))` plus
    /// emitting the returned eviction: same groups, same order. `emit`
    /// is responsible for suppressing rows that encode no links (fewer
    /// than two members).
    ///
    /// # Errors
    ///
    /// Propagates the first error `emit` returns (a full sink, a broken
    /// pipe); the displaced group is then not replaced and the open does
    /// not happen.
    pub fn open_link<X, E>(
        &mut self,
        link: &LinkProbe<'_, D>,
        metric: Metric,
        mut emit: E,
    ) -> Result<(), X>
    where
        E: FnMut(&[RecordId]) -> Result<(), X>,
    {
        if self.capacity == 0 {
            // Nothing stays open: the pair itself is the final group.
            let (a, b) = if link.a <= link.b { (link.a, link.b) } else { (link.b, link.a) };
            return emit(&[a, b]);
        }
        let growing = self.shapes.len() < self.capacity;
        let slot = if growing { self.shapes.len() } else { self.head };
        if !growing {
            // The head slot holds the oldest group — final the moment a
            // newer one displaces it. Emit straight from the slot, then
            // reuse its member allocation.
            let m = &mut self.members[slot];
            sort_dedup_members(m);
            emit(m)?;
            m.clear();
        }
        let shape = link_shape(link, metric);
        self.set_slab(slot, &shape);
        if growing {
            let mut members = Vec::with_capacity(8);
            members.push(link.a);
            self.shapes.push(shape);
            self.members.push(members);
        } else {
            self.shapes[slot] = shape;
            self.members[slot].push(link.a);
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
        push_member(&mut self.members[slot], link.b);
        Ok(())
    }

    /// Writes `shape`'s bounds into slab column `slot`; a shape without
    /// slab bounds switches the window to sequential probing for good.
    #[inline]
    fn set_slab(&mut self, slot: usize, shape: &S) {
        if !self.slab_ok {
            return;
        }
        match shape.slab_bounds() {
            Some((lo, hi)) => {
                for d in 0..D {
                    self.slab_lo[d][slot] = lo[d];
                    self.slab_hi[d][slot] = hi[d];
                }
            }
            None => {
                self.slab_ok = false;
                for d in 0..D {
                    self.slab_lo[d].clear();
                    self.slab_hi[d].clear();
                }
            }
        }
    }

    /// Pushes a freshly opened group; returns the evicted (now final)
    /// group if the window overflowed. With capacity 0 the pushed group
    /// itself is returned immediately.
    #[inline]
    #[must_use]
    pub fn push(&mut self, group: OpenGroup<S, D>) -> Option<OpenGroup<S, D>> {
        if self.capacity == 0 {
            return Some(group);
        }
        let growing = self.shapes.len() < self.capacity;
        // The incoming group's slot: the append position while the ring
        // fills, the head slot (displacing the oldest) once full.
        self.set_slab(if growing { self.shapes.len() } else { self.head }, &group.shape);
        if growing {
            self.shapes.push(group.shape);
            self.members.push(group.members);
            return None;
        }
        // Full: the head slot holds the oldest group. Replace it with
        // the newcomer and advance (wrap without dividing), keeping FIFO
        // eviction order.
        let shape = std::mem::replace(&mut self.shapes[self.head], group.shape);
        let members = std::mem::replace(&mut self.members[self.head], group.members);
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
        }
        Some(OpenGroup { members, shape })
    }

    /// Closes the window, yielding all remaining groups oldest-first.
    pub fn drain(&mut self) -> impl Iterator<Item = OpenGroup<S, D>> + '_ {
        // On the slab probe path merges update only the bound slabs;
        // restore each departing shape from its slab columns so drained
        // groups carry their true merged bounds.
        if self.slab_ok {
            for i in 0..self.shapes.len() {
                let lo = Point::new(std::array::from_fn(|d| self.slab_lo[d][i]));
                let hi = Point::new(std::array::from_fn(|d| self.slab_hi[d][i]));
                self.shapes[i].set_slab_bounds(&lo, &hi);
            }
        }
        let mut shapes = std::mem::take(&mut self.shapes);
        let mut members = std::mem::take(&mut self.members);
        shapes.rotate_left(self.head);
        members.rotate_left(self.head);
        for d in 0..D {
            self.slab_lo[d].clear();
            self.slab_lo[d].resize(self.slab_len, f64::INFINITY);
            self.slab_hi[d].clear();
            self.slab_hi[d].resize(self.slab_len, f64::INFINITY);
        }
        self.slab_ok = self.slab_len != 0;
        self.head = 0;
        shapes.into_iter().zip(members).map(|(shape, members)| OpenGroup { members, shape })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L2: Metric = Metric::Euclidean;

    fn p(x: f64, y: f64) -> Point<2> {
        Point::new([x, y])
    }

    #[test]
    fn mbr_shape_pair_and_diameter() {
        let s = <MbrShape<2> as GroupShape<2>>::from_pair(&p(0.0, 0.0), &p(3.0, 4.0));
        assert_eq!(s.diameter(L2), 5.0);
    }

    #[test]
    fn mbr_shape_extend_respects_eps() {
        let mut s = <MbrShape<2> as GroupShape<2>>::from_pair(&p(0.0, 0.0), &p(0.3, 0.0));
        assert!(s.try_extend(&p(0.5, 0.0), &p(0.6, 0.0), 1.0, L2));
        assert_eq!(s.diameter(L2), 0.6);
        // Refusal leaves the shape unchanged.
        let before = s;
        assert!(!s.try_extend(&p(2.0, 0.0), &p(0.0, 0.0), 1.0, L2));
        assert_eq!(s, before);
    }

    #[test]
    fn ball_shape_covers_link_endpoints() {
        let a = p(0.0, 0.0);
        let b = p(0.6, 0.8); // distance 1.0
        let g: OpenGroup<BallShape<2>, 2> = OpenGroup::from_link(1, &a, 2, &b, L2);
        assert!(g.shape.0.contains_point(&a, L2));
        assert!(g.shape.0.contains_point(&b, L2));
        assert!((g.shape.diameter(L2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn open_group_deduplicates_members() {
        let mut g: OpenGroup<MbrShape<2>, 2> =
            OpenGroup::from_link(1, &p(0.0, 0.0), 2, &p(0.1, 0.0), L2);
        assert!(g.try_merge(2, &p(0.1, 0.0), 3, &p(0.2, 0.0), 1.0, L2));
        // Consecutive repeat of 2 is skipped at push time …
        assert_eq!(g.members, vec![1, 2, 3]);
        // … and any remaining repeats vanish at emission.
        assert!(g.clone().try_merge(1, &p(0.0, 0.0), 2, &p(0.1, 0.0), 1.0, L2));
        let mut g2 = g.clone();
        assert!(g2.try_merge(1, &p(0.0, 0.0), 2, &p(0.1, 0.0), 1.0, L2));
        assert_eq!(g2.into_sorted_members(), vec![1, 2, 3]);
    }

    #[test]
    fn subtree_group_has_node_shape() {
        let mbr = Mbr::from_corners(&p(0.0, 0.0), &p(0.3, 0.4));
        let g: OpenGroup<MbrShape<2>, 2> = OpenGroup::from_subtree(vec![5, 6, 7], &mbr, L2);
        assert_eq!(g.members, vec![5, 6, 7]);
        assert_eq!(g.shape.diameter(L2), 0.5);
    }

    #[test]
    fn window_eviction_fifo() {
        let mut w: GroupWindow<MbrShape<2>, 2> = GroupWindow::new(2);
        let g1 = OpenGroup::from_link(1, &p(0.0, 0.0), 2, &p(0.01, 0.0), L2);
        let g2 = OpenGroup::from_link(3, &p(1.0, 0.0), 4, &p(1.01, 0.0), L2);
        let g3 = OpenGroup::from_link(5, &p(2.0, 0.0), 6, &p(2.01, 0.0), L2);
        assert!(w.push(g1).is_none());
        assert!(w.push(g2).is_none());
        let evicted = w.push(g3).expect("window overflow evicts oldest");
        assert_eq!(evicted.into_sorted_members(), vec![1, 2]);
        assert_eq!(w.len(), 2);
        let rest: Vec<Vec<u32>> = w.drain().map(|g| g.into_sorted_members()).collect();
        assert_eq!(rest, vec![vec![3, 4], vec![5, 6]]);
    }

    #[test]
    fn window_capacity_zero_bounces_groups() {
        let mut w: GroupWindow<MbrShape<2>, 2> = GroupWindow::new(0);
        let g = OpenGroup::from_link(1, &p(0.0, 0.0), 2, &p(0.01, 0.0), L2);
        let bounced = w.push(g).expect("capacity 0 returns the group");
        assert_eq!(bounced.into_sorted_members(), vec![1, 2]);
        assert!(w.is_empty());
    }

    #[test]
    fn merge_prefers_newest_group() {
        let mut w: GroupWindow<MbrShape<2>, 2> = GroupWindow::new(5);
        // Two groups both able to absorb the link; newest must win.
        let _ = w.push(OpenGroup::from_link(1, &p(0.0, 0.0), 2, &p(0.02, 0.0), L2));
        let _ = w.push(OpenGroup::from_link(3, &p(0.05, 0.0), 4, &p(0.07, 0.0), L2));
        let mut attempts = 0;
        let (pa, pb) = (p(0.04, 0.0), p(0.06, 0.0));
        let link = LinkProbe::new(8, &pa, 9, &pb);
        let ok = w.try_merge_link(&link, 0.1, L2, &mut attempts);
        assert!(ok);
        assert_eq!(attempts, 1, "newest group tried first and accepted");
        let groups: Vec<Vec<u32>> = w.drain().map(|g| g.into_sorted_members()).collect();
        assert_eq!(groups, vec![vec![1, 2], vec![3, 4, 8, 9]]);
    }

    #[test]
    fn merge_fails_when_no_group_fits() {
        let mut w: GroupWindow<MbrShape<2>, 2> = GroupWindow::new(5);
        let _ = w.push(OpenGroup::from_link(1, &p(0.0, 0.0), 2, &p(0.02, 0.0), L2));
        let mut attempts = 0;
        let (pa, pb) = (p(5.0, 0.0), p(5.01, 0.0));
        let link = LinkProbe::new(8, &pa, 9, &pb);
        let ok = w.try_merge_link(&link, 0.1, L2, &mut attempts);
        assert!(!ok);
        assert_eq!(attempts, 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// After any merge sequence, an MBR group's diameter never exceeds
        /// ε and every member link endpoint stays covered — the invariant
        /// behind Theorem 2.
        #[test]
        fn mbr_group_invariant(
            links in prop::collection::vec(
                (prop::array::uniform2(0.0f64..1.0), prop::array::uniform2(0.0f64..1.0)),
                1..60
            ),
            eps in 0.05f64..0.8,
        ) {
            let metric = Metric::Euclidean;
            let mut covered: Vec<Point<2>> = Vec::new();
            let mut group: Option<OpenGroup<MbrShape<2>, 2>> = None;
            for (i, (a, b)) in links.iter().enumerate() {
                let (pa, pb) = (Point::new(*a), Point::new(*b));
                if metric.distance(&pa, &pb) > eps {
                    continue; // not a link
                }
                match &mut group {
                    None => {
                        let g: OpenGroup<MbrShape<2>, 2> = OpenGroup::from_link(2 * i as u32, &pa, 2 * i as u32 + 1, &pb, metric);
                        if g.shape.diameter(metric) <= eps {
                            covered.push(pa);
                            covered.push(pb);
                            group = Some(g);
                        }
                    }
                    Some(g) => {
                        if g.try_merge(2 * i as u32, &pa, 2 * i as u32 + 1, &pb, eps, metric) {
                            covered.push(pa);
                            covered.push(pb);
                        }
                    }
                }
                if let Some(g) = &group {
                    prop_assert!(g.shape.diameter(metric) <= eps + 1e-9);
                    for p in &covered {
                        prop_assert!(g.shape.0.contains_point(p));
                    }
                    // Diameter <= eps really does bound all pairs.
                    for x in &covered {
                        for y in &covered {
                            prop_assert!(metric.distance(x, y) <= eps + 1e-9);
                        }
                    }
                }
            }
        }
    }
}
