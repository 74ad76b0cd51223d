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
//!   indirection). Its boxes live in bound slabs that one kernel call
//!   per link probes and commits into, and its member logs are sets
//!   while they are short; a link or early-stopped subtree that opens a
//!   group once the ring is full emits the displaced oldest group
//!   straight from its slot and reuses that slot's member storage
//!   ([`GroupWindow::open_link`], [`GroupWindow::open_subtree`]).

use csj_geom::probe::{self, BoundSlabs};
use csj_geom::{KernelPath, Mbr, Metric, Point, RecordId, Sphere};

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

/// Largest member log kept as a set. Up to this length a push first
/// checks the log and skips an id already in it, so the log is the
/// group's member set and emission only sorts it; most CSJ(g) groups
/// stay within it. A longer log — mostly an early-stopped subtree —
/// appends raw, skipping only a repeat of its last id, and is
/// deduplicated once at emission, so no scan grows with the group.
const SET_MAX: usize = 16;

/// Adds an endpoint to a member log (see [`SET_MAX`]).
#[inline]
fn push_member(members: &mut Vec<RecordId>, id: RecordId) {
    let seen =
        if members.len() < SET_MAX { members.contains(&id) } else { members.last() == Some(&id) };
    if !seen {
        members.push(id);
    }
}

/// Finalizes a member log in place: sorted, deduplicated. A log within
/// [`SET_MAX`] already is a set, so it is only sorted.
#[inline]
fn finalize_members(m: &mut Vec<RecordId>) {
    sort_ids(m);
    if m.len() > SET_MAX {
        m.dedup();
    }
}

/// Sorts member ids; never-merged two-point groups dominate, and take
/// one compare.
#[inline]
fn sort_ids(m: &mut [RecordId]) {
    if m.len() == 2 {
        if m[0] > m[1] {
            m.swap(0, 1);
        }
    } else {
        m.sort_unstable();
    }
}

/// The member logs of a window's ring slots. A log is a set while it is
/// short: slot `i`'s members are then the first `len[i]` ids of its fixed
/// row `ids[i * SET_MAX..][..SET_MAX]`, and every lane past them holds a
/// copy of a member. A push therefore compares the new id against the
/// whole row at once — no loop exit or branch that depends on the data —
/// and writes it to lane `len[i]` unconditionally, counting it only if
/// it was new. A group that outgrows the row spills to its slot's reused
/// `spill` vector, which logs raw (see [`push_member`]).
#[derive(Debug, Default)]
struct MemberSets {
    ids: Vec<RecordId>,
    /// Set size per slot, or [`SPILLED`].
    len: Vec<usize>,
    spill: Vec<Vec<RecordId>>,
}

/// `MemberSets::len` of a slot whose log lives in its spill vector.
const SPILLED: usize = usize::MAX;

impl MemberSets {
    /// Adds an empty slot.
    fn add_slot(&mut self) {
        self.ids.resize(self.ids.len() + SET_MAX, 0);
        self.len.push(0);
        self.spill.push(Vec::new());
    }

    /// Empties slot `i`, keeping its allocations.
    fn clear(&mut self, i: usize) {
        if self.len[i] == SPILLED {
            self.spill[i].clear();
        }
        self.len[i] = 0;
    }

    /// Slot `i`'s row.
    fn row(&mut self, i: usize) -> &mut [RecordId] {
        &mut self.ids[i * SET_MAX..][..SET_MAX]
    }

    /// Adds `id` to slot `i`'s members.
    #[inline]
    fn push(&mut self, i: usize, id: RecordId) {
        let len = self.len[i];
        if !(1..SET_MAX).contains(&len) {
            return self.push_cold(i, id);
        }
        let row = self.row(i);
        let seen = row.iter().fold(false, |seen, &m| seen | (m == id));
        row[len] = id;
        self.len[i] = len + usize::from(!seen);
    }

    /// [`MemberSets::push`] into an empty slot, a full row or a spilled
    /// log.
    #[cold]
    fn push_cold(&mut self, i: usize, id: RecordId) {
        match self.len[i] {
            0 => {
                self.row(i).fill(id);
                self.len[i] = 1;
            }
            SPILLED => push_member(&mut self.spill[i], id),
            _ => {
                let row = &self.ids[i * SET_MAX..][..SET_MAX];
                if !row.contains(&id) {
                    let spill = &mut self.spill[i];
                    spill.clear();
                    spill.extend_from_slice(row);
                    spill.push(id);
                    self.len[i] = SPILLED;
                }
            }
        }
    }

    /// Adds a subtree's ids to slot `i`'s members: one by one while the
    /// row can hold them, in one copy to the spill log otherwise.
    fn extend(&mut self, i: usize, ids: &[RecordId]) {
        let len = self.len[i];
        if len != SPILLED && len + ids.len() <= SET_MAX {
            for &id in ids {
                self.push(i, id);
            }
            return;
        }
        let spill = &mut self.spill[i];
        if len != SPILLED {
            spill.clear();
            spill.extend_from_slice(&self.ids[i * SET_MAX..][..len]);
            self.len[i] = SPILLED;
        }
        spill.extend_from_slice(ids);
    }

    /// Slot `i`'s member set, sorted (and deduplicated) in place.
    fn finalize(&mut self, i: usize) -> &[RecordId] {
        match self.len[i] {
            SPILLED => {
                let spill = &mut self.spill[i];
                finalize_members(spill);
                spill
            }
            len => {
                let row = &mut self.ids[i * SET_MAX..][..len];
                sort_ids(row);
                row
            }
        }
    }

    /// Slot `i`'s member log as an owned vector.
    fn to_vec(&self, i: usize) -> Vec<RecordId> {
        match self.len[i] {
            SPILLED => self.spill[i].clone(),
            len => self.ids[i * SET_MAX..][..len].to_vec(),
        }
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
/// Members are kept as a log that is a set while it is short (16 ids); [`OpenGroup::into_sorted_members`] sorts it (and
/// deduplicates a long one) at emission time.
#[derive(Clone, Debug)]
pub struct OpenGroup<S, const D: usize> {
    /// Member record ids as logged (a long log may hold repeats).
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

    /// Number of member entries logged so far (a long log counts
    /// repeats; use [`OpenGroup::into_sorted_members`] for the set).
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
        finalize_members(&mut m);
        m
    }
}

/// The `g` most recent groups, as a FIFO ring. Opening a group beyond
/// capacity displaces the oldest group, which is then final and is
/// emitted — groups outside the window can never change again.
///
/// Stored struct-of-arrays: the shapes live in one contiguous slab, the
/// member logs in a parallel one, and — for box shapes — the bounds in
/// [`BoundSlabs`]. The merge probe — the hottest loop of CSJ(g), run up
/// to `g` times per residual link — then collapses to one kernel call
/// ([`csj_geom::probe::mbr_fit_pick_commit`], SIMD when the host has
/// it): a fit bitmask over the whole window, integer arithmetic for the
/// newest-first accept decision and the attempt count the sequential
/// walk would have produced, and the fold of the link into the accepting
/// box. A member log is touched exactly once, on the one group that
/// accepts the link. A wrapping head index replaces `VecDeque`
/// indirection: once warm, an open overwrites the head slot in place.
#[derive(Debug)]
pub struct GroupWindow<S, const D: usize> {
    /// Group shapes; grows up to `capacity`, then slots are overwritten
    /// in place. `head` is the oldest slot once the ring is full (and 0
    /// while still filling), so slot age increases with distance from
    /// the newest slot.
    shapes: Vec<S>,
    /// Member logs, parallel to `shapes`.
    members: MemberSets,
    /// The boxes' bounds, mirroring `shapes` while every shape reports
    /// [`GroupShape::slab_bounds`]; on the slab probe path they are the
    /// authoritative merged bounds.
    slabs: BoundSlabs<D>,
    /// `false` when the window is too wide for the mask probe, or once
    /// any pushed shape declined to provide slab bounds; the window then
    /// probes sequentially until it is drained.
    slab_ok: bool,
    /// The member log a zero-capacity window finalizes a subtree group
    /// in, reused.
    spare: Vec<RecordId>,
    head: usize,
    capacity: usize,
}

impl<S: GroupShape<D>, const D: usize> GroupWindow<S, D> {
    /// A window considering the `capacity` most recent groups.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.min(1024);
        let slabs = BoundSlabs::new(capacity, KernelPath::detect());
        GroupWindow {
            shapes: Vec::with_capacity(cap),
            members: MemberSets::default(),
            slab_ok: slabs.lanes() != 0,
            slabs,
            spare: Vec::new(),
            head: 0,
            capacity,
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
        // the bound slabs, which are the authoritative merged bounds here
        // (shapes are only rematerialized from them when groups leave the
        // window via `drain`). One kernel call picks the slot the
        // sequential newest-first walk would accept, counts the attempts
        // it would have made and folds the link into that slot, so
        // decisions, output and stats are identical on every path.
        if self.slab_ok && matches!(metric, Metric::Euclidean) {
            let eps_sq = eps * eps;
            // SIMD needs a NaN-free span (the one case where lane
            // min/max diverges from f64::min/max) and a finite ε² (so
            // the `+∞` sentinels in the padded lanes can never pass);
            // otherwise the scalar kernel probes the live slots only —
            // same operations, same decision.
            let simd_ok = eps_sq < f64::INFINITY
                && (0..D).all(|d| !link.span.lo[d].is_nan() && !link.span.hi[d].is_nan());
            // csj-lint: allow(padding-invariant) — the finite-ε guard is
            // `simd_ok` above, which selects the scalar kernel as a *value*
            // rather than branching around the call; value flow is outside
            // the control-flow analysis, but the sentinel contract holds:
            // a non-finite ε² runs the scalar kernel.
            let (slot, tried) = probe::mbr_fit_pick_commit(
                &mut self.slabs,
                simd_ok,
                &link.span.lo.0,
                &link.span.hi.0,
                eps_sq,
                self.head,
                n,
            );
            *attempts += tried;
            let Some(i) = slot else { return false };
            // Debug builds re-run the checked shape merge: it must agree
            // with the mask and leave the shape on the committed bounds.
            #[cfg(debug_assertions)]
            {
                assert!(
                    self.shapes[i].try_extend_link(link, eps, metric),
                    "fit mask and sequential merge test must agree"
                );
                if let Some((lo, hi)) = self.shapes[i].slab_bounds() {
                    let (slab_lo, slab_hi) = self.slabs.get(i);
                    // FLOAT-EQ: the commit is the shape's own min/max
                    // fold; `==` lets a signed-zero tie, which no
                    // decision reads, resolve either way.
                    assert!(lo.0 == slab_lo && hi.0 == slab_hi, "slabs and shape disagree");
                }
            }
            self.members.push(i, link.a);
            self.members.push(i, link.b);
            return true;
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
                if let (true, Some((lo, hi))) = (self.slab_ok, self.shapes[i].slab_bounds()) {
                    self.slabs.set(i, &lo.0, &hi.0);
                }
                self.members.push(i, link.a);
                self.members.push(i, link.b);
                true
            }
            None => false,
        }
    }

    /// Opens a group covering `link` in the newest slot, finalizing —
    /// through `emit` — the oldest group the open displaces once the
    /// ring is full, reusing its slot. With zero capacity the link's own
    /// (already final) pair is emitted from the stack.
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
        let slot = self.open_slot(link_shape(link, metric), &mut emit)?;
        self.members.push(slot, link.a);
        self.members.push(slot, link.b);
        Ok(())
    }

    /// Opens a group for an early-stopped subtree — its record `ids`
    /// under the covering box `mbr` — in the newest slot, as
    /// [`GroupWindow::open_link`] does for a link. The ids are copied
    /// into the slot's reused member log; with zero capacity they are
    /// finalized in a reused spare log and emitted at once.
    ///
    /// # Errors
    ///
    /// Propagates the first error `emit` returns, as
    /// [`GroupWindow::open_link`] does.
    pub fn open_subtree<X, E>(
        &mut self,
        ids: &[RecordId],
        mbr: &Mbr<D>,
        metric: Metric,
        mut emit: E,
    ) -> Result<(), X>
    where
        E: FnMut(&[RecordId]) -> Result<(), X>,
    {
        debug_assert!(!ids.is_empty());
        if self.capacity == 0 {
            let spare = &mut self.spare;
            spare.clear();
            spare.extend_from_slice(ids);
            spare.sort_unstable();
            spare.dedup();
            return emit(spare);
        }
        let slot = self.open_slot(S::from_mbr(mbr, metric), &mut emit)?;
        self.members.extend(slot, ids);
        Ok(())
    }

    /// Installs `shape` in the newest slot and returns that slot with an
    /// empty member log. Once the ring is full the head slot holds the
    /// oldest group — final the moment a newer one displaces it — which
    /// is finalized in place and handed to `emit` as a slice; its member
    /// allocation is then reused, so the steady-state open neither
    /// allocates nor moves a vector.
    fn open_slot<X>(
        &mut self,
        shape: S,
        emit: &mut impl FnMut(&[RecordId]) -> Result<(), X>,
    ) -> Result<usize, X> {
        let growing = self.shapes.len() < self.capacity;
        let slot = if growing { self.shapes.len() } else { self.head };
        if !growing {
            emit(self.members.finalize(slot))?;
            self.members.clear(slot);
        }
        self.set_slab(slot, &shape);
        if growing {
            self.shapes.push(shape);
            self.members.add_slot();
        } else {
            self.shapes[slot] = shape;
            self.advance_head();
        }
        Ok(slot)
    }

    /// Moves the head past the slot just overwritten (wrapping without
    /// dividing), keeping FIFO eviction order.
    fn advance_head(&mut self) {
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
        }
    }

    /// Writes `shape`'s bounds into slot `slot` of the slabs; a shape
    /// without slab bounds switches the window to sequential probing
    /// until it is drained.
    #[inline]
    fn set_slab(&mut self, slot: usize, shape: &S) {
        if !self.slab_ok {
            return;
        }
        match shape.slab_bounds() {
            Some((lo, hi)) => self.slabs.set(slot, &lo.0, &hi.0),
            None => self.slab_ok = false,
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
        let slot = if growing { self.shapes.len() } else { self.head };
        self.set_slab(slot, &group.shape);
        let evicted = if growing {
            self.shapes.push(group.shape);
            self.members.add_slot();
            None
        } else {
            let shape = std::mem::replace(&mut self.shapes[slot], group.shape);
            let members = self.members.to_vec(slot);
            self.members.clear(slot);
            self.advance_head();
            Some(OpenGroup { members, shape })
        };
        self.members.extend(slot, &group.members);
        evicted
    }

    /// Closes the window, yielding all remaining groups oldest-first.
    pub fn drain(&mut self) -> impl Iterator<Item = OpenGroup<S, D>> + '_ {
        // On the slab probe path merges update only the bound slabs;
        // restore each departing shape from its slab columns so drained
        // groups carry their true merged bounds.
        if self.slab_ok {
            for (i, shape) in self.shapes.iter_mut().enumerate() {
                let (lo, hi) = self.slabs.get(i);
                shape.set_slab_bounds(&Point::new(lo), &Point::new(hi));
            }
        }
        let mut shapes = std::mem::take(&mut self.shapes);
        let members = std::mem::take(&mut self.members);
        let mut members: Vec<Vec<RecordId>> =
            (0..shapes.len()).map(|i| members.to_vec(i)).collect();
        shapes.rotate_left(self.head);
        members.rotate_left(self.head);
        self.slabs.reset();
        self.slab_ok = self.slabs.lanes() != 0;
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
        assert!(g.try_merge(1, &p(0.0, 0.0), 3, &p(0.2, 0.0), 1.0, L2));
        // A short log is a set: repeats are skipped at push time.
        assert_eq!(g.members, vec![1, 2, 3]);
        assert_eq!(g.into_sorted_members(), vec![1, 2, 3]);
    }

    #[test]
    fn long_member_logs_are_deduplicated_at_emission() {
        let mbr = Mbr::from_corners(&p(0.0, 0.0), &p(0.3, 0.4));
        let ids: Vec<u32> = (0..2 * SET_MAX as u32).rev().collect();
        let mut w: GroupWindow<MbrShape<2>, 2> = GroupWindow::new(2);
        let mut emitted = Vec::new();
        w.open_subtree(&ids, &mbr, L2, |m| {
            emitted.push(m.to_vec());
            Ok::<_, ()>(())
        })
        .unwrap();
        let (pa, pb) = (p(0.1, 0.1), p(0.2, 0.2));
        let mut attempts = 0;
        // Both endpoints are already members: the raw log repeats them.
        assert!(w.try_merge_link(&LinkProbe::new(3, &pa, 5, &pb), 0.5, L2, &mut attempts));
        let g = w.drain().next().unwrap();
        assert_eq!(g.members.len(), ids.len() + 2);
        assert_eq!(g.into_sorted_members(), (0..2 * SET_MAX as u32).collect::<Vec<_>>());
        assert!(emitted.is_empty());
    }

    #[test]
    fn subtree_group_has_node_shape() {
        let mbr = Mbr::from_corners(&p(0.0, 0.0), &p(0.3, 0.4));
        let mut w: GroupWindow<MbrShape<2>, 2> = GroupWindow::new(1);
        let mut emitted = Vec::new();
        let mut emit = |m: &[u32]| {
            emitted.push(m.to_vec());
            Ok::<_, ()>(())
        };
        w.open_subtree(&[7, 5, 6], &mbr, L2, &mut emit).unwrap();
        w.open_subtree(&[9, 8], &mbr, L2, &mut emit).unwrap();
        let g = w.drain().next().unwrap();
        assert_eq!(g.shape.diameter(L2), 0.5);
        assert_eq!(g.into_sorted_members(), vec![8, 9]);
        // A zero-capacity window emits the sorted set at once.
        let mut w0: GroupWindow<MbrShape<2>, 2> = GroupWindow::new(0);
        w0.open_subtree(&[4, 2, 3], &mbr, L2, &mut emit).unwrap();
        assert_eq!(emitted, vec![vec![5, 6, 7], vec![2, 3, 4]]);
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
