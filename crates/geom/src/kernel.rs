//! Batched leaf-probe distance kernels with runtime SIMD dispatch.
//!
//! The join hot path compares every point of one leaf against every point
//! of another (or the same) leaf. Done pair-at-a-time through
//! [`Metric::distance`] this is a chain of dependent scalar ops; done over
//! a struct-of-arrays leaf layout ([`SoaView`]) it becomes `D` contiguous
//! streaming loads per probe row, fed either to an explicit `std::arch`
//! SIMD sweep (AVX2 on x86-64, NEON on aarch64) or to the chunked-scalar
//! fallback the autovectorizer already handles well.
//!
//! Which sweep runs is decided once per process by [`KernelPath::detect`]:
//! runtime CPU-feature detection (`is_x86_feature_detected!`), overridable
//! with the `CSJ_KERNEL` environment variable (`auto` | `scalar` | `simd`)
//! or per-kernel with [`DistKernel::with_path`]. Hosts without AVX2/NEON
//! fall back to scalar silently — the fallback is the specification.
//!
//! Every path preserves the scalar semantics *exactly*:
//!
//! * hits are reported in the same `(i ascending, j ascending)` order the
//!   nested scalar loops use (CSJ's windowed grouping is order-sensitive);
//! * the Euclidean accumulation runs over dimensions in the same order as
//!   [`Point::sq_euclidean`], with separate multiply and add (never FMA —
//!   fusing changes rounding), so every per-pair value is bit-identical to
//!   the scalar computation;
//! * the ε² threshold compare is ordered and non-signaling
//!   (`_CMP_LE_OQ` / `vcleq_f64`), matching scalar `<=` on NaN;
//! * non-Euclidean metrics fall back to the scalar predicate per pair, so
//!   batching never changes which pairs qualify.
//!
//! The SIMD sweeps process rows in blocks of [`SWEEP_BLOCK`], compacting
//! qualifying row indices into a hit ring without a branch per hit (a
//! lane-index table turns each compare mask into stored indices) and
//! draining the ring to the caller after each wide sweep — candidate
//! generation is batched, emission order is untouched, and the hot loop
//! contains no callback.
//!
//! A Euclidean cross probe first drops what cannot link: rows of either
//! leaf farther than ε, on some axis, from the other leaf's bounding box
//! (the ε-strip, see [`DistKernel::cross_join`]). The test is exact in the
//! kernel's own arithmetic, so it removes distance computations, never
//! hits. The hit ring and the strip live in a caller-owned
//! [`ProbeScratch`], so a probe allocates nothing once it has grown.

use crate::{Mbr, Metric, Point, SoaView};
use std::sync::OnceLock;

/// Chunk width for the chunked-scalar path. Eight 64-bit lanes fill a
/// 512-bit vector and give the autovectorizer two 256-bit ops per step on
/// AVX2-class hardware; the value is a tuning knob, not a correctness one.
pub const LANES: usize = 8;

/// Rows per wide sweep in the explicit SIMD paths. Each sweep compacts its
/// qualifying row indices into the [`ProbeScratch`] hit ring before they
/// are drained to the hit callback, so the vector loop never calls out.
/// Leaves are smaller than this in practice (the default R*-tree fanout
/// is 50), so a probe row is normally a single sweep.
pub const SWEEP_BLOCK: usize = 256;

/// The buffers a leaf probe reuses: the hit ring the SIMD sweeps compact
/// into, and a cross probe's ε-strip — the right leaf's rows that can
/// link, gathered into their own slabs, with the row each came from.
///
/// One scratch serves any number of probes, one at a time; its buffers
/// grow to the largest leaf and are then only reused.
#[derive(Debug)]
pub struct ProbeScratch<const D: usize> {
    ring: Vec<u32>,
    strip: [Vec<f64>; D],
    strip_rows: Vec<u32>,
}

impl<const D: usize> Default for ProbeScratch<D> {
    fn default() -> Self {
        ProbeScratch::new()
    }
}

impl<const D: usize> ProbeScratch<D> {
    /// An empty scratch; nothing is allocated until the first probe.
    pub fn new() -> Self {
        ProbeScratch {
            ring: Vec::new(),
            strip: std::array::from_fn(|_| Vec::new()),
            strip_rows: Vec::new(),
        }
    }

    /// The hit ring, sized for one sweep block. Every store of a sweep
    /// lands inside it: a chunk's store starts at the hit count, which
    /// never exceeds the rows swept before the chunk.
    fn ring(ring: &mut Vec<u32>) -> &mut [u32] {
        if ring.len() < SWEEP_BLOCK {
            ring.resize(SWEEP_BLOCK, 0);
        }
        ring
    }
}

/// The box of a slab view's rows: per axis the `f64::min`/`f64::max` of
/// its coordinates, which skip NaN (empty when every row is NaN there).
/// Row by row, so the axes' folds run side by side.
fn slab_box<const D: usize>(view: SoaView<'_, D>) -> Mbr<D> {
    let (mut lo, mut hi) = ([f64::INFINITY; D], [f64::NEG_INFINITY; D]);
    for j in 0..view.len() {
        let p = view.coords(j);
        for d in 0..D {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    Mbr { lo: Point::new(lo), hi: Point::new(hi) }
}

/// Which distance-sweep implementation a [`DistKernel`] drives.
///
/// `Scalar` is always available and is the semantic reference; the SIMD
/// variants are selected only after runtime CPU-feature detection and
/// produce bit-identical hits (proptest-locked in this module).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPath {
    /// Chunked-scalar sweep ([`LANES`]-wide accumulator blocks).
    Scalar,
    /// 4×f64 `std::arch::x86_64` AVX2 sweep.
    Avx2,
    /// 2×f64 `std::arch::aarch64` NEON sweep.
    Neon,
}

impl KernelPath {
    /// Whether this path can run on the current CPU.
    pub fn available(self) -> bool {
        match self {
            KernelPath::Scalar => true,
            KernelPath::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            KernelPath::Neon => {
                #[cfg(target_arch = "aarch64")]
                {
                    std::arch::is_aarch64_feature_detected!("neon")
                }
                #[cfg(not(target_arch = "aarch64"))]
                {
                    false
                }
            }
        }
    }

    /// This path if the CPU supports it, otherwise [`KernelPath::Scalar`].
    pub fn clamp(self) -> KernelPath {
        if self.available() {
            self
        } else {
            KernelPath::Scalar
        }
    }

    /// The widest SIMD path the current CPU supports (ignoring the
    /// `CSJ_KERNEL` override), or `Scalar` when there is none.
    pub fn native() -> KernelPath {
        if KernelPath::Avx2.available() {
            KernelPath::Avx2
        } else if KernelPath::Neon.available() {
            KernelPath::Neon
        } else {
            KernelPath::Scalar
        }
    }

    /// The process-wide default path: [`KernelPath::native`] unless the
    /// `CSJ_KERNEL` environment variable pins it.
    ///
    /// `CSJ_KERNEL=scalar` forces the chunked-scalar sweep everywhere;
    /// `CSJ_KERNEL=simd` or `auto` (and any unrecognized value) selects
    /// the native path, which is scalar on hosts without AVX2/NEON. The
    /// decision is made once and cached for the life of the process.
    pub fn detect() -> KernelPath {
        static DETECTED: OnceLock<KernelPath> = OnceLock::new();
        *DETECTED.get_or_init(|| match std::env::var("CSJ_KERNEL") {
            Ok(v) if v.eq_ignore_ascii_case("scalar") => KernelPath::Scalar,
            _ => KernelPath::native(),
        })
    }

    /// Stable lowercase name for reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Avx2 => "avx2",
            KernelPath::Neon => "neon",
        }
    }

    /// Whether this is an explicit-SIMD path.
    pub fn is_simd(self) -> bool {
        !matches!(self, KernelPath::Scalar)
    }
}

/// A reusable ε-threshold distance kernel over leaf point storage.
///
/// Construct once per join (or per task) and call
/// [`DistKernel::self_join`] / [`DistKernel::cross_join`] per leaf probe
/// with the leaf's [`SoaView`]. The AoS entry points
/// ([`DistKernel::self_join_points`] / [`DistKernel::cross_join_points`])
/// remain for callers holding plain `[Point<D>]` slices; they always run
/// the chunked-scalar sweep and are the guaranteed-bit-identical baseline.
#[derive(Clone, Copy, Debug)]
pub struct DistKernel {
    metric: Metric,
    eps: f64,
    eps_sq: f64,
    path: KernelPath,
}

impl DistKernel {
    /// A kernel for the given metric and range ε, on the process default
    /// sweep path ([`KernelPath::detect`]).
    pub fn new(metric: Metric, eps: f64) -> Self {
        DistKernel::with_path(metric, eps, KernelPath::detect())
    }

    /// A kernel pinned to a specific sweep path. Paths the CPU cannot run
    /// are clamped to [`KernelPath::Scalar`], so forcing `Avx2` on a
    /// non-AVX2 host degrades cleanly instead of faulting.
    pub fn with_path(metric: Metric, eps: f64, path: KernelPath) -> Self {
        DistKernel { metric, eps, eps_sq: eps * eps, path: path.clamp() }
    }

    /// The join range ε.
    #[inline]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The metric distances are measured in.
    #[inline]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The sweep path this kernel drives (post-clamp).
    #[inline]
    pub fn path(&self) -> KernelPath {
        self.path
    }

    /// All pairs `(i, j)` with `i < j` and row `i` within ε of row `j`,
    /// reported through `on_hit` in `(i asc, j asc)` order; `scratch` holds
    /// the hit ring between probes.
    ///
    /// `comparisons` is advanced by the number of distance predicate
    /// evaluations (one per pair; whole probe rows are counted up front,
    /// so after an `Err` the count may run ahead by less than one row).
    ///
    /// # Errors
    ///
    /// The kernel itself cannot fail; the only `Err` is one returned by
    /// `on_hit`, which stops the scan and is propagated unchanged.
    pub fn self_join<const D: usize, E>(
        &self,
        pts: SoaView<'_, D>,
        scratch: &mut ProbeScratch<D>,
        comparisons: &mut u64,
        mut on_hit: impl FnMut(usize, usize) -> Result<(), E>,
    ) -> Result<(), E> {
        let n = pts.len();
        if !matches!(self.metric, Metric::Euclidean) {
            for i in 0..n {
                *comparisons += (n - i - 1) as u64;
                let p = pts.point(i);
                for j in (i + 1)..n {
                    if self.metric.within(&p, &pts.point(j), self.eps) {
                        on_hit(i, j)?;
                    }
                }
            }
            return Ok(());
        }
        let ring = ProbeScratch::<D>::ring(&mut scratch.ring);
        for i in 0..n {
            *comparisons += (n - i - 1) as u64;
            let probe = pts.coords(i);
            self.probe_soa(&probe, pts.dims(), i + 1, ring, |j| on_hit(i, j))?;
        }
        Ok(())
    }

    /// All pairs `(i, j)` with `left` row `i` within ε of `right` row `j`,
    /// reported through `on_hit` in `(i asc, j asc)` order. Counting as in
    /// [`DistKernel::self_join`], over the pairs actually evaluated.
    ///
    /// Under the Euclidean metric only the ε-strip is swept: the rows of
    /// `right` within ε of `left`'s box are gathered into `scratch`, and
    /// each row of `left` within ε of the gathered rows' box is probed
    /// against them alone. A row is dropped when, on some axis `d`, its
    /// gap to the box, `g = fl(p_d − hi_d)` or `fl(lo_d − p_d)`, is
    /// positive and `fl(g·g) > ε²`, a test exact in the sweeps' own
    /// arithmetic (the argument is on the private `beyond`). Surviving
    /// rows keep their order, so the hits and their order are exactly the
    /// unrestricted sweep's.
    ///
    /// # Errors
    ///
    /// The kernel itself cannot fail; the only `Err` is one returned by
    /// `on_hit`, which stops the scan and is propagated unchanged.
    pub fn cross_join<const D: usize, E>(
        &self,
        left: SoaView<'_, D>,
        right: SoaView<'_, D>,
        scratch: &mut ProbeScratch<D>,
        comparisons: &mut u64,
        mut on_hit: impl FnMut(usize, usize) -> Result<(), E>,
    ) -> Result<(), E> {
        let (nl, nr) = (left.len(), right.len());
        if !matches!(self.metric, Metric::Euclidean) {
            for i in 0..nl {
                *comparisons += nr as u64;
                let p = left.point(i);
                for j in 0..nr {
                    if self.metric.within(&p, &right.point(j), self.eps) {
                        on_hit(i, j)?;
                    }
                }
            }
            return Ok(());
        }
        let ProbeScratch { ring, strip, strip_rows } = scratch;
        let ring = ProbeScratch::<D>::ring(ring);
        if strip_rows.len() < nr {
            strip_rows.resize(nr, 0);
            strip.iter_mut().for_each(|slab| slab.resize(nr, 0.0));
        }
        let reach = slab_box(left);
        // Gather without a branch per row: every row is written at the
        // strip's end, which advances only past a row that can link.
        let mut len = 0;
        for j in 0..nr {
            let q = right.coords(j);
            for (slab, &x) in strip.iter_mut().zip(&q) {
                slab[len] = x;
            }
            strip_rows[len] = j as u32;
            len += usize::from(!self.beyond(&q, &reach));
        }
        if len == 0 {
            return Ok(());
        }
        let strip = SoaView::new(std::array::from_fn(|d| &strip[d][..len]));
        let strip_box = slab_box(strip);
        for i in 0..nl {
            let probe = left.coords(i);
            if self.beyond(&probe, &strip_box) {
                continue;
            }
            *comparisons += len as u64;
            self.probe_soa(&probe, strip.dims(), 0, ring, |k| on_hit(i, strip_rows[k] as usize))?;
        }
        Ok(())
    }

    /// `true` when no point of `bx` is within ε of `p` by this kernel's
    /// arithmetic, so a probe may skip `p` without losing a hit.
    ///
    /// Exactness: say some axis `d` has `p_d > hi_d`, with gap
    /// `g = fl(p_d − hi_d) > 0` and `fl(g·g) > ε²` (`ε²` as the sweeps
    /// hold it). Every point `q` of the box has `q_d <= hi_d`, so
    /// `p_d − q_d >= p_d − hi_d`, and rounding to nearest is monotone and
    /// sign-symmetric: the kernel's `|fl(q_d − p_d)| >= g`, hence its term
    /// `fl(fl(q_d − p_d)²) >= fl(g·g) > ε²`. The kernel sums non-negative
    /// terms, and `fl(s + t) >= t` when `s >= 0`, so the pair's sum is at
    /// least that term and fails `<= ε²`. The case `p_d < lo_d` is the
    /// mirror image. A NaN coordinate never rejects (its gap compares
    /// false) and never links, so the box need not cover NaN rows, which
    /// [`slab_box`] skips.
    #[inline]
    fn beyond<const D: usize>(&self, p: &[f64; D], bx: &Mbr<D>) -> bool {
        let mut out = false;
        for (d, &x) in p.iter().enumerate() {
            let gap = (x - bx.hi[d]).max(bx.lo[d] - x);
            out |= gap > 0.0 && gap * gap > self.eps_sq;
        }
        out
    }

    /// AoS variant of [`DistKernel::self_join`] over a contiguous
    /// `[Point<D>]` slice. Always runs the chunked-scalar sweep.
    ///
    /// # Errors
    ///
    /// The kernel itself cannot fail; the only `Err` is one returned by
    /// `on_hit`, which stops the scan and is propagated unchanged.
    pub fn self_join_points<const D: usize, E>(
        &self,
        pts: &[Point<D>],
        comparisons: &mut u64,
        mut on_hit: impl FnMut(usize, usize) -> Result<(), E>,
    ) -> Result<(), E> {
        for i in 0..pts.len() {
            *comparisons += (pts.len() - i - 1) as u64;
            self.probe_row(&pts[i], &pts[i + 1..], |off| on_hit(i, i + 1 + off))?;
        }
        Ok(())
    }

    /// AoS variant of [`DistKernel::cross_join`] over contiguous
    /// `[Point<D>]` slices. Always runs the chunked-scalar sweep, over
    /// every pair (no ε-strip).
    ///
    /// # Errors
    ///
    /// The kernel itself cannot fail; the only `Err` is one returned by
    /// `on_hit`, which stops the scan and is propagated unchanged.
    pub fn cross_join_points<const D: usize, E>(
        &self,
        left: &[Point<D>],
        right: &[Point<D>],
        comparisons: &mut u64,
        mut on_hit: impl FnMut(usize, usize) -> Result<(), E>,
    ) -> Result<(), E> {
        for (i, p) in left.iter().enumerate() {
            *comparisons += right.len() as u64;
            self.probe_row(p, right, |j| on_hit(i, j))?;
        }
        Ok(())
    }

    /// One probe against slab rows `[start, len)`, dispatching on the
    /// kernel path; the SIMD sweeps compact into `ring`. Hit indices are
    /// absolute row numbers, ascending.
    #[inline]
    fn probe_soa<const D: usize, E>(
        &self,
        probe: &[f64; D],
        dims: &[&[f64]; D],
        start: usize,
        ring: &mut [u32],
        mut on_hit: impl FnMut(usize) -> Result<(), E>,
    ) -> Result<(), E> {
        let n = dims.first().map_or(start, |s| s.len());
        debug_assert!(n <= u32::MAX as usize, "slab rows must fit the u32 hit ring");
        debug_assert!(ring.len() >= SWEEP_BLOCK);
        let eps_sq = self.eps_sq;
        match self.path {
            KernelPath::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                return drain_blocks(start, n, ring, on_hit, |lo, hi, out| {
                    // SAFETY: `KernelPath::Avx2` is only reachable post-clamp,
                    // i.e. after `is_x86_feature_detected!("avx2")` confirmed
                    // the CPU executes AVX2; `lo..hi` is in bounds for every
                    // slab (all have length `n`, checked by `SoaView`) and
                    // spans at most `SWEEP_BLOCK <= out.len()` rows.
                    unsafe { x86::sweep_avx2(probe, dims, lo, hi, eps_sq, out) }
                });
            }
            KernelPath::Neon => {
                #[cfg(target_arch = "aarch64")]
                return drain_blocks(start, n, ring, on_hit, |lo, hi, out| {
                    // SAFETY: `KernelPath::Neon` is only reachable post-clamp,
                    // i.e. after `is_aarch64_feature_detected!("neon")`
                    // confirmed NEON; `lo..hi` is in bounds for every slab
                    // (all have length `n`, checked by `SoaView`) and spans
                    // at most `SWEEP_BLOCK <= out.len()` rows.
                    unsafe { neon::sweep_neon(probe, dims, lo, hi, eps_sq, out) }
                });
            }
            KernelPath::Scalar => {}
        }
        self.probe_soa_scalar(probe, dims, start, &mut on_hit)
    }

    /// Chunked-scalar sweep over slab rows `[start, len)` — the reference
    /// semantics every SIMD sweep must reproduce bit-for-bit.
    fn probe_soa_scalar<const D: usize, E>(
        &self,
        probe: &[f64; D],
        dims: &[&[f64]; D],
        start: usize,
        on_hit: &mut impl FnMut(usize) -> Result<(), E>,
    ) -> Result<(), E> {
        let n = dims.first().map_or(start, |s| s.len());
        let mut j = start;
        while j + LANES <= n {
            // Branch-free distance block: dimensions outer, lanes inner,
            // so each step is LANES independent accumulations. The
            // per-pair dimension order matches `Point::sq_euclidean`,
            // keeping every value bit-identical to the scalar path.
            let mut acc = [0.0f64; LANES];
            for (l, slot) in acc.iter_mut().enumerate() {
                let mut sq = 0.0;
                for d in 0..D {
                    let delta = dims[d][j + l] - probe[d];
                    sq += delta * delta;
                }
                *slot = sq;
            }
            // Branch-free any-hit reduction first: in sparse regions most
            // chunks have no qualifying pair, and the whole block retires
            // on one predictable branch.
            let mut any = false;
            for &sq in &acc {
                any |= sq <= self.eps_sq;
            }
            if any {
                for (l, &sq) in acc.iter().enumerate() {
                    if sq <= self.eps_sq {
                        on_hit(j + l)?;
                    }
                }
            }
            j += LANES;
        }
        while j < n {
            let mut sq = 0.0;
            for d in 0..D {
                let delta = dims[d][j] - probe[d];
                sq += delta * delta;
            }
            if sq <= self.eps_sq {
                on_hit(j)?;
            }
            j += 1;
        }
        Ok(())
    }

    /// One probe point against a contiguous AoS row; hit offsets are
    /// relative to `row` and ascending. Chunked-scalar only.
    #[inline]
    fn probe_row<const D: usize, E>(
        &self,
        p: &Point<D>,
        row: &[Point<D>],
        mut on_hit: impl FnMut(usize) -> Result<(), E>,
    ) -> Result<(), E> {
        if !matches!(self.metric, Metric::Euclidean) {
            for (j, q) in row.iter().enumerate() {
                if self.metric.within(p, q, self.eps) {
                    on_hit(j)?;
                }
            }
            return Ok(());
        }
        let mut chunks = row.chunks_exact(LANES);
        let mut base = 0usize;
        for chunk in chunks.by_ref() {
            // csj-lint: allow(panic-safety) — chunks_exact(LANES)
            // guarantees the slice length; the conversion is infallible.
            let block: &[Point<D>; LANES] = chunk.try_into().expect("chunk has LANES points");
            let mut acc = [0.0f64; LANES];
            for (l, slot) in acc.iter_mut().enumerate() {
                let mut sq = 0.0;
                for d in 0..D {
                    let delta = block[l][d] - p[d];
                    sq += delta * delta;
                }
                *slot = sq;
            }
            let mut any = false;
            for &sq in &acc {
                any |= sq <= self.eps_sq;
            }
            if any {
                for (l, &sq) in acc.iter().enumerate() {
                    if sq <= self.eps_sq {
                        on_hit(base + l)?;
                    }
                }
            }
            base += LANES;
        }
        for (l, q) in chunks.remainder().iter().enumerate() {
            if p.sq_euclidean(q) <= self.eps_sq {
                on_hit(base + l)?;
            }
        }
        Ok(())
    }
}

/// Runs `sweep` over rows `[start, n)` in blocks of [`SWEEP_BLOCK`],
/// draining the hit indices each block compacts into `ring` to `on_hit`
/// in ascending order.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn drain_blocks<E>(
    start: usize,
    n: usize,
    ring: &mut [u32],
    mut on_hit: impl FnMut(usize) -> Result<(), E>,
    mut sweep: impl FnMut(usize, usize, &mut [u32]) -> usize,
) -> Result<(), E> {
    let mut lo = start;
    while lo < n {
        let hi = (lo + SWEEP_BLOCK).min(n);
        let count = sweep(lo, hi, ring);
        for &j in &ring[..count] {
            on_hit(j as usize)?;
        }
        lo = hi;
    }
    Ok(())
}

/// For each `W`-lane compare mask `m`, the indices of its set lanes in
/// ascending order, padded with zeros: the branch-free compaction stores
/// a mask's row all at once and advances by `m.count_ones()`, so the
/// padding is overwritten by the next store or lies past the count.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
const fn lane_index<const W: usize, const M: usize>() -> [[u32; W]; M] {
    let mut table = [[0u32; W]; M];
    let mut m = 0;
    while m < M {
        let (mut lane, mut k) = (0, 0);
        while lane < W {
            if (m >> lane) & 1 == 1 {
                table[m][k] = lane as u32;
                k += 1;
            }
            lane += 1;
        }
        m += 1;
    }
    table
}

/// Explicit AVX2 sweep. Kept in its own module so every `unsafe` surface
/// is in one place and compiled only on x86-64.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{lane_index, SWEEP_BLOCK};
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_cmp_pd, _mm256_loadu_pd, _mm256_movemask_pd, _mm256_mul_pd,
        _mm256_set1_pd, _mm256_setzero_pd, _mm256_sub_pd, _mm_add_epi32, _mm_loadu_si128,
        _mm_set1_epi32, _mm_storeu_si128, _CMP_LE_OQ,
    };

    /// The set lanes of each 4-lane `movemask`, ascending.
    static LANES4: [[u32; 4]; 16] = lane_index::<4, 16>();

    /// Sweeps `probe` against slab rows `[lo, hi)`, writing qualifying row
    /// indices into `out` in ascending order; returns how many were
    /// written (at most `hi - lo`, which the caller bounds by
    /// [`SWEEP_BLOCK`]).
    ///
    /// Bit-identity with the scalar sweep: `vsub`/`vmul`/`vadd` are the
    /// IEEE-754 operations the scalar loop performs, in the same dimension
    /// order, with no FMA contraction; `_CMP_LE_OQ` is ordered `<=`
    /// (false on NaN) exactly like the scalar compare; the `movemask`
    /// row of [`LANES4`] lists the qualifying lanes in ascending order.
    ///
    /// Branch-free compaction: each chunk stores four indices at the hit
    /// count and advances it by the mask's popcount. The count never
    /// exceeds the rows swept before the chunk, so the store ends by
    /// `hi - lo <= SWEEP_BLOCK <= out.len()`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (callers establish this via runtime
    /// feature detection), `hi - lo` must not exceed `SWEEP_BLOCK` or
    /// `out.len()`, and every slab in `dims` must have length ≥ `hi`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sweep_avx2<const D: usize>(
        probe: &[f64; D],
        dims: &[&[f64]; D],
        lo: usize,
        hi: usize,
        eps_sq: f64,
        out: &mut [u32],
    ) -> usize {
        debug_assert!(hi - lo <= SWEEP_BLOCK && hi - lo <= out.len());
        let mut count = 0usize;
        let thr = _mm256_set1_pd(eps_sq);
        let dst = out.as_mut_ptr();
        let mut j = lo;
        while j + 4 <= hi {
            let mut acc = _mm256_setzero_pd();
            for d in 0..D {
                debug_assert!(j + 4 <= dims[d].len());
                // SAFETY: `j + 4 <= hi <= dims[d].len()` (caller contract),
                // so the 4-wide unaligned load stays inside the slab.
                let v = unsafe { _mm256_loadu_pd(dims[d].as_ptr().add(j)) };
                let delta = _mm256_sub_pd(v, _mm256_set1_pd(probe[d]));
                // Separate mul + add: an FMA here would change rounding
                // and break bit-identity with the scalar sweep.
                acc = _mm256_add_pd(acc, _mm256_mul_pd(delta, delta));
            }
            let m = (_mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(acc, thr)) & 15) as usize;
            let rows = _mm_add_epi32(
                // SAFETY: `LANES4[m]` is four `u32`s, one unaligned 128-bit
                // load (`m < 16` after the mask).
                unsafe { _mm_loadu_si128(LANES4[m].as_ptr().cast()) },
                _mm_set1_epi32(j as i32),
            );
            debug_assert!(count + 4 <= out.len());
            // SAFETY: BOUNDS(count + 4 <= out.len()) — `count <= j - lo`
            // hits so far and `j + 4 <= hi`, so the four stored indices
            // end by `hi - lo <= out.len()` (caller contract).
            unsafe { _mm_storeu_si128(dst.add(count).cast(), rows) };
            count += m.count_ones() as usize;
            j += 4;
        }
        while j < hi {
            let mut sq = 0.0;
            for d in 0..D {
                let delta = dims[d][j] - probe[d];
                sq += delta * delta;
            }
            out[count] = j as u32;
            count += usize::from(sq <= eps_sq);
            j += 1;
        }
        count
    }
}

/// Explicit NEON sweep (aarch64). Structured identically to the AVX2
/// module: 2×f64 lanes instead of 4.
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{lane_index, SWEEP_BLOCK};
    use std::arch::aarch64::{
        vaddq_f64, vcleq_f64, vdupq_n_f64, vgetq_lane_u64, vld1q_f64, vmulq_f64, vsubq_f64,
    };

    /// The set lanes of each 2-lane compare mask, ascending.
    static LANES2: [[u32; 2]; 4] = lane_index::<2, 4>();

    /// Sweeps `probe` against slab rows `[lo, hi)`, writing qualifying row
    /// indices into `out` in ascending order; returns how many were
    /// written. Bit-identity argument as in `sweep_avx2`: IEEE-754
    /// sub/mul/add in dimension order, no FMA, `vcleq_f64` is ordered
    /// `<=` (false on NaN), lanes listed low-to-high by [`LANES2`].
    /// Compaction is branch-free as in `sweep_avx2`, two indices a chunk.
    ///
    /// # Safety
    ///
    /// The CPU must support NEON (callers establish this via runtime
    /// feature detection), `hi - lo` must not exceed `SWEEP_BLOCK` or
    /// `out.len()`, and every slab in `dims` must have length ≥ `hi`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn sweep_neon<const D: usize>(
        probe: &[f64; D],
        dims: &[&[f64]; D],
        lo: usize,
        hi: usize,
        eps_sq: f64,
        out: &mut [u32],
    ) -> usize {
        debug_assert!(hi - lo <= SWEEP_BLOCK && hi - lo <= out.len());
        let mut count = 0usize;
        let thr = vdupq_n_f64(eps_sq);
        let mut j = lo;
        while j + 2 <= hi {
            let mut acc = vdupq_n_f64(0.0);
            for d in 0..D {
                debug_assert!(j + 2 <= dims[d].len());
                // SAFETY: `j + 2 <= hi <= dims[d].len()` (caller contract),
                // so the 2-wide load stays inside the slab.
                let v = unsafe { vld1q_f64(dims[d].as_ptr().add(j)) };
                let delta = vsubq_f64(v, vdupq_n_f64(probe[d]));
                // Separate mul + add: an FMA here would change rounding
                // and break bit-identity with the scalar sweep.
                acc = vaddq_f64(acc, vmulq_f64(delta, delta));
            }
            let le = vcleq_f64(acc, thr);
            let m = ((vgetq_lane_u64::<0>(le) & 1) | (vgetq_lane_u64::<1>(le) & 2)) as usize;
            let [first, second] = LANES2[m];
            // `count <= j - lo` and `j + 2 <= hi`: both stores land below
            // `hi - lo <= out.len()`.
            out[count] = j as u32 + first;
            out[count + 1] = j as u32 + second;
            count += m.count_ones() as usize;
            j += 2;
        }
        while j < hi {
            let mut sq = 0.0;
            for d in 0..D {
                let delta = dims[d][j] - probe[d];
                sq += delta * delta;
            }
            out[count] = j as u32;
            count += usize::from(sq <= eps_sq);
            j += 1;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SoaBuffer;

    /// Infallible-callback error type for tests.
    type Never = std::convert::Infallible;

    /// Every path worth exercising on this host: scalar always, plus the
    /// native SIMD path when the CPU has one (clamping makes this safe to
    /// list unconditionally).
    fn paths_under_test() -> Vec<KernelPath> {
        let mut paths = vec![KernelPath::Scalar];
        if KernelPath::native().is_simd() {
            paths.push(KernelPath::native());
        }
        paths
    }

    fn scatter(n: usize, seed: u64) -> Vec<Point<3>> {
        (0..n)
            .map(|i| {
                let h = |k: u64| {
                    let mut x =
                        (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed + k);
                    x ^= x >> 29;
                    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    x ^= x >> 32;
                    (x % 100_000) as f64 / 100_000.0
                };
                Point::new([h(1), h(2), h(3)])
            })
            .collect()
    }

    fn scalar_self(m: Metric, pts: &[Point<3>], eps: f64) -> (Vec<(usize, usize)>, u64) {
        let mut hits = Vec::new();
        let mut comps = 0u64;
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                comps += 1;
                if m.within(&pts[i], &pts[j], eps) {
                    hits.push((i, j));
                }
            }
        }
        (hits, comps)
    }

    fn scalar_cross(
        m: Metric,
        a: &[Point<3>],
        b: &[Point<3>],
        eps: f64,
    ) -> (Vec<(usize, usize)>, u64) {
        let mut hits = Vec::new();
        let mut comps = 0u64;
        for (i, x) in a.iter().enumerate() {
            for (j, y) in b.iter().enumerate() {
                comps += 1;
                if m.within(x, y, eps) {
                    hits.push((i, j));
                }
            }
        }
        (hits, comps)
    }

    fn run_self(kernel: &DistKernel, pts: &[Point<3>]) -> (Vec<(usize, usize)>, u64) {
        let buf = SoaBuffer::from_points(pts);
        let mut hits = Vec::new();
        let mut comps = 0u64;
        kernel
            .self_join(
                buf.view(),
                &mut ProbeScratch::new(),
                &mut comps,
                |i, j| -> Result<(), Never> {
                    hits.push((i, j));
                    Ok(())
                },
            )
            .unwrap();
        (hits, comps)
    }

    fn run_cross(
        kernel: &DistKernel,
        a: &[Point<3>],
        b: &[Point<3>],
    ) -> (Vec<(usize, usize)>, u64) {
        let (ba, bb) = (SoaBuffer::from_points(a), SoaBuffer::from_points(b));
        let mut hits = Vec::new();
        let mut comps = 0u64;
        kernel
            .cross_join(ba.view(), bb.view(), &mut ProbeScratch::new(), &mut comps, |i, j| {
                hits.push((i, j));
                Ok::<_, Never>(())
            })
            .unwrap();
        (hits, comps)
    }

    #[test]
    fn self_join_matches_scalar_all_metrics_sizes_and_paths() {
        for m in [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev, Metric::Minkowski(3.0)] {
            // Sizes straddle both the scalar chunk (LANES = 8) and the
            // widest SIMD lane count (4 on AVX2, 2 on NEON).
            for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 16, 61] {
                let pts = scatter(n, 7);
                let eps = 0.35;
                let (want, want_comps) = scalar_self(m, &pts, eps);
                for path in paths_under_test() {
                    let kernel = DistKernel::with_path(m, eps, path);
                    let (hits, comps) = run_self(&kernel, &pts);
                    assert_eq!(hits, want, "{m:?} n={n} {}: hit set/order", path.name());
                    assert_eq!(comps, want_comps, "{m:?} n={n} {}: comparisons", path.name());
                }
            }
        }
    }

    #[test]
    fn cross_join_matches_scalar() {
        for m in [Metric::Euclidean, Metric::Manhattan] {
            let a = scatter(23, 1);
            let b = scatter(40, 2);
            let eps = 0.4;
            let (want, want_comps) = scalar_cross(m, &a, &b, eps);
            for path in paths_under_test() {
                let kernel = DistKernel::with_path(m, eps, path);
                let (hits, comps) = run_cross(&kernel, &a, &b);
                assert_eq!(hits, want, "{m:?} {}", path.name());
                // The Euclidean ε-strip evaluates at most every pair; the
                // other metrics evaluate all of them.
                match m {
                    Metric::Euclidean => assert!(comps <= want_comps, "{}", path.name()),
                    _ => assert_eq!(comps, want_comps, "{m:?} {}", path.name()),
                }
            }
        }
    }

    #[test]
    fn points_entry_points_match_soa() {
        let pts = scatter(45, 9);
        let kernel = DistKernel::new(Metric::Euclidean, 0.3);
        let (soa_hits, soa_comps) = run_self(&kernel, &pts);
        let mut aos_hits = Vec::new();
        let mut aos_comps = 0u64;
        kernel
            .self_join_points(&pts, &mut aos_comps, |i, j| -> Result<(), Never> {
                aos_hits.push((i, j));
                Ok(())
            })
            .unwrap();
        assert_eq!(aos_hits, soa_hits);
        assert_eq!(aos_comps, soa_comps);

        let b = scatter(17, 11);
        let (want, want_comps) = run_cross(&kernel, &pts, &b);
        let mut hits = Vec::new();
        let mut comps = 0u64;
        kernel
            .cross_join_points(&pts, &b, &mut comps, |i, j| -> Result<(), Never> {
                hits.push((i, j));
                Ok(())
            })
            .unwrap();
        assert_eq!(hits, want);
        assert_eq!(comps, want_comps);
    }

    #[test]
    fn boundary_pairs_agree_with_within() {
        // Points at distance exactly eps (axis-aligned) must be hits, in
        // both the vector body and the remainder tail, on every path.
        let eps = 0.125; // exactly representable
        let pts: Vec<Point<3>> = (0..19).map(|i| Point::new([i as f64 * eps, 0.0, 0.0])).collect();
        let want: Vec<(usize, usize)> = (0..18).map(|i| (i, i + 1)).collect();
        for path in paths_under_test() {
            let kernel = DistKernel::with_path(Metric::Euclidean, eps, path);
            let (hits, _) = run_self(&kernel, &pts);
            assert_eq!(hits, want, "{}: adjacent pairs sit exactly at eps", path.name());
        }
    }

    #[test]
    fn subnormal_coordinates_agree_across_paths() {
        // Deltas down in the subnormal range: squaring flushes to zero on
        // both paths identically (IEEE-754 semantics, no FTZ/DAZ in Rust).
        let tiny = f64::MIN_POSITIVE; // smallest normal
        let sub = f64::MIN_POSITIVE / 8.0; // subnormal
        let pts: Vec<Point<3>> =
            (0..13).map(|i| Point::new([i as f64 * sub, (i % 3) as f64 * tiny, 0.0])).collect();
        for eps in [0.0, sub, tiny, 2.0 * tiny] {
            let (want, _) = scalar_self(Metric::Euclidean, &pts, eps);
            for path in paths_under_test() {
                let kernel = DistKernel::with_path(Metric::Euclidean, eps, path);
                let (hits, _) = run_self(&kernel, &pts);
                assert_eq!(hits, want, "eps={eps:e} {}", path.name());
            }
        }
    }

    #[test]
    fn errors_propagate_and_stop_the_scan() {
        let pts = scatter(40, 3);
        for path in paths_under_test() {
            let kernel = DistKernel::with_path(Metric::Euclidean, 0.9, path);
            let buf = SoaBuffer::from_points(&pts);
            let mut seen = 0usize;
            let res = kernel.self_join(buf.view(), &mut ProbeScratch::new(), &mut 0, |_, _| {
                seen += 1;
                if seen == 5 {
                    Err("stop")
                } else {
                    Ok(())
                }
            });
            assert_eq!(res, Err("stop"), "{}", path.name());
            assert_eq!(seen, 5, "{}: no hits delivered after the error", path.name());
        }
    }

    #[test]
    fn empty_views() {
        let kernel = DistKernel::new(Metric::Euclidean, 1.0);
        let empty = SoaBuffer::<3>::new();
        let some = SoaBuffer::from_points(&scatter(5, 4));
        let (mut comps, mut scratch) = (0u64, ProbeScratch::new());
        kernel
            .cross_join(
                empty.view(),
                some.view(),
                &mut scratch,
                &mut comps,
                |_, _| -> Result<(), Never> { panic!("no pairs") },
            )
            .unwrap();
        kernel
            .cross_join(
                some.view(),
                empty.view(),
                &mut scratch,
                &mut comps,
                |_, _| -> Result<(), Never> { panic!("no pairs") },
            )
            .unwrap();
        assert_eq!(comps, 0);
    }

    #[test]
    fn dispatch_clamps_to_available_paths() {
        assert!(KernelPath::Scalar.available(), "scalar is always available");
        assert_eq!(KernelPath::Scalar.clamp(), KernelPath::Scalar);
        // Forcing a SIMD path never yields an unsupported kernel.
        for want in [KernelPath::Avx2, KernelPath::Neon] {
            let k = DistKernel::with_path(Metric::Euclidean, 0.5, want);
            assert!(k.path() == want || k.path() == KernelPath::Scalar);
            assert!(k.path().available());
        }
        // detect() is stable across calls (cached).
        assert_eq!(KernelPath::detect(), KernelPath::detect());
        assert!(!KernelPath::Scalar.is_simd());
        assert_eq!(KernelPath::Avx2.name(), "avx2");
        assert_eq!(KernelPath::Neon.name(), "neon");
        assert_eq!(KernelPath::Scalar.name(), "scalar");
    }

    /// A sweep block larger than SWEEP_BLOCK rows forces the hit ring to
    /// drain more than once per probe row; order must survive.
    #[test]
    fn multi_block_rows_preserve_order() {
        let n = SWEEP_BLOCK * 2 + 13;
        // All points coincident: every pair hits, so the ring fills.
        let pts: Vec<Point<3>> = (0..n).map(|_| Point::new([0.5, 0.5, 0.5])).collect();
        let (want, want_comps) = scalar_self(Metric::Euclidean, &pts, 0.1);
        for path in paths_under_test() {
            let kernel = DistKernel::with_path(Metric::Euclidean, 0.1, path);
            let (hits, comps) = run_self(&kernel, &pts);
            assert_eq!(hits, want, "{}", path.name());
            assert_eq!(comps, want_comps, "{}", path.name());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::SoaBuffer;
    use proptest::prelude::*;

    type Never = std::convert::Infallible;

    fn arb_point() -> impl Strategy<Value = Point<3>> {
        prop::array::uniform3(-1.0f64..1.0).prop_map(Point::new)
    }

    fn hits_on(path: KernelPath, pts: &[Point<3>], eps: f64) -> (Vec<(usize, usize)>, u64) {
        let kernel = DistKernel::with_path(Metric::Euclidean, eps, path);
        let buf = SoaBuffer::from_points(pts);
        let mut hits = Vec::new();
        let mut comps = 0u64;
        kernel
            .self_join(
                buf.view(),
                &mut ProbeScratch::new(),
                &mut comps,
                |i, j| -> Result<(), Never> {
                    hits.push((i, j));
                    Ok(())
                },
            )
            .unwrap();
        (hits, comps)
    }

    proptest! {
        /// The SIMD path (clamped to scalar on hosts without one) is
        /// bit-identical to the scalar path on arbitrary inputs: same
        /// hits, same order, same comparison count.
        #[test]
        fn simd_bit_identical_to_scalar(
            pts in prop::collection::vec(arb_point(), 0..70),
            eps in 0.0f64..0.8,
        ) {
            let scalar = hits_on(KernelPath::Scalar, &pts, eps);
            let simd = hits_on(KernelPath::native(), &pts, eps);
            prop_assert_eq!(&scalar, &simd);
        }

        /// Lane-boundary sizes (0, 1, LANES-1, LANES, LANES+1, and the
        /// AVX2/NEON widths around 4 and 2) agree across paths.
        #[test]
        fn lane_boundary_sizes_agree(
            pick in 0usize..10,
            seed in 0u64..1000,
            eps in 0.05f64..0.9,
        ) {
            let sizes = [0, 1, 2, 3, 4, 5, LANES - 1, LANES, LANES + 1, 3 * LANES + 1];
            let n = sizes[pick];
            let pts: Vec<Point<3>> = (0..n)
                .map(|i| {
                    let h = |k: u64| {
                        let mut x = (i as u64)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add(seed + k);
                        x ^= x >> 29;
                        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                        x ^= x >> 32;
                        (x % 1000) as f64 / 1000.0
                    };
                    Point::new([h(1), h(2), h(3)])
                })
                .collect();
            let scalar = hits_on(KernelPath::Scalar, &pts, eps);
            let simd = hits_on(KernelPath::native(), &pts, eps);
            prop_assert_eq!(&scalar, &simd);
        }

        /// Points placed exactly at distance ε (boundary inclusion) and a
        /// hair inside/outside agree across paths — the ordered `<=`
        /// compare must not differ between scalar and SIMD.
        #[test]
        fn boundary_epsilon_agrees(
            k in 1usize..30,
            flip in 0usize..3,
        ) {
            let eps = 0.125 * k as f64; // exactly representable spacing
            let nudged = match flip {
                0 => eps,
                1 => eps * (1.0 - f64::EPSILON),
                _ => eps * (1.0 + f64::EPSILON),
            };
            let pts: Vec<Point<3>> =
                (0..12).map(|i| Point::new([i as f64 * nudged, 0.0, 0.0])).collect();
            let scalar = hits_on(KernelPath::Scalar, &pts, eps);
            let simd = hits_on(KernelPath::native(), &pts, eps);
            prop_assert_eq!(&scalar, &simd);
        }

        /// Subnormal coordinates (squares flush to zero) agree across
        /// paths: SIMD must not apply FTZ/DAZ semantics.
        #[test]
        fn subnormals_agree(
            scale in 1u64..64,
            eps_pick in 0usize..3,
        ) {
            let sub = f64::MIN_POSITIVE / scale as f64;
            let eps = [0.0, sub, f64::MIN_POSITIVE][eps_pick];
            let pts: Vec<Point<3>> =
                (0..11).map(|i| Point::new([i as f64 * sub, 0.0, 0.0])).collect();
            let scalar = hits_on(KernelPath::Scalar, &pts, eps);
            let simd = hits_on(KernelPath::native(), &pts, eps);
            prop_assert_eq!(&scalar, &simd);
        }

        /// The ε-strip cross probe returns exactly the unrestricted
        /// all-pairs scan's hits, in its order, on every path. Leaves sit
        /// on a 1/8 grid with ε = 5/8, so 3-4-5 offsets and 5-step axis
        /// gaps put pairs and box edges exactly ε apart; the shift makes
        /// the boxes overlap, touch, sit exactly ε apart or leave an
        /// empty strip, and the small z range makes duplicates.
        #[test]
        fn strip_cross_probe_matches_all_pairs(
            a in prop::collection::vec((0i64..10, 0i64..10, 0i64..2), 0..40),
            b in prop::collection::vec((0i64..10, 0i64..10, 0i64..2), 0..40),
            shift in (-16i64..16, -16i64..16),
            dup in 0usize..3,
        ) {
            let at = |(x, y, z): (i64, i64, i64), (dx, dy): (i64, i64)| {
                Point::new([(x + dx) as f64 * STEP, (y + dy) as f64 * STEP, z as f64 * STEP])
            };
            let left: Vec<Point<3>> = a.iter().map(|&g| at(g, (0, 0))).collect();
            let mut right: Vec<Point<3>> = b.iter().map(|&g| at(g, shift)).collect();
            if dup > 0 {
                right.extend(left.iter().take(dup));
            }
            check_strip(&left, &right);
        }

        /// Every compaction mask: one probe point against 64 rows, row
        /// `k` a hit (a duplicate or a 3-4-5 neighbour at exactly ε) when
        /// bit `k` of `pattern` is set and a near miss (4-4 steps away,
        /// inside the strip) when not.
        #[test]
        fn strip_cross_probe_matches_all_pairs_on_mask_patterns(pattern in any::<u64>()) {
            let (left, right) = mask_leaves(pattern);
            check_strip(&left, &right);
        }
    }

    /// Grid step of the strip tests; ε is five steps.
    const STEP: f64 = 0.125;

    /// A probe point at the origin and 64 rows whose hits follow the bits
    /// of `pattern` (see `strip_cross_probe_matches_all_pairs_on_mask_patterns`).
    fn mask_leaves(pattern: u64) -> (Vec<Point<3>>, Vec<Point<3>>) {
        let right = (0..64)
            .map(|k| match (pattern >> k & 1 == 1, k % 3) {
                (true, 0) => Point::new([0.0; 3]),
                (true, _) => Point::new([3.0 * STEP, 4.0 * STEP, 0.0]),
                (false, _) => Point::new([4.0 * STEP, -4.0 * STEP, 0.0]),
            })
            .collect();
        (vec![Point::new([0.0; 3])], right)
    }

    /// The strip probe on the scalar and native paths against the
    /// unrestricted all-pairs scan under `Metric::within`.
    fn check_strip(left: &[Point<3>], right: &[Point<3>]) {
        let eps = 5.0 * STEP;
        let mut want = Vec::new();
        for (i, p) in left.iter().enumerate() {
            for (j, q) in right.iter().enumerate() {
                if Metric::Euclidean.within(p, q, eps) {
                    want.push((i, j));
                }
            }
        }
        let (bl, br) = (SoaBuffer::from_points(left), SoaBuffer::from_points(right));
        let mut scratch = ProbeScratch::new();
        for path in [KernelPath::Scalar, KernelPath::native()] {
            let kernel = DistKernel::with_path(Metric::Euclidean, eps, path);
            let (mut hits, mut comps) = (Vec::new(), 0u64);
            kernel
                .cross_join(bl.view(), br.view(), &mut scratch, &mut comps, |i, j| {
                    hits.push((i, j));
                    Ok::<_, Never>(())
                })
                .unwrap();
            prop_assert_eq!(&hits, &want, "{}", path.name());
            prop_assert!(comps <= (left.len() * right.len()) as u64);
        }
    }

    /// The mask patterns above reach every 4-lane (AVX2) and 2-lane
    /// (NEON) compare mask, checked here on a pattern whose nibbles are
    /// all sixteen masks.
    #[test]
    fn mask_patterns_cover_every_lane_mask() {
        let pattern = 0xFEDC_BA98_7654_3210u64;
        let (left, right) = mask_leaves(pattern);
        let hit = |k: usize| Metric::Euclidean.within(&left[0], &right[k], 5.0 * STEP);
        let mask = |k: usize, w: usize| (0..w).fold(0, |m, l| m | usize::from(hit(k + l)) << l);
        let quads: std::collections::BTreeSet<usize> = (0..16).map(|c| mask(4 * c, 4)).collect();
        let pairs: std::collections::BTreeSet<usize> = (0..32).map(|c| mask(2 * c, 2)).collect();
        assert_eq!((quads.len(), pairs.len()), (16, 4));
        check_strip(&left, &right);
    }
}
