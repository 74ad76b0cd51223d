//! Whole-window MBR merge probe: one wide pass instead of a per-group
//! loop.
//!
//! CSJ(g) tests every residual link against up to `g` open groups; with
//! the group boxes stored as per-dimension bound slabs the entire window
//! can be tested at once. [`mbr_fit_mask`] answers, for every box `i`,
//! whether growing it to also cover a link's span keeps its squared
//! Euclidean diagonal within `ε²` — a bitmask [`select_newest_first`]
//! turns into the newest-first accept decision with plain integer
//! arithmetic. The merge loop runs both, and the fold of the span into
//! the accepting box, as one call over [`BoundSlabs`]:
//! [`mbr_fit_pick_commit`].
//!
//! Bit-identity contract (mirrors the sweep kernel in
//! [`crate::kernel`]): every path performs the exact IEEE-754 operations
//! of the sequential merge test, in the same dimension order —
//! `min`/`max` fold of the span into the box, side length, separate
//! square and accumulate (no FMA), ordered `<=` against `ε²` (false on
//! NaN). The SIMD `min`/`max` lane ops match `f64::min`/`f64::max` for
//! every input with a non-NaN span (the one asymmetric case callers must
//! exclude), so a given window and span produce the same mask on every
//! path.

use crate::kernel::KernelPath;

/// Largest window the mask probe handles (one bit per group in a `u64`).
/// Callers with wider windows fall back to sequential probing.
pub const MAX_WINDOW: usize = 64;

/// For every box `i`, bit `i` is set iff extending the box to cover the
/// span `[span_lo, span_hi]` keeps its squared Euclidean diagonal within
/// `eps_sq`.
///
/// `lo`/`hi` hold one slab per dimension, all of one common length
/// `n <= MAX_WINDOW` (box `i`'s bounds on axis `d` are `lo[d][i]` /
/// `hi[d][i]`). The span must be NaN-free; `±∞` bounds are fine (a
/// non-finite side fails the ordered compare, as in the sequential
/// test). `path` is clamped to the host's capabilities, so passing
/// [`KernelPath::detect`] is always sound.
#[inline]
pub fn mbr_fit_mask<const D: usize>(
    path: KernelPath,
    lo: &[&[f64]; D],
    hi: &[&[f64]; D],
    span_lo: &[f64; D],
    span_hi: &[f64; D],
    eps_sq: f64,
) -> u64 {
    let n = lo.first().map_or(0, |s| s.len());
    debug_assert!(n <= MAX_WINDOW, "window exceeds the mask width");
    debug_assert!(
        lo.iter().chain(hi.iter()).all(|s| s.len() == n),
        "bound slabs must share one length"
    );
    debug_assert!(
        span_lo.iter().chain(span_hi.iter()).all(|v| !v.is_nan()),
        "the span must be NaN-free"
    );
    match path.clamp() {
        KernelPath::Scalar => fit_mask_scalar(lo, hi, span_lo, span_hi, eps_sq, 0, n),
        KernelPath::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: `clamp` returned `Avx2` only after
                // `is_x86_feature_detected!("avx2")` confirmed the CPU
                // executes AVX2; all slabs have length `n` (checked
                // above in debug, guaranteed by the caller contract).
                unsafe { x86::fit_mask_avx2(lo, hi, span_lo, span_hi, eps_sq, n) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                unreachable!("clamp never selects AVX2 off x86-64")
            }
        }
        KernelPath::Neon => {
            #[cfg(target_arch = "aarch64")]
            {
                // SAFETY: `clamp` returned `Neon` only after
                // `is_aarch64_feature_detected!("neon")` confirmed NEON;
                // all slabs have length `n`.
                unsafe { neon::fit_mask_neon(lo, hi, span_lo, span_hi, eps_sq, n) }
            }
            #[cfg(not(target_arch = "aarch64"))]
            {
                unreachable!("clamp never selects NEON off aarch64")
            }
        }
    }
}

/// Newest-first accept decision from a fit mask: the slot a sequential
/// walk in ring order (slots `head-1 .. 0`, then `n-1 .. head`) would
/// accept first, plus the number of merge attempts that walk would have
/// counted before stopping (`n` on a miss). Bits at or above `n` must be
/// clear.
///
/// The mask is rotated so that walk order is descending bit order —
/// slots `head..n` to bits `0..n-head`, slots `0..head` above them — and
/// the first hit is its highest set bit: one count of leading zeros and
/// no branch on where the hit lies.
#[inline]
pub fn select_newest_first(mask: u64, head: usize, n: usize) -> (Option<usize>, u64) {
    debug_assert!(n == 64 || mask >> n == 0, "mask bits beyond the live window");
    debug_assert!(head < n.max(1));
    let front = mask & ((1u64 << head) - 1);
    // `n - head` is 64 only for `head == 0`, where `front` is 0.
    let walk = (mask >> head) | front.wrapping_shl((n - head) as u32);
    if walk == 0 {
        return (None, n as u64);
    }
    let top = 63 - walk.leading_zeros() as usize;
    let slot = if top >= n - head { top - (n - head) } else { top + head };
    (Some(slot), (n - top) as u64)
}

/// Padded bound-slab length for a window of `capacity` groups: the
/// capacity rounded up to a whole number of 4-wide SIMD lanes, or 0 when
/// the window exceeds the mask width (those windows probe sequentially).
fn slab_len_for(capacity: usize) -> usize {
    if capacity == 0 || capacity > MAX_WINDOW {
        0
    } else {
        (capacity + 3) & !3
    }
}

/// A window's group boxes as per-dimension bound slabs, the layout
/// [`mbr_fit_pick_commit`] probes and commits into.
///
/// Every slab has one padded length, the capacity rounded up to a whole
/// number of 4-lane chunks, so the SIMD kernels load and store whole
/// chunks with no scalar tail. Lanes no group occupies hold the `+∞`
/// sentinel: an infinite side fails the ordered `≤ ε²` compare, so they
/// never set a mask bit under a finite threshold. The kernel path is
/// resolved once, at construction.
#[derive(Clone, Debug)]
pub struct BoundSlabs<const D: usize> {
    slab_lo: [Vec<f64>; D],
    slab_hi: [Vec<f64>; D],
    /// Clamped to the host, so the SIMD dispatch below is sound.
    path: KernelPath,
}

impl<const D: usize> BoundSlabs<D> {
    /// Slabs for a window of `capacity` groups, every lane at the `+∞`
    /// sentinel, probed on `path` (clamped to what the host runs).
    pub fn new(capacity: usize, path: KernelPath) -> Self {
        let len = slab_len_for(capacity);
        BoundSlabs {
            slab_lo: std::array::from_fn(|_| vec![f64::INFINITY; len]),
            slab_hi: std::array::from_fn(|_| vec![f64::INFINITY; len]),
            path: path.clamp(),
        }
    }

    /// The padded slab length (0 for a window the mask cannot hold).
    pub fn lanes(&self) -> usize {
        self.slab_lo.first().map_or(0, Vec::len)
    }

    /// Lower and upper slabs, one per dimension (`lo[d][i]` is box `i`'s
    /// lower bound on axis `d`), as [`mbr_fit_mask`] takes them.
    pub fn columns(&self) -> ([&[f64]; D], [&[f64]; D]) {
        (self.slab_lo.each_ref().map(Vec::as_slice), self.slab_hi.each_ref().map(Vec::as_slice))
    }

    /// Box `slot`'s bounds.
    pub fn get(&self, slot: usize) -> ([f64; D], [f64; D]) {
        (
            std::array::from_fn(|d| self.slab_lo[d][slot]),
            std::array::from_fn(|d| self.slab_hi[d][slot]),
        )
    }

    /// Sets box `slot` to `[lo, hi]`, writing whole lane chunks like
    /// the commit of [`mbr_fit_pick_commit`].
    pub fn set(&mut self, slot: usize, lo: &[f64; D], hi: &[f64; D]) {
        assert!(slot < self.lanes(), "slot {slot} outside the slabs");
        write_slot::<D, false>(self, slot, lo, hi);
    }

    /// Puts every lane back at the `+∞` sentinel.
    pub fn reset(&mut self) {
        for slab in self.slab_lo.iter_mut().chain(self.slab_hi.iter_mut()) {
            slab.fill(f64::INFINITY);
        }
    }
}

/// [`mbr_fit_mask`], [`select_newest_first`] and the commit fused into
/// one call: the per-link path of the CSJ(g) merge loop. Picks the slot
/// the newest-first walk over the `n_live` open groups (ring order from
/// `head`) accepts, folds the span into that slot's bounds — exactly the
/// `f64::min`/`f64::max` of the sequential merge — and returns the slot
/// with the merge attempts the walk counts.
///
/// The slot's bounds are written back as whole 4-lane chunks (a blend
/// that keeps the chunk's other lanes), so the next link's wide loads
/// read what this store wrote instead of stalling on a narrower one.
///
/// `simd = false` runs the scalar kernel, which evaluates exactly the
/// `n_live` lanes. The SIMD kernels evaluate every padded lane, so pass
/// `true` only for a finite `eps_sq` (the `+∞` sentinels then never pass)
/// and a NaN-free span (the one case where lane min/max diverges from
/// `f64::min`/`f64::max`).
pub fn mbr_fit_pick_commit<const D: usize>(
    slabs: &mut BoundSlabs<D>,
    simd: bool,
    span_lo: &[f64; D],
    span_hi: &[f64; D],
    eps_sq: f64,
    head: usize,
    n_live: usize,
) -> (Option<usize>, u64) {
    assert!(n_live <= slabs.lanes() && head < n_live.max(1), "live window outside the slabs");
    let path = if simd { slabs.path } else { KernelPath::Scalar };
    match path {
        KernelPath::Scalar => {
            let (lo, hi) = slabs.columns();
            let mask = fit_mask_scalar(&lo, &hi, span_lo, span_hi, eps_sq, 0, n_live);
            let (slot, tried) = select_newest_first(mask, head, n_live);
            if let Some(k) = slot {
                write_slot_scalar::<D, true>(
                    &mut slabs.slab_lo,
                    &mut slabs.slab_hi,
                    k,
                    span_lo,
                    span_hi,
                );
            }
            (slot, tried)
        }
        KernelPath::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: `slabs.path` is clamped, so `Avx2` means
                // `is_x86_feature_detected!("avx2")` held; the slabs keep
                // one length, a multiple of 4 (`BoundSlabs` invariant).
                unsafe {
                    x86::fit_pick_commit_avx2(
                        &mut slabs.slab_lo,
                        &mut slabs.slab_hi,
                        span_lo,
                        span_hi,
                        eps_sq,
                        head,
                        n_live,
                    )
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                unreachable!("clamp never selects AVX2 off x86-64")
            }
        }
        KernelPath::Neon => {
            #[cfg(target_arch = "aarch64")]
            {
                // SAFETY: `slabs.path` is clamped, so `Neon` means
                // `is_aarch64_feature_detected!("neon")` held; the slabs
                // keep one length, a multiple of 4 (`BoundSlabs`
                // invariant).
                unsafe {
                    neon::fit_pick_commit_neon(
                        &mut slabs.slab_lo,
                        &mut slabs.slab_hi,
                        span_lo,
                        span_hi,
                        eps_sq,
                        head,
                        n_live,
                    )
                }
            }
            #[cfg(not(target_arch = "aarch64"))]
            {
                unreachable!("clamp never selects NEON off aarch64")
            }
        }
    }
}

/// Writes box `k` on `slabs`' own path: with `FOLD` the min/max fold of
/// `[lo, hi]` into the box, else `[lo, hi]` itself. `k` must be a lane
/// of the slabs, and with `FOLD` the SIMD paths need a NaN-free `[lo, hi]`.
fn write_slot<const D: usize, const FOLD: bool>(
    slabs: &mut BoundSlabs<D>,
    k: usize,
    lo: &[f64; D],
    hi: &[f64; D],
) {
    let (slab_lo, slab_hi) = (&mut slabs.slab_lo, &mut slabs.slab_hi);
    match slabs.path {
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => {
            // SAFETY: `slabs.path` is clamped, so AVX2 is available; `k`
            // is a lane and the slabs share one length, a multiple of 4.
            unsafe { x86::write_slot_avx2::<D, FOLD>(slab_lo, slab_hi, k, lo, hi) }
        }
        #[cfg(target_arch = "aarch64")]
        KernelPath::Neon => {
            // SAFETY: `slabs.path` is clamped, so NEON is available; `k`
            // is a lane and the slabs share one length, a multiple of 4.
            unsafe { neon::write_slot_neon::<D, FOLD>(slab_lo, slab_hi, k, lo, hi) }
        }
        _ => write_slot_scalar::<D, FOLD>(slab_lo, slab_hi, k, lo, hi),
    }
}

/// [`write_slot`] in plain Rust: the chunk holding lane `k` is rebuilt
/// and stored whole, with `f64::min`/`f64::max` as the fold.
fn write_slot_scalar<const D: usize, const FOLD: bool>(
    slab_lo: &mut [Vec<f64>; D],
    slab_hi: &mut [Vec<f64>; D],
    k: usize,
    lo: &[f64; D],
    hi: &[f64; D],
) {
    let (c, lane) = (k & !3, k & 3);
    for d in 0..D {
        for (slab, v, fold) in [
            (&mut slab_lo[d], lo[d], f64::min as fn(f64, f64) -> f64),
            (&mut slab_hi[d], hi[d], f64::max),
        ] {
            let chunk = &mut slab[c..c + 4];
            let merged: [f64; 4] = std::array::from_fn(|j| match (j == lane, FOLD) {
                (false, _) => chunk[j],
                (true, true) => fold(chunk[j], v),
                (true, false) => v,
            });
            chunk.copy_from_slice(&merged);
        }
    }
}

/// The semantic reference: the sequential merge test, box by box. Also
/// serves as the tail loop of the SIMD paths, which must keep the exact
/// operation order.
fn fit_mask_scalar<const D: usize>(
    lo: &[&[f64]; D],
    hi: &[&[f64]; D],
    span_lo: &[f64; D],
    span_hi: &[f64; D],
    eps_sq: f64,
    start: usize,
    n: usize,
) -> u64 {
    let mut mask = 0u64;
    for i in start..n {
        let mut acc = 0.0;
        for d in 0..D {
            // Box bound first, span second: `f64::min` resolves a NaN
            // box bound to the span, exactly as the SIMD lane ops do.
            let l = lo[d][i].min(span_lo[d]);
            let h = hi[d][i].max(span_hi[d]);
            let s = h - l;
            acc += s * s;
        }
        if acc <= eps_sq {
            mask |= 1 << i;
        }
    }
    mask
}

/// Explicit AVX2 mask probe. Same module discipline as the sweep kernel:
/// every `unsafe` surface in one place, compiled only on x86-64.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::fit_mask_scalar;
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_blendv_pd, _mm256_castsi256_pd, _mm256_cmp_pd, _mm256_cmpeq_epi64,
        _mm256_loadu_pd, _mm256_max_pd, _mm256_min_pd, _mm256_movemask_pd, _mm256_mul_pd,
        _mm256_set1_epi64x, _mm256_set1_pd, _mm256_setr_epi64x, _mm256_setzero_pd,
        _mm256_storeu_pd, _mm256_sub_pd, _CMP_LE_OQ,
    };

    /// Four boxes per iteration; scalar tail in the reference order.
    ///
    /// Bit-identity with [`fit_mask_scalar`]: `vminpd(box, span)` /
    /// `vmaxpd(box, span)` return the span lane when the box lane is NaN
    /// and the second operand on ties — matching `f64::min`/`f64::max`
    /// for a NaN-free span (signed-zero ties cannot change the squared
    /// side); `vsub`/`vmul`/`vadd` accumulate in the same dimension
    /// order with no FMA contraction; `_CMP_LE_OQ` is ordered `<=`,
    /// false on NaN, like the scalar compare.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (callers establish this via runtime
    /// feature detection) and every slab in `lo`/`hi` must have length
    /// ≥ `n`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fit_mask_avx2<const D: usize>(
        lo: &[&[f64]; D],
        hi: &[&[f64]; D],
        span_lo: &[f64; D],
        span_hi: &[f64; D],
        eps_sq: f64,
        n: usize,
    ) -> u64 {
        let thr = _mm256_set1_pd(eps_sq);
        let mut mask = 0u64;
        let mut i = 0usize;
        while i + 4 <= n {
            let mut acc = _mm256_setzero_pd();
            for d in 0..D {
                debug_assert!(i + 4 <= lo[d].len() && i + 4 <= hi[d].len());
                // SAFETY: `i + 4 <= n` and every slab has length ≥ `n`
                // (caller contract), so both 4-wide unaligned loads stay
                // inside their slab.
                let (bl, bh) = unsafe {
                    (_mm256_loadu_pd(lo[d].as_ptr().add(i)), _mm256_loadu_pd(hi[d].as_ptr().add(i)))
                };
                let l = _mm256_min_pd(bl, _mm256_set1_pd(span_lo[d]));
                let h = _mm256_max_pd(bh, _mm256_set1_pd(span_hi[d]));
                let s = _mm256_sub_pd(h, l);
                // Separate mul + add: an FMA here would change rounding
                // and break bit-identity with the scalar test.
                acc = _mm256_add_pd(acc, _mm256_mul_pd(s, s));
            }
            let m = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(acc, thr)) as u32 as u64;
            mask |= m << i;
            i += 4;
        }
        mask | fit_mask_scalar(lo, hi, span_lo, span_hi, eps_sq, i, n)
    }

    /// [`super::mbr_fit_pick_commit`] on AVX2: the mask over every
    /// padded lane, the newest-first pick, and the commit as one blended
    /// 4-lane store per slab. One `target_feature` call per link, so the
    /// mask kernel inlines into the pick and the commit.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (callers establish this via runtime
    /// feature detection); all slabs must share one length, a multiple
    /// of 4, and lanes at or above `n_live` must not pass the fit test.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fit_pick_commit_avx2<const D: usize>(
        slab_lo: &mut [Vec<f64>; D],
        slab_hi: &mut [Vec<f64>; D],
        span_lo: &[f64; D],
        span_hi: &[f64; D],
        eps_sq: f64,
        head: usize,
        n_live: usize,
    ) -> (Option<usize>, u64) {
        let n = slab_lo.first().map_or(0, Vec::len);
        let lo = slab_lo.each_ref().map(Vec::as_slice);
        let hi = slab_hi.each_ref().map(Vec::as_slice);
        // SAFETY: AVX2 is available (caller contract) and `n` is the
        // shared slab length, so every load stays in bounds.
        let mask = unsafe { fit_mask_avx2(&lo, &hi, span_lo, span_hi, eps_sq, n) };
        let (slot, tried) = super::select_newest_first(mask, head, n_live);
        if let Some(k) = slot {
            // SAFETY: AVX2 is available; `k` is a set mask bit, so a lane
            // below the shared length.
            unsafe { write_slot_avx2::<D, true>(slab_lo, slab_hi, k, span_lo, span_hi) };
        }
        (slot, tried)
    }

    /// Writes lane `k` of every slab with one 4-lane load, blend and
    /// store on the chunk holding it: with `FOLD` the `vminpd`/`vmaxpd`
    /// of the lane and `lo`/`hi` (equal to `f64::min`/`f64::max` for a
    /// NaN-free `lo`/`hi`), else `lo`/`hi` itself.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2; all slabs must share one length, a
    /// multiple of 4, greater than `k`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn write_slot_avx2<const D: usize, const FOLD: bool>(
        slab_lo: &mut [Vec<f64>; D],
        slab_hi: &mut [Vec<f64>; D],
        k: usize,
        lo: &[f64; D],
        hi: &[f64; D],
    ) {
        let c = k & !3;
        let sel = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
            _mm256_setr_epi64x(0, 1, 2, 3),
            _mm256_set1_epi64x((k & 3) as i64),
        ));
        // All lanes set when folding: `blendv(v, fold(old, v), fold)` is
        // then the fold, else `v` itself — no branch on `FOLD`.
        let fold = _mm256_castsi256_pd(_mm256_set1_epi64x(-i64::from(FOLD)));
        for d in 0..D {
            let (rl, rh) = (slab_lo[d].as_mut_slice(), slab_hi[d].as_mut_slice());
            debug_assert!(c + 4 <= rl.len() && c + 4 <= rh.len());
            let (l, h) = (_mm256_set1_pd(lo[d]), _mm256_set1_pd(hi[d]));
            let (pl, ph) = (rl.as_mut_ptr(), rh.as_mut_ptr());
            // SAFETY: BOUNDS(c + 4 <= rl.len() && c + 4 <= rh.len()) —
            // the slabs' shared length is a multiple of 4 and above `k`
            // (caller contract), so the chunk `c = k & !3` ends at
            // `c + 4 <= len`: every load and store stays inside its slab.
            unsafe {
                let old = _mm256_loadu_pd(pl.add(c));
                let new = _mm256_blendv_pd(l, _mm256_min_pd(old, l), fold);
                _mm256_storeu_pd(pl.add(c), _mm256_blendv_pd(old, new, sel));
                let old = _mm256_loadu_pd(ph.add(c));
                let new = _mm256_blendv_pd(h, _mm256_max_pd(old, h), fold);
                _mm256_storeu_pd(ph.add(c), _mm256_blendv_pd(old, new, sel));
            }
        }
    }
}

/// Explicit NEON mask probe (aarch64), 2×f64 lanes. `vminnmq`/`vmaxnmq`
/// are the IEEE `minNum`/`maxNum` forms — NaN box bounds resolve to the
/// span lane like `f64::min`/`f64::max` (plain `vminq`/`vmaxq` would
/// propagate the NaN instead and diverge from the scalar reference).
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::fit_mask_scalar;
    use std::arch::aarch64::{
        vaddq_f64, vbslq_f64, vcleq_f64, vcombine_u64, vcreate_u64, vdupq_n_f64, vgetq_lane_u64,
        vld1q_f64, vmaxnmq_f64, vminnmq_f64, vmulq_f64, vst1q_f64, vsubq_f64,
    };

    /// Two boxes per iteration; scalar tail in the reference order.
    ///
    /// # Safety
    ///
    /// The CPU must support NEON (callers establish this via runtime
    /// feature detection) and every slab in `lo`/`hi` must have length
    /// ≥ `n`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn fit_mask_neon<const D: usize>(
        lo: &[&[f64]; D],
        hi: &[&[f64]; D],
        span_lo: &[f64; D],
        span_hi: &[f64; D],
        eps_sq: f64,
        n: usize,
    ) -> u64 {
        let thr = vdupq_n_f64(eps_sq);
        let mut mask = 0u64;
        let mut i = 0usize;
        while i + 2 <= n {
            let mut acc = vdupq_n_f64(0.0);
            for d in 0..D {
                debug_assert!(i + 2 <= lo[d].len() && i + 2 <= hi[d].len());
                // SAFETY: `i + 2 <= n` and every slab has length ≥ `n`
                // (caller contract), so both 2-wide loads stay inside
                // their slab.
                let bl = unsafe { vld1q_f64(lo[d].as_ptr().add(i)) };
                // SAFETY: same bound as the `lo` load above.
                let bh = unsafe { vld1q_f64(hi[d].as_ptr().add(i)) };
                let l = vminnmq_f64(bl, vdupq_n_f64(span_lo[d]));
                let h = vmaxnmq_f64(bh, vdupq_n_f64(span_hi[d]));
                let s = vsubq_f64(h, l);
                // Separate mul + add — no FMA contraction, as in the
                // scalar reference.
                acc = vaddq_f64(acc, vmulq_f64(s, s));
            }
            let le = vcleq_f64(acc, thr);
            let m = (vgetq_lane_u64::<0>(le) & 1) | ((vgetq_lane_u64::<1>(le) & 1) << 1);
            mask |= m << i;
            i += 2;
        }
        mask | fit_mask_scalar(lo, hi, span_lo, span_hi, eps_sq, i, n)
    }

    /// [`super::mbr_fit_pick_commit`] on NEON; the twin of the AVX2
    /// fused path.
    ///
    /// # Safety
    ///
    /// The CPU must support NEON (callers establish this via runtime
    /// feature detection); all slabs must share one length, a multiple
    /// of 4, and lanes at or above `n_live` must not pass the fit test.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn fit_pick_commit_neon<const D: usize>(
        slab_lo: &mut [Vec<f64>; D],
        slab_hi: &mut [Vec<f64>; D],
        span_lo: &[f64; D],
        span_hi: &[f64; D],
        eps_sq: f64,
        head: usize,
        n_live: usize,
    ) -> (Option<usize>, u64) {
        let n = slab_lo.first().map_or(0, Vec::len);
        let lo = slab_lo.each_ref().map(Vec::as_slice);
        let hi = slab_hi.each_ref().map(Vec::as_slice);
        // SAFETY: NEON is available (caller contract) and `n` is the
        // shared slab length, so every load stays in bounds.
        let mask = unsafe { fit_mask_neon(&lo, &hi, span_lo, span_hi, eps_sq, n) };
        let (slot, tried) = super::select_newest_first(mask, head, n_live);
        if let Some(k) = slot {
            // SAFETY: NEON is available; `k` is a set mask bit, so a lane
            // below the shared length.
            unsafe { write_slot_neon::<D, true>(slab_lo, slab_hi, k, span_lo, span_hi) };
        }
        (slot, tried)
    }

    /// Writes lane `k` of every slab through the two 2-lane vectors of
    /// the 4-lane chunk holding it (a `vbslq` blend keeps the other
    /// lanes): with `FOLD` the `vminnmq`/`vmaxnmq` of the lane and
    /// `lo`/`hi`, else `lo`/`hi` itself.
    ///
    /// # Safety
    ///
    /// The CPU must support NEON; all slabs must share one length, a
    /// multiple of 4, greater than `k`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn write_slot_neon<const D: usize, const FOLD: bool>(
        slab_lo: &mut [Vec<f64>; D],
        slab_hi: &mut [Vec<f64>; D],
        k: usize,
        lo: &[f64; D],
        hi: &[f64; D],
    ) {
        let c = k & !3;
        let bits = |on: bool| if on { u64::MAX } else { 0 };
        let lane = |j: usize| vcreate_u64(bits(k & 3 == j));
        // The two halves of the chunk, and all lanes set when folding:
        // `vbslq(fold, fold(old, v), v)` is then the fold, else `v`.
        let (sel0, sel1) = (vcombine_u64(lane(0), lane(1)), vcombine_u64(lane(2), lane(3)));
        let fold = vcombine_u64(vcreate_u64(bits(FOLD)), vcreate_u64(bits(FOLD)));
        for d in 0..D {
            let (rl, rh) = (slab_lo[d].as_mut_slice(), slab_hi[d].as_mut_slice());
            debug_assert!(c + 4 <= rl.len() && c + 4 <= rh.len());
            let (l, h) = (vdupq_n_f64(lo[d]), vdupq_n_f64(hi[d]));
            let (pl, ph) = (rl.as_mut_ptr(), rh.as_mut_ptr());
            // SAFETY: BOUNDS(c + 4 <= rl.len() && c + 4 <= rh.len()) —
            // the slabs' shared length is a multiple of 4 and above `k`
            // (caller contract), so the chunk `c = k & !3` ends at
            // `c + 4 <= len` and both halves stay inside their slab.
            unsafe {
                let old = vld1q_f64(pl.add(c));
                let new = vbslq_f64(fold, vminnmq_f64(old, l), l);
                vst1q_f64(pl.add(c), vbslq_f64(sel0, new, old));
                let old = vld1q_f64(pl.add(c + 2));
                let new = vbslq_f64(fold, vminnmq_f64(old, l), l);
                vst1q_f64(pl.add(c + 2), vbslq_f64(sel1, new, old));
                let old = vld1q_f64(ph.add(c));
                let new = vbslq_f64(fold, vmaxnmq_f64(old, h), h);
                vst1q_f64(ph.add(c), vbslq_f64(sel0, new, old));
                let old = vld1q_f64(ph.add(c + 2));
                let new = vbslq_f64(fold, vmaxnmq_f64(old, h), h);
                vst1q_f64(ph.add(c + 2), vbslq_f64(sel1, new, old));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds slab arrays from per-box bounds for the tests (shared with
    /// the proptest module below).
    pub(super) fn slabs<const D: usize>(
        boxes: &[([f64; D], [f64; D])],
    ) -> ([Vec<f64>; D], [Vec<f64>; D]) {
        let lo = std::array::from_fn(|d| boxes.iter().map(|b| b.0[d]).collect());
        let hi = std::array::from_fn(|d| boxes.iter().map(|b| b.1[d]).collect());
        (lo, hi)
    }

    fn mask_on<const D: usize>(
        path: KernelPath,
        boxes: &[([f64; D], [f64; D])],
        span_lo: [f64; D],
        span_hi: [f64; D],
        eps_sq: f64,
    ) -> u64 {
        let (lo, hi) = slabs(boxes);
        let lo_refs: [&[f64]; D] = std::array::from_fn(|d| lo[d].as_slice());
        let hi_refs: [&[f64]; D] = std::array::from_fn(|d| hi[d].as_slice());
        mbr_fit_mask(path, &lo_refs, &hi_refs, &span_lo, &span_hi, eps_sq)
    }

    #[test]
    fn accepts_and_rejects_like_the_sequential_test() {
        // Boxes of side 0.1 at increasing offsets; span near the origin.
        let boxes: Vec<([f64; 2], [f64; 2])> =
            (0..6).map(|i| ([i as f64 * 0.5, 0.0], [i as f64 * 0.5 + 0.1, 0.1])).collect();
        let mask = mask_on(KernelPath::Scalar, &boxes, [0.05, 0.02], [0.12, 0.08], 0.3f64.powi(2));
        // Only the box at offset 0 can absorb the span within diagonal 0.3.
        assert_eq!(mask, 0b000001);
    }

    #[test]
    fn empty_window_yields_empty_mask() {
        let mask = mask_on::<2>(KernelPath::Scalar, &[], [0.0; 2], [0.1; 2], 1.0);
        assert_eq!(mask, 0);
    }

    #[test]
    fn boundary_fit_is_inclusive() {
        // Growing the box to the span gives sides exactly (0.3, 0.4):
        // diagonal² = 0.25, accepted at eps² = 0.25 (closed bound).
        let boxes = [([0.0, 0.0], [0.1, 0.1])];
        let eps_sq = 0.3f64 * 0.3 + 0.4f64 * 0.4;
        assert_eq!(mask_on(KernelPath::Scalar, &boxes, [0.3, 0.4], [0.3, 0.4], eps_sq), 1);
        assert_eq!(
            mask_on(
                KernelPath::Scalar,
                &boxes,
                [0.3, 0.4],
                [0.3, 0.4],
                f64::from_bits(eps_sq.to_bits() - 1)
            ),
            0
        );
    }

    #[test]
    fn native_path_matches_scalar_on_random_windows() {
        // LCG-driven randomized agreement check across sizes that cover
        // whole vectors, tails, and the empty window.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 11, 16, 33, 64] {
            let boxes: Vec<([f64; 3], [f64; 3])> = (0..n)
                .map(|_| {
                    let lo = [next(), next(), next()];
                    (lo, [lo[0] + next() * 0.2, lo[1] + next() * 0.2, lo[2] + next() * 0.2])
                })
                .collect();
            let sl = [next(), next(), next()];
            let sh = [sl[0] + next() * 0.1, sl[1] + next() * 0.1, sl[2] + next() * 0.1];
            for eps_sq in [0.0, 0.05, 0.25, 1.0, f64::INFINITY] {
                let want = mask_on(KernelPath::Scalar, &boxes, sl, sh, eps_sq);
                let got = mask_on(KernelPath::native(), &boxes, sl, sh, eps_sq);
                assert_eq!(got, want, "path divergence at n={n}, eps_sq={eps_sq}");
            }
        }
    }

    #[test]
    fn nan_box_bounds_resolve_to_the_span() {
        // A NaN box bound must behave like f64::min/max: the span wins,
        // so the box degenerates to the span itself — which fits.
        let boxes = [([f64::NAN, 0.0], [f64::NAN, 0.1])];
        let want = mask_on(KernelPath::Scalar, &boxes, [0.2, 0.0], [0.25, 0.1], 0.25);
        assert_eq!(want, 1);
        assert_eq!(mask_on(KernelPath::native(), &boxes, [0.2, 0.0], [0.25, 0.1], 0.25), want);
    }

    #[test]
    fn infinite_bounds_reject_on_every_path() {
        let boxes = [([f64::NEG_INFINITY, 0.0], [0.1, 0.1]), ([0.0, 0.0], [0.1, 0.1])];
        let want = mask_on(KernelPath::Scalar, &boxes, [0.0, 0.0], [0.1, 0.1], 1.0);
        assert_eq!(want, 0b10);
        assert_eq!(mask_on(KernelPath::native(), &boxes, [0.0, 0.0], [0.1, 0.1], 1.0), want);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The sequential ring walk `select_newest_first` compresses into
    /// integer arithmetic: newest slot first (`head-1 .. 0`), then the
    /// wrapped tail (`n-1 .. head`), counting attempts until the first
    /// hit.
    fn walk_reference(mask: u64, head: usize, n: usize) -> (Option<usize>, u64) {
        let mut tried = 0u64;
        for i in (0..head).rev().chain((head..n).rev()) {
            tried += 1;
            if mask & (1 << i) != 0 {
                return (Some(i), tried);
            }
        }
        (None, n as u64)
    }

    fn arb_boxes() -> impl Strategy<Value = Vec<([f64; 2], [f64; 2])>> {
        prop::collection::vec(
            (prop::array::uniform2(-1.0f64..1.0), prop::array::uniform2(0.0f64..0.5))
                .prop_map(|(lo, ext)| (lo, [lo[0] + ext[0], lo[1] + ext[1]])),
            0..=(MAX_WINDOW),
        )
    }

    proptest! {
        /// `mbr_fit_mask` is bit-identical across dispatch paths on
        /// arbitrary windows (native clamps to scalar off-SIMD hosts,
        /// where this degenerates to a self-check).
        #[test]
        fn mask_native_matches_scalar(
            boxes in arb_boxes(),
            sl in prop::array::uniform2(-1.0f64..1.0),
            ext in prop::array::uniform2(0.0f64..0.3),
            eps in 0.0f64..1.5,
        ) {
            let sh = [sl[0] + ext[0], sl[1] + ext[1]];
            let (lo, hi) = super::tests::slabs(&boxes);
            let lo_refs: [&[f64]; 2] = [lo[0].as_slice(), lo[1].as_slice()];
            let hi_refs: [&[f64]; 2] = [hi[0].as_slice(), hi[1].as_slice()];
            let want = mbr_fit_mask(KernelPath::Scalar, &lo_refs, &hi_refs, &sl, &sh, eps * eps);
            let got = mbr_fit_mask(KernelPath::native(), &lo_refs, &hi_refs, &sl, &sh, eps * eps);
            prop_assert_eq!(got, want);
        }

        /// `select_newest_first` agrees with the sequential ring walk on
        /// every (mask, head, n): same accepted slot, same attempt count.
        #[test]
        fn selection_matches_the_ring_walk(
            bits in any::<u64>(),
            n in 0usize..=MAX_WINDOW,
            head_seed in any::<usize>(),
        ) {
            let mask = if n == 64 { bits } else { bits & ((1u64 << n) - 1) };
            let head = head_seed % n.max(1);
            prop_assert_eq!(select_newest_first(mask, head, n), walk_reference(mask, head, n));
        }

        /// The fused pick-and-commit equals mask, newest-first select and
        /// the scalar min/max fold, bit for bit, on every path: partly
        /// filled windows (`+∞` in the lanes past `n_live`, padded to
        /// whole 4-lane chunks), any `head`, and — on the 1/8 grid the
        /// boxes live on — ties and an ε exactly on one box's boundary.
        #[test]
        fn fused_pick_commit_matches_mask_select_and_fold(
            boxes in prop::collection::vec(
                (prop::array::uniform2(-8i32..8), prop::array::uniform2(0i32..5)),
                0..=MAX_WINDOW,
            ),
            spare in 0usize..8,
            head_seed in any::<usize>(),
            span in (prop::array::uniform2(-8i32..8), prop::array::uniform2(0i32..3)),
            eps8 in 0i32..24,
            boundary_seed in any::<usize>(),
        ) {
            let eighth = |v: i32| f64::from(v) / 8.0;
            let n_live = boxes.len();
            let capacity = (n_live + spare).clamp(1, MAX_WINDOW);
            let head = head_seed % n_live.max(1);
            let span_lo = span.0.map(eighth);
            let span_hi: [f64; 2] = std::array::from_fn(|d| eighth(span.0[d] + span.1[d]));
            let bounds: Vec<([f64; 2], [f64; 2])> = boxes
                .iter()
                .map(|(lo, ext)| (lo.map(eighth), std::array::from_fn(|d| eighth(lo[d] + ext[d]))))
                .collect();
            // Half the cases put ε² exactly on one box's merged diagonal.
            let eps_sq = match boundary_seed % 2 {
                1 if n_live > 0 => {
                    let (lo, hi) = bounds[boundary_seed / 2 % n_live];
                    (0..2).fold(0.0, |acc, d| {
                        let s = hi[d].max(span_hi[d]) - lo[d].min(span_lo[d]);
                        acc + s * s
                    })
                }
                _ => eighth(eps8) * eighth(eps8),
            };
            for path in [KernelPath::Scalar, KernelPath::native()] {
                let mut slabs = BoundSlabs::<2>::new(capacity, path);
                for (i, (lo, hi)) in bounds.iter().enumerate() {
                    slabs.set(i, lo, hi);
                }
                let (lo, hi) = slabs.columns();
                let (live_lo, live_hi) = (lo.map(|c| &c[..n_live]), hi.map(|c| &c[..n_live]));
                let mask = mbr_fit_mask(
                    KernelPath::Scalar, &live_lo, &live_hi, &span_lo, &span_hi, eps_sq,
                );
                let want = select_newest_first(mask, head, n_live);
                let (mut want_lo, mut want_hi) = (lo.map(<[f64]>::to_vec), hi.map(<[f64]>::to_vec));
                if let Some(k) = want.0 {
                    for d in 0..2 {
                        want_lo[d][k] = want_lo[d][k].min(span_lo[d]);
                        want_hi[d][k] = want_hi[d][k].max(span_hi[d]);
                    }
                }
                let got =
                    mbr_fit_pick_commit(&mut slabs, true, &span_lo, &span_hi, eps_sq, head, n_live);
                prop_assert_eq!(got, want, "path {}", path.name());
                let bits = |cols: &[&[f64]; 2]| -> Vec<u64> {
                    cols.iter().flat_map(|c| c.iter().map(|v| v.to_bits())).collect()
                };
                let (lo, hi) = slabs.columns();
                let want_lo = want_lo.each_ref().map(Vec::as_slice);
                let want_hi = want_hi.each_ref().map(Vec::as_slice);
                prop_assert_eq!(bits(&lo), bits(&want_lo), "path {}", path.name());
                prop_assert_eq!(bits(&hi), bits(&want_hi), "path {}", path.name());
            }
        }
    }
}
