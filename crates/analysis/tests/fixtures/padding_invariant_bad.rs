//! Fixture: SoA slab-contract violations.

pub fn build_zeroed(n: usize) -> Vec<f64> {
    let slab_lo = vec![0.0; n];
    slab_lo
}

pub fn refill_zeroed(slab_hi: &mut Vec<f64>, n: usize) {
    slab_hi.resize(n, 0.0);
}

fn slab_len_unpadded(cap: usize) -> usize {
    cap + 1
}

pub fn shrink_silently(slab_lo: &mut Vec<f64>) {
    slab_lo.clear();
}

pub fn pick_unguarded(slabs: &mut Slabs, eps_sq: f64) -> usize {
    mbr_fit_pick_commit(slabs, eps_sq)
}
