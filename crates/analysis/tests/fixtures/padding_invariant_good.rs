//! Fixture: the SoA slab contract held correctly.

pub fn build_padded(n: usize) -> Vec<f64> {
    let slab_lo = vec![f64::INFINITY; n];
    slab_lo
}

pub fn refill_padded(slab_hi: &mut Vec<f64>, n: usize) {
    slab_hi.resize(n, f64::INFINITY);
}

fn slab_len_padded(cap: usize) -> usize {
    if cap == 0 {
        0
    } else {
        (cap + 3) & !3
    }
}

pub fn shrink_with_opt_out(slab_lo: &mut Vec<f64>, slab_ok: &mut bool) {
    *slab_ok = false;
    slab_lo.clear();
}

pub fn pick_guarded(slabs: &mut Slabs, eps_sq: f64) -> usize {
    if eps_sq < f64::INFINITY {
        mbr_fit_pick_commit(slabs, eps_sq)
    } else {
        0
    }
}
