//! Fixture: justified `unsafe` blocks, silent under every rule.

/// Reads through a raw pointer.
///
/// # Safety
///
/// `p` must be valid for reads (declaration side: no block to flag —
/// callers' `unsafe {}` sites carry their own SAFETY comments).
pub unsafe fn read_raw(p: *const u64) -> u64 {
    // SAFETY: `p` is valid for reads per this function's own contract.
    unsafe { *p }
}

pub fn justified(p: *const u64) -> u64 {
    let a = unsafe { *p }; // SAFETY: trailing form — `p` is valid per caller contract.
    // SAFETY: the comment-above form, possibly spanning several
    // lines, covers the next code line.
    let b = unsafe { *p };
    a + b
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let x = 7u64;
        let y = unsafe { *(&x as *const u64) };
        assert_eq!(y, 7);
    }
}
