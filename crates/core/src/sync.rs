//! Synchronization facade: the *only* door to `std::sync` primitives
//! in this crate (csj-lint's `sync-facade` rule enforces it).
//!
//! Built normally, the re-exports below are the plain `std::sync`
//! types and compile to nothing extra. Built with `--cfg csj_model`,
//! they swap to `csj-model`'s instrumented shims: every atomic
//! load/store/RMW and every mutex acquire/release first reports to a
//! virtual scheduler, which explores thread interleavings under
//! bounded DFS and checks happens-before with vector clocks. Outside
//! an active model execution the shims pass straight through to
//! `std`, so a `--cfg csj_model` build still runs the ordinary test
//! suite unchanged.
//!
//! The point of forcing all synchronization through one module is
//! that the scheduler's memory-model contract (DESIGN.md §9) stays
//! checkable: the model mirrors in `csj_model::protocols` use the
//! same primitives with the same orderings, and no synchronization
//! can be added to this crate without passing the facade — where it
//! is visible to review and to the model.

#[cfg(csj_model)]
pub use csj_model::sync::{atomic, Arc, Condvar, Mutex, MutexGuard};

#[cfg(not(csj_model))]
pub use std::sync::{atomic, Arc, Condvar, Mutex, MutexGuard};

/// Locks a facade mutex, recovering from poisoning. Every caller keeps
/// its guarded state consistent at each unlock, so a peer's panic
/// leaves nothing half-written to refuse.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Blocks on `cv`, recovering from poisoning as [`lock`] does.
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}
