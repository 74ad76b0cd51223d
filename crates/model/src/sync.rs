//! Instrumented stand-ins for `std::sync` used by the
//! `csj_core::sync` facade under `--cfg csj_model`.
//!
//! Each shim wraps the real primitive and routes every access through
//! the virtual scheduler first: the calling thread parks, the
//! controller picks who runs, and only then does the access hit the
//! backing `std` object (always `SeqCst` underneath — the *modeled*
//! ordering lives in the vector clocks, the backing store is just a
//! value container that the serialized schedule keeps coherent).
//!
//! Passthrough: outside an active model execution the scheduler
//! declines to park ([`crate::sched`]'s thread-local is unset) and the
//! shims degrade to plain `std` behavior. This lets `csj-core` be
//! compiled with `--cfg csj_model` and still run its ordinary unit
//! tests; only closures under [`crate::check`] are explored.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::LockResult;
use std::sync::PoisonError;

pub use std::sync::Arc;

use crate::sched::{self, Op};

/// Atomic types instrumented for model checking.
pub mod atomic {
    use super::{fmt, sched, Op};

    pub use std::sync::atomic::Ordering;

    /// `true` for orderings with acquire semantics.
    fn acquires(order: Ordering) -> bool {
        // ORDERING: classifier, not a use site — maps the caller's
        // ordering onto the model's acquire happens-before edge.
        matches!(order, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
    }

    /// `true` for orderings with release semantics.
    fn releases(order: Ordering) -> bool {
        // ORDERING: classifier, not a use site — maps the caller's
        // ordering onto the model's release happens-before edge.
        matches!(order, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
    }

    /// The backing store is a value container; the schedule serializes
    /// all access, so SeqCst on it costs nothing and models nothing —
    /// the modeled ordering is what the caller passed, captured in the
    /// vector clocks.
    const BACKING: Ordering = Ordering::SeqCst;

    macro_rules! model_int_atomic {
        ($(#[$doc:meta])* $name:ident, $std:ident, $ty:ty) => {
            $(#[$doc])*
            pub struct $name {
                id: u64,
                v: std::sync::atomic::$std,
            }

            impl $name {
                /// Creates the atomic with an initial value.
                pub fn new(v: $ty) -> Self {
                    Self { id: sched::next_loc_id(), v: std::sync::atomic::$std::new(v) }
                }

                /// Instrumented `load`.
                pub fn load(&self, order: Ordering) -> $ty {
                    sched::yield_point(Op::AtomicLoad { loc: self.id, acquire: acquires(order) });
                    self.v.load(BACKING)
                }

                /// Instrumented `store`.
                pub fn store(&self, val: $ty, order: Ordering) {
                    sched::yield_point(Op::AtomicStore { loc: self.id, release: releases(order) });
                    self.v.store(val, BACKING);
                }

                /// Instrumented `fetch_add`.
                pub fn fetch_add(&self, val: $ty, order: Ordering) -> $ty {
                    self.rmw(order);
                    self.v.fetch_add(val, BACKING)
                }

                /// Instrumented `fetch_sub`.
                pub fn fetch_sub(&self, val: $ty, order: Ordering) -> $ty {
                    self.rmw(order);
                    self.v.fetch_sub(val, BACKING)
                }

                /// Instrumented `fetch_max`.
                pub fn fetch_max(&self, val: $ty, order: Ordering) -> $ty {
                    self.rmw(order);
                    self.v.fetch_max(val, BACKING)
                }

                /// Instrumented `swap`.
                pub fn swap(&self, val: $ty, order: Ordering) -> $ty {
                    self.rmw(order);
                    self.v.swap(val, BACKING)
                }

                fn rmw(&self, order: Ordering) {
                    sched::yield_point(Op::AtomicRmw {
                        loc: self.id,
                        acquire: acquires(order),
                        release: releases(order),
                    });
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(<$ty>::default())
                }
            }

            impl fmt::Debug for $name {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    fmt::Debug::fmt(&self.v, f)
                }
            }
        };
    }

    model_int_atomic!(
        /// Instrumented `std::sync::atomic::AtomicU64`.
        AtomicU64,
        AtomicU64,
        u64
    );
    model_int_atomic!(
        /// Instrumented `std::sync::atomic::AtomicUsize`.
        AtomicUsize,
        AtomicUsize,
        usize
    );

    /// Instrumented `std::sync::atomic::AtomicBool`.
    pub struct AtomicBool {
        id: u64,
        v: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// Creates the atomic with an initial value.
        pub fn new(v: bool) -> Self {
            Self { id: sched::next_loc_id(), v: std::sync::atomic::AtomicBool::new(v) }
        }

        /// Instrumented `load`.
        pub fn load(&self, order: Ordering) -> bool {
            sched::yield_point(Op::AtomicLoad { loc: self.id, acquire: acquires(order) });
            self.v.load(BACKING)
        }

        /// Instrumented `store`.
        pub fn store(&self, val: bool, order: Ordering) {
            sched::yield_point(Op::AtomicStore { loc: self.id, release: releases(order) });
            self.v.store(val, BACKING);
        }

        /// Instrumented `swap`.
        pub fn swap(&self, val: bool, order: Ordering) -> bool {
            sched::yield_point(Op::AtomicRmw {
                loc: self.id,
                acquire: acquires(order),
                release: releases(order),
            });
            self.v.swap(val, BACKING)
        }
    }

    impl Default for AtomicBool {
        fn default() -> Self {
            Self::new(false)
        }
    }

    impl fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Debug::fmt(&self.v, f)
        }
    }
}

/// Instrumented `std::sync::Mutex`. Lock acquisition is a scheduling
/// point (and a disabled one while the mutex is held); release
/// publishes the holder's clock so the next acquirer inherits a
/// happens-before edge, exactly like the real thing.
pub struct Mutex<T> {
    id: u64,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex holding `value`.
    pub fn new(value: T) -> Self {
        Self { id: sched::next_loc_id(), inner: std::sync::Mutex::new(value) }
    }

    /// Instrumented `lock`.
    ///
    /// # Errors
    ///
    /// Mirrors `std::sync::Mutex::lock`: returns [`PoisonError`] when a
    /// thread panicked while holding the lock. Model executions unwind
    /// through held guards at teardown, so poison is reachable there;
    /// callers use the same poison policy they would with `std`.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        sched::yield_point(Op::MutexLock { loc: self.id });
        guard_of(self.id, &self.inner, self.inner.lock())
    }

    /// Instrumented `into_inner`.
    ///
    /// # Errors
    ///
    /// Mirrors `std::sync::Mutex::into_inner`: poison carries over from
    /// a panicked holder.
    pub fn into_inner(self) -> LockResult<T> {
        // Consuming the mutex needs no scheduling point: exclusive
        // ownership proves no other thread can touch it.
        self.inner.into_inner()
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner, f)
    }
}

/// Wraps a backing-lock result in the model guard.
fn guard_of<'a, T>(
    loc: u64,
    lock: &'a std::sync::Mutex<T>,
    result: LockResult<std::sync::MutexGuard<'a, T>>,
) -> LockResult<MutexGuard<'a, T>> {
    match result {
        Ok(g) => Ok(MutexGuard { loc, lock, inner: Some(g) }),
        Err(poisoned) => {
            Err(PoisonError::new(MutexGuard { loc, lock, inner: Some(poisoned.into_inner()) }))
        }
    }
}

/// Guard returned by [`Mutex::lock`]; dropping it releases the model
/// mutex and publishes the holder's clock.
pub struct MutexGuard<'a, T> {
    loc: u64,
    /// The backing mutex, for re-acquisition after a [`Condvar::wait`].
    lock: &'a std::sync::Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_deref().unwrap_or_else(|| unreachable!("guard accessed after drop"))
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().unwrap_or_else(|| unreachable!("guard accessed after drop"))
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Free the backing lock before announcing the release so a
        // granted peer can never find it still held.
        self.inner.take();
        sched::mutex_unlock(self.loc);
    }
}

/// Instrumented `std::sync::Condvar` (only `notify_all`: a modeled
/// `notify_one` would have to pick its waiter, and the callers do not
/// need it).
///
/// In a model execution a wait releases the mutex, parks on a
/// scheduling point that stays disabled until a *later* `notify_all`
/// on the same condvar, then re-acquires the mutex. There are no
/// spurious wake-ups, so a notification the waiter can miss leaves it
/// blocked and the checker reports the lost wake-up as a deadlock.
pub struct Condvar {
    id: u64,
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a condvar.
    pub fn new() -> Self {
        Self { id: sched::next_loc_id(), inner: std::sync::Condvar::new() }
    }

    /// Instrumented `wait`.
    ///
    /// # Errors
    ///
    /// Mirrors `std::sync::Condvar::wait`: returns [`PoisonError`] when
    /// the mutex was poisoned while the caller waited.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let (loc, lock) = (guard.loc, guard.lock);
        match sched::condvar_epoch(self.id) {
            Some(seen) => {
                drop(guard);
                sched::yield_point(Op::CondWait { cv: self.id, seen });
                sched::yield_point(Op::MutexLock { loc });
                guard_of(loc, lock, lock.lock())
            }
            None => {
                let Some(held) = guard.inner.take() else {
                    unreachable!("guard accessed after drop")
                };
                drop(guard);
                guard_of(loc, lock, self.inner.wait(held))
            }
        }
    }

    /// Instrumented `notify_all`.
    pub fn notify_all(&self) {
        if !sched::yield_point(Op::CondNotify { cv: self.id }) {
            self.inner.notify_all();
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}
