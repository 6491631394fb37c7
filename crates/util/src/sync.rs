//! Synchronization-primitive facade: `core::sync::atomic` /
//! `std::sync` in production builds, the instrumented
//! [`crate::model::sync`] shims when compiled with `RUSTFLAGS="--cfg
//! loom"` (the crossbeam convention).
//!
//! Code whose interleavings should be explorable by the in-tree model
//! checker (see [`crate::model`]) imports its primitives from here
//! instead of `core`/`std`. The shim types are `#[repr(transparent)]`
//! over the real ones and delegate to them outside an active model
//! execution, so the facade is zero-cost in ordinary builds — verified
//! by the `zero_cost` nm probe in ci.sh for the production
//! configuration.

#[cfg(not(loom))]
pub use core::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
#[cfg(not(loom))]
pub use std::sync::Mutex;

#[cfg(loom)]
pub use crate::model::sync::{
    AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Mutex, Ordering,
};

/// What `lcrq_hazard::Domain::protect` and `lcrq_atomic`'s counted
/// `cas_ptr` need from a pointer cell. Production code only ever has
/// `core`'s `AtomicPtr`; under `--cfg loom` the instrumented shim is a
/// second type, and this trait lets those two helpers serve both — so a
/// structure built on this facade (the list of rings) keeps calling them
/// without a cfg fork at every call site.
pub trait PtrCell<T> {
    /// See `core`'s `AtomicPtr::load`.
    fn load(&self, order: Ordering) -> *mut T;
    /// See `core`'s `AtomicPtr::compare_exchange`.
    fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T>;
}

macro_rules! impl_ptr_cell {
    ($ty:ty) => {
        impl<T> PtrCell<T> for $ty {
            #[inline]
            fn load(&self, order: Ordering) -> *mut T {
                <$ty>::load(self, order)
            }
            #[inline]
            fn compare_exchange(
                &self,
                current: *mut T,
                new: *mut T,
                success: Ordering,
                failure: Ordering,
            ) -> Result<*mut T, *mut T> {
                <$ty>::compare_exchange(self, current, new, success, failure)
            }
        }
    };
}
impl_ptr_cell!(core::sync::atomic::AtomicPtr<T>);
#[cfg(loom)]
impl_ptr_cell!(crate::model::sync::AtomicPtr<T>);

// Queue heads and tails are padded; generic arguments do not auto-deref.
impl<T, A: PtrCell<T>> PtrCell<T> for crate::CachePadded<A> {
    #[inline]
    fn load(&self, order: Ordering) -> *mut T {
        (**self).load(order)
    }
    #[inline]
    fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        (**self).compare_exchange(current, new, success, failure)
    }
}

/// Thread shims: modeled spawn/join and park/unpark under `--cfg loom`,
/// `std::thread` otherwise.
pub mod thread {
    #[cfg(loom)]
    pub use crate::model::thread::{
        current, park, park_timeout, spawn, yield_now, JoinHandle, Thread,
    };
    #[cfg(not(loom))]
    pub use std::thread::{current, park, park_timeout, spawn, yield_now, JoinHandle, Thread};
}
