//! Planted twins: benchmark-local adapters that are wrong or slow on
//! purpose. `selftest` runs them through the ordinary workload code and
//! fails unless the checks and `compare` catch each one.

use std::cell::Cell;

use crate::adapter::Target;
use crate::clock;

const EVERY: u64 = 10_000;

/// Drops one item in 10 000.
#[derive(Clone)]
pub struct Lossy<T>(pub T, Cell<u64>);

impl<T> Lossy<T> {
    pub fn new(inner: T) -> Self {
        Lossy(inner, Cell::new(0))
    }
}

impl<T: Target> Target for Lossy<T> {
    fn put(&self, v: u64) {
        self.1.set(self.1.get() + 1);
        if !self.1.get().is_multiple_of(EVERY) {
            self.0.put(v);
        }
    }
    fn take(&self) -> Option<u64> {
        self.0.take()
    }
}

/// Delivers one item in 10 000 twice.
#[derive(Clone)]
pub struct Duplicating<T>(pub T, Cell<u64>);

impl<T> Duplicating<T> {
    pub fn new(inner: T) -> Self {
        Duplicating(inner, Cell::new(0))
    }
}

impl<T: Target> Target for Duplicating<T> {
    fn put(&self, v: u64) {
        self.1.set(self.1.get() + 1);
        if self.1.get().is_multiple_of(EVERY) {
            self.0.put(v);
        }
        self.0.put(v);
    }
    fn take(&self) -> Option<u64> {
        self.0.take()
    }
}

/// Correct, but spins 60 turns (about 30 ns) in every call.
#[derive(Clone)]
pub struct Slowed<T>(pub T);

impl<T: Target> Target for Slowed<T> {
    fn put(&self, v: u64) {
        clock::spin(60);
        self.0.put(v);
    }
    fn take(&self) -> Option<u64> {
        clock::spin(60);
        self.0.take()
    }
}
