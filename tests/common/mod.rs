//! The fail-point registry's guard, and the scheduler adversary, for the
//! integration suites that use them.
//!
//! The fail-point registry is process-global and libtest runs a binary's
//! tests in parallel, so every test that arms it holds this binary's lock,
//! through a guard that disarms the registry on drop (a panicking test
//! included): no test disarms another's scenario or leaves its own armed
//! behind.

// Each test binary compiles its own copy, and some use only the guard.
#![allow(dead_code)]

use lcrq::util::fault::{self, FaultAction, Scenario, Site};
use lcrq::util::rng::test_seed;
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

/// Sole use of the fail-point registry; dropping it disarms the registry.
pub struct Registry {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for Registry {
    fn drop(&mut self) {
        fault::disarm();
    }
}

/// Waits for the registry to be free and takes it.
pub fn registry() -> Registry {
    Registry {
        _lock: LOCK.lock().unwrap_or_else(|e| e.into_inner()),
    }
}

/// Takes the registry and arms the scheduler adversary: every
/// `Site::Preempt` visit yields the CPU with probability `ppm` per million.
pub fn adversarial_preemption(ppm: u32) -> Registry {
    let registry = registry();
    Scenario::new(test_seed(0x853C_49E6_748F_EA9B))
        .with(Site::Preempt, ppm, FaultAction::Yield)
        .arm();
    registry
}
