//! Atomic primitives used by the LCRQ reproduction.
//!
//! The paper (§3) relies on five x86 read-modify-write instructions:
//!
//! | paper name | x86 instruction  | here |
//! |------------|------------------|------|
//! | `F&A`      | `LOCK XADD`      | [`FaaPolicy::fetch_add`] with [`HardwareFaa`] |
//! | `SWAP`     | `XCHG`           | [`ops::swap`] |
//! | `T&S`      | `LOCK BTS`       | [`ops::tas_bit`] |
//! | `CAS`      | `LOCK CMPXCHG`   | [`ops::cas`] |
//! | `CAS2`     | `LOCK CMPXCHG16B`| [`AtomicPair::compare_exchange`] |
//!
//! All of these *always succeed* except CAS/CAS2, which is the paper's core
//! observation: spreading threads with F&A avoids the wasted work of CAS
//! retry loops. The [`FaaPolicy`] trait lets the same queue code run with
//! hardware F&A (LCRQ) or a CAS-loop emulation (LCRQ-CAS, used in the
//! paper's Figure 1 and throughput studies to isolate the effect).
//!
//! Every operation records a software event ([`lcrq_util::metrics`]) so the
//! harness can regenerate the "atomic operations" rows of Tables 2 and 3.

#![warn(missing_docs)]

pub mod faa;
pub mod ops;
pub mod pair;

pub use faa::{CasLoopFaa, FaaPolicy, HardwareFaa};
pub use pair::{cas2_backend, AtomicPair};
