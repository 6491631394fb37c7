//! wCQ — a wait-free circular queue layering Nikolaev's helping scheme
//! (arXiv:2201.02179) over the SCQ ring's cycle arithmetic.
//!
//! The SCQ family ([`crate::scq`]) is lock-free: a preempted thread can
//! force peers into unbounded retries (spurious CAS losses, stranded
//! slots). wCQ promotes the progress class to (empirical) wait-freedom
//! with three mechanisms:
//!
//! * **Request records.** Each ring embeds a small array of records. An
//!   operation that exhausts its bounded fast path *announces* itself —
//!   publishes `(phase, seq, arg)` plus an FAA ticket — and from then on
//!   any thread can complete it.
//! * **Help-first scanning.** Every operation first scans for the oldest
//!   pending announced request (by ticket) and contributes a bounded
//!   number of helping steps before running its own fast path, so an
//!   announced operation finishes within O(threads) operations of others
//!   even if its owner never runs again.
//! * **Claim-serialized exactly-once completion.** A record's *claim* word
//!   (an [`AtomicPair`] of `(seq | attempt, position)`) is the single
//!   serialization point for the helped operation. Helpers agree on a
//!   candidate ring position through the claim; placement into the ring is
//!   **two-phase** (a *tentative* entry first, promoted to a firm value
//!   only after the claim is CAS-advanced to its terminal `PLACED` state),
//!   and a helped dequeue *binds* the consumed entry to the record — the
//!   value stays in the slot until the result is delivered — so a helper
//!   stalling at any instruction never loses or duplicates a value.
//!   Terminal claim transitions (`PLACED`, `EMPTY`, `CLOSED`) are mutually
//!   exclusive CASes, which is the linearize-exactly-once argument.
//!
//! Deviation from the paper: Nikolaev keeps wCQ portable with single-word
//! atomics by splitting entries into phase-tagged halves. This repo is an
//! x86 reproduction with `CMPXCHG16B` already load-bearing ([`AtomicPair`],
//! the CRQ), so entries here are double-width `(meta, value)` pairs — the
//! same helping structure with a much shorter placement protocol. The
//! threshold counter, cycle tags and catchup are SCQ's, written once in
//! [`crate::ring`] beside the cache-line remap all rings share.
//!
//! [`Wcq`](crate::Wcq) is the unbounded queue: the shared list of rings
//! ([`RingList`](crate::RingList)) over [`WcqRing`]s.

use core::marker::PhantomData;
use core::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use lcrq_atomic::{ops, AtomicPair, FaaPolicy, HardwareFaa};
use lcrq_util::fault::{self, Site};
use lcrq_util::metrics::{self, Event};
use lcrq_util::sync::AtomicPtr;
use lcrq_util::CachePadded;

use crate::config::LcrqConfig;
use crate::crq::CrqClosed;
use crate::ring::{catchup, cycle_of, threshold_max, Ring, FINALIZED_BIT};
use crate::BOTTOM;

/// Request records per ring. Bounds the number of threads that can be in
/// the slow path of one ring simultaneously; overflow threads help peers
/// until a record frees up.
const REC_SLOTS: usize = 64;

/// `rec` field pattern for "no record" (fast-path entries).
const REC_NONE: u64 = 0x7F;

/// Fast-path position attempts before an operation announces itself.
const FAST_ATTEMPTS: usize = 4;

/// Per-position rounds of the fast path's read→CAS2 window.
const FAST_ROUNDS: usize = 4;

/// Helping steps contributed per [`help_request`](WcqRing::help_request)
/// call. Completion does not depend on any single caller finishing: the
/// owner loops, and every other operation contributes this many steps.
const HELP_ROUNDS: usize = 16;

// --- claim word -------------------------------------------------------
// claim = AtomicPair(hi, lo):
//   hi = (seq & SEQ48) << 16 | attempt (16 bits, capped by the tantrum)
//   lo = candidate position, or one of the specials below. Terminal
//   states (PLACED / POS_EMPTY / POS_CLOSED) are reached by exactly one
//   CAS and never left within a seq.

/// No candidate chosen yet.
const POS_NONE: u64 = u64::MAX;
/// Terminal: the ring was finalized before placement (enqueue only).
const POS_CLOSED: u64 = u64::MAX - 1;
/// Terminal: the threshold protocol proved emptiness (dequeue only).
const POS_EMPTY: u64 = u64::MAX - 2;
/// OR-ed onto the position: terminal, the operation took effect *at* that
/// position (entry placed / entry bound).
const PLACED_BIT: u64 = 1 << 62;

const CLAIM_SEQ_MASK: u64 = (1 << 48) - 1;
const ATT_MASK: u64 = 0xFFFF;

#[inline]
fn claim_hi(seq: u64, att: u64) -> u64 {
    ((seq & CLAIM_SEQ_MASK) << 16) | (att & ATT_MASK)
}

#[inline]
fn claim_bump(hi: u64) -> u64 {
    (hi & !ATT_MASK) | ((hi + 1) & ATT_MASK)
}

/// Whether a claim position word is the terminal `PLACED` state at a real
/// ring position (the special sentinels also have bit 62 set).
#[inline]
fn claim_is_placed(cpos: u64) -> bool {
    cpos < POS_EMPTY && cpos & PLACED_BIT != 0
}

// --- record state word ------------------------------------------------
// state = seq << 3 | phase. `seq` strictly increases across uses of the
// slot; every helper CAS on claim/result/state carries it, so a stale
// helper from a previous occupancy structurally fails.

const PH_IDLE: u64 = 0;
/// Owned, fields being initialized; helpers ignore it.
const PH_INIT: u64 = 1;
const PH_ENQ: u64 = 2;
const PH_DEQ: u64 = 3;
const PH_DONE: u64 = 4;
/// Terminal for an enqueue whose ring closed before placement.
const PH_CLOSED: u64 = 5;

#[inline]
fn pack_state(seq: u64, phase: u64) -> u64 {
    (seq << 3) | phase
}

#[inline]
fn state_seq(st: u64) -> u64 {
    st >> 3
}

#[inline]
fn state_phase(st: u64) -> u64 {
    st & 0x7
}

// --- entry meta word --------------------------------------------------
// meta = cycle << 16 | safe << 15 | bound << 14 | tent << 13 | rec << 6.
// value word: BOTTOM = empty. A *firm* entry (val != BOTTOM, no tent/
// bound flag) is a live value. `tent` marks a slow-path placement that is
// not yet claim-validated (invisible to consumers until promoted or
// retracted). `bound` marks a consumed-but-undelivered entry owned by a
// dequeue record; the value stays in the slot until delivered.

const META_CYCLE_SHIFT: u32 = 16;
const SAFE_BIT: u64 = 1 << 15;
const BOUND_BIT: u64 = 1 << 14;
const TENT_BIT: u64 = 1 << 13;
const META_REC_SHIFT: u32 = 6;

#[inline]
fn mpack(cycle: u64, safe: bool, flags: u64, rec: u64) -> u64 {
    (cycle << META_CYCLE_SHIFT) | ((safe as u64) * SAFE_BIT) | flags | (rec << META_REC_SHIFT)
}

#[inline]
fn mcycle(meta: u64) -> u64 {
    meta >> META_CYCLE_SHIFT
}

#[inline]
fn msafe(meta: u64) -> bool {
    meta & SAFE_BIT != 0
}

#[inline]
fn mrec(meta: u64) -> u64 {
    (meta >> META_REC_SHIFT) & 0x7F
}

/// A per-thread(-ish) request record; one slow-path operation at a time.
struct Record {
    /// `seq << 3 | phase`.
    state: AtomicU64,
    /// Global help-order ticket, written before the state is published.
    ticket: AtomicU64,
    /// Enqueue argument.
    arg: AtomicU64,
    /// `((seq << 16) | attempt, position)` — the serialization point.
    claim: AtomicPair,
    /// `(seq << 1 | has_result, value)`; `BOTTOM` value = EMPTY.
    result: AtomicPair,
}

impl Record {
    fn new() -> Self {
        Record {
            state: AtomicU64::new(pack_state(0, PH_IDLE)),
            ticket: AtomicU64::new(0),
            arg: AtomicU64::new(0),
            claim: AtomicPair::new(0, POS_NONE),
            result: AtomicPair::new(0, 0),
        }
    }
}

/// CAS-loop "store" for an [`AtomicPair`] (x86 has no 128-bit atomic
/// store). Only used by a record's owner during `INIT`, when the only
/// competing writers are stale helpers making at most one doomed CAS each.
fn pair_reset(p: &AtomicPair, new: (u64, u64)) {
    loop {
        let cur = p.load();
        if cur == new || p.compare_exchange(cur, new).is_ok() {
            return;
        }
    }
}

/// A bounded wait-free MPMC ring of `u64` values (`< BOTTOM`) — the wCQ.
///
/// Most users want the unbounded [`Wcq`](crate::Wcq); the ring is exposed for tests
/// and for symmetry with [`Scq`](crate::Scq). Tantrum semantics like
/// [`Crq`](crate::Crq): a starving enqueue closes the ring.
pub struct WcqRing<P: FaaPolicy = HardwareFaa> {
    head: CachePadded<AtomicU64>,
    /// Bit 63 = finalized; bits 62..0 = the tail position.
    tail: CachePadded<AtomicU64>,
    /// SCQ livelock-freedom counter; negative ⇒ a dequeue may report
    /// EMPTY without touching `head`.
    threshold: CachePadded<AtomicI64>,
    /// `2n` double-width `(meta, value)` entries.
    entries: Box<[AtomicPair]>,
    /// log2 of the entry count.
    array_order: u32,
    /// The helping records.
    records: Box<[CachePadded<Record>]>,
    /// FAA'd at announce: the help-first order.
    help_ticket: CachePadded<AtomicU64>,
    /// Number of announced-but-unreleased requests; zero lets the
    /// help-first scan exit with a single load.
    pending: CachePadded<AtomicU64>,
    /// Enqueue-side tantrum: a slow enqueue whose claim dies this many
    /// times closes the ring (the CRQ `starving()` analogue).
    starvation_limit: u64,
    /// The next ring in a [`Wcq`](crate::Wcq) list (null while this is the tail).
    next: CachePadded<AtomicPtr<WcqRing<P>>>,
    _marker: PhantomData<P>,
}

impl<P: FaaPolicy> WcqRing<P> {
    /// Number of values the ring can hold.
    #[inline]
    pub fn capacity(&self) -> u64 {
        (self.entries.len() as u64) / 2
    }

    /// Position → entry slot: the shared cache-line spreading
    /// [`remap`](crate::ring::remap).
    #[inline]
    fn remap(&self, pos: u64) -> usize {
        crate::ring::remap(pos, self.array_order)
    }

    /// Inverse of [`remap`](Self::remap): reconstructs the position of the
    /// entry in slot `j` at `cycle` (helpers resolving a tent/bound entry
    /// need the position to compare against the record's claim).
    #[inline]
    fn pos_of(&self, j: usize, cycle: u64) -> u64 {
        (cycle << self.array_order) | crate::ring::pos_of(j, self.array_order)
    }

    #[inline]
    fn arm_threshold(&self) {
        let max = threshold_max(self.array_order);
        if self.threshold.load(Ordering::SeqCst) != max {
            self.threshold.store(max, Ordering::SeqCst);
        }
    }

    /// Current threshold value (diagnostic).
    pub fn threshold(&self) -> i64 {
        self.threshold.load(Ordering::SeqCst)
    }

    /// Announced-but-unreleased request count (diagnostic).
    pub fn pending_requests(&self) -> u64 {
        self.pending.load(Ordering::SeqCst)
    }

    // --- help-first scan ------------------------------------------------

    /// Completes (a bounded chunk of) the oldest announced request, if
    /// any. Called at the top of every operation; a single plain load
    /// when nothing is pending.
    fn help_scan(&self) {
        if self.pending.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut best: Option<(u64, usize, u64)> = None;
        for (i, r) in self.records.iter().enumerate() {
            let st = r.state.load(Ordering::SeqCst);
            let ph = state_phase(st);
            if ph == PH_ENQ || ph == PH_DEQ {
                let t = r.ticket.load(Ordering::SeqCst);
                if best.is_none_or(|(bt, _, _)| t < bt) {
                    best = Some((t, i, state_seq(st)));
                }
            }
        }
        if let Some((_, i, seq)) = best {
            metrics::inc(Event::HelpGranted);
            self.help_request(i, seq);
        }
    }

    /// Contributes up to [`HELP_ROUNDS`] steps toward completing record
    /// `i`'s request at `seq`. Every step is a bounded number of atomics;
    /// each either advances the claim state machine or observes that a
    /// peer already did.
    fn help_request(&self, i: usize, seq: u64) {
        for _ in 0..HELP_ROUNDS {
            let st = self.records[i].state.load(Ordering::SeqCst);
            if state_seq(st) != seq {
                return;
            }
            let settled = match state_phase(st) {
                PH_ENQ => self.help_enqueue_step(i, seq),
                PH_DEQ => self.help_dequeue_step(i, seq),
                _ => true,
            };
            if settled {
                return;
            }
        }
    }

    /// One helping step for an announced enqueue. Returns `true` when the
    /// request reached (or is observed in) a terminal phase.
    fn help_enqueue_step(&self, i: usize, seq: u64) -> bool {
        metrics::inc(Event::NodeVisit);
        // `Fail` = one lost helping race: re-read everything.
        if fault::inject(Site::WcqHelp) {
            return false;
        }
        let r = &self.records[i];
        let chi = r.claim.load_first();
        let cpos = r.claim.load_second();
        if chi >> 16 != seq & CLAIM_SEQ_MASK {
            // Torn read or stale record view; retry from the state check.
            return false;
        }
        if cpos == POS_CLOSED {
            if ops::cas(
                &r.state,
                pack_state(seq, PH_ENQ),
                pack_state(seq, PH_CLOSED),
            )
            .is_ok()
            {
                metrics::inc(Event::HelpFinalized);
            }
            return true;
        }
        if claim_is_placed(cpos) {
            // Terminal claim: the placement happened at `p`. Promote the
            // tentative entry if still ours, then finalize the state. The
            // claim alone is the placement proof — the entry may already
            // have been promoted and even consumed by a dequeuer.
            let p = cpos & !PLACED_BIT;
            self.promote_at(p, i);
            // Best-effort: advance the tail past the placement so the next
            // load-based candidate doesn't start on a now-occupied slot.
            let _ = ops::cas(&self.tail, p, p + 1);
            self.arm_threshold();
            if ops::cas(&r.state, pack_state(seq, PH_ENQ), pack_state(seq, PH_DONE)).is_ok() {
                metrics::inc(Event::HelpFinalized);
            }
            return true;
        }
        if cpos == POS_NONE {
            // First candidate comes from the tail (a load, not an FAA —
            // losing the claim race must not burn a ring position).
            let t_raw = self.tail.load(Ordering::SeqCst);
            let new = if t_raw & FINALIZED_BIT != 0 {
                POS_CLOSED
            } else {
                t_raw
            };
            let _ = r
                .claim
                .compare_exchange((chi, cpos), (claim_bump(chi), new));
            return false;
        }
        // Live candidate position.
        let p = cpos;
        let c = cycle_of(p, self.array_order);
        let j = self.remap(p);
        let meta = self.entries[j].load_first();
        let val = self.entries[j].load_second();
        if mcycle(meta) == c && val != BOTTOM && mrec(meta) == i as u64 && meta & BOUND_BIT == 0 {
            // Our entry is in the slot (tentative or already promoted):
            // race the claim to PLACED; the next round finalizes.
            let _ = r
                .claim
                .compare_exchange((chi, cpos), (claim_bump(chi), p | PLACED_BIT));
            return false;
        }
        if meta & (TENT_BIT | BOUND_BIT) != 0 {
            // Foreign in-flight two-phase entry: resolve it, then re-read.
            self.resolve_entry(j, meta, val);
            return false;
        }
        if val == BOTTOM
            && mcycle(meta) < c
            && (msafe(meta) || self.head.load(Ordering::SeqCst) <= p)
        {
            // Placeable: phase 1, the tentative entry. Invisible to
            // consumers until the claim validates it.
            let _ = fault::inject(Site::Preempt);
            let v = r.arg.load(Ordering::SeqCst);
            let _ = self.entries[j]
                .compare_exchange((meta, val), (mpack(c, true, TENT_BIT, i as u64), v));
            return false;
        }
        // Dead (cycle advanced) or blocked (older firm entry): bump to a
        // fresh candidate. Stale helpers of the abandoned attempt can only
        // leave a tentative entry behind, which resolution retracts —
        // that's why no "dead forever" proof is needed here.
        if p >= self.head.load(Ordering::SeqCst) + self.entries.len() as u64 {
            // A full lap ahead of the consumers: the ring is full. Tantrum
            // (CRQ-style) so the list layer spills to a fresh ring.
            self.close();
            let _ = r
                .claim
                .compare_exchange((chi, cpos), (claim_bump(chi), POS_CLOSED));
            return false;
        }
        let att = chi & ATT_MASK;
        if att >= self.starvation_limit {
            // Tantrum: the ring is too contended/full to place; close it
            // so the list layer spills to a fresh ring.
            self.close();
            let _ = r
                .claim
                .compare_exchange((chi, cpos), (claim_bump(chi), POS_CLOSED));
            return false;
        }
        let t_raw = self.tail.load(Ordering::SeqCst);
        if t_raw & FINALIZED_BIT != 0 {
            let _ = r
                .claim
                .compare_exchange((chi, cpos), (claim_bump(chi), POS_CLOSED));
            return false;
        }
        let mut cand = t_raw;
        if cand <= p {
            // The tail never passed our dead position (no fast-path FAA
            // traffic): nudge it so candidates make progress. The skipped
            // position becomes a hole the dequeue transitions absorb.
            let _ = ops::cas(&self.tail, cand, p + 1);
            cand = p + 1;
        }
        let _ = r
            .claim
            .compare_exchange((chi, cpos), (claim_bump(chi), cand));
        false
    }

    /// One helping step for an announced dequeue. Returns `true` when the
    /// request reached (or is observed in) a terminal phase.
    fn help_dequeue_step(&self, i: usize, seq: u64) -> bool {
        metrics::inc(Event::NodeVisit);
        if fault::inject(Site::WcqHelp) {
            return false;
        }
        let r = &self.records[i];
        let chi = r.claim.load_first();
        let cpos = r.claim.load_second();
        if chi >> 16 != seq & CLAIM_SEQ_MASK {
            return false;
        }
        if cpos == POS_EMPTY {
            let _ = r
                .result
                .compare_exchange((seq << 1, 0), ((seq << 1) | 1, BOTTOM));
            if ops::cas(&r.state, pack_state(seq, PH_DEQ), pack_state(seq, PH_DONE)).is_ok() {
                metrics::inc(Event::HelpFinalized);
                metrics::inc(Event::ThresholdExhausted);
            }
            return true;
        }
        if claim_is_placed(cpos) {
            // Terminal claim: the bound entry at `p` carries the value.
            self.finish_bound_dequeue(i, seq, cpos & !PLACED_BIT);
            return true;
        }
        if cpos == POS_NONE {
            if self.threshold.load(Ordering::SeqCst) < 0 {
                let _ = r
                    .claim
                    .compare_exchange((chi, cpos), (claim_bump(chi), POS_EMPTY));
                return false;
            }
            let h = self.head.load(Ordering::SeqCst);
            let _ = r.claim.compare_exchange((chi, cpos), (claim_bump(chi), h));
            return false;
        }
        // Live candidate position.
        let h = cpos;
        let c = cycle_of(h, self.array_order);
        let j = self.remap(h);
        let meta = self.entries[j].load_first();
        let val = self.entries[j].load_second();
        if mcycle(meta) == c && meta & BOUND_BIT != 0 && mrec(meta) == i as u64 {
            // Our bind is in: race the claim to PLACED.
            let _ = r
                .claim
                .compare_exchange((chi, cpos), (claim_bump(chi), h | PLACED_BIT));
            return false;
        }
        if mcycle(meta) == c && val != BOTTOM && meta & (TENT_BIT | BOUND_BIT) == 0 {
            // Firm entry at our cycle: consumable. Pre-finalize a slow
            // placer's record, then bind (phase 1 of the consume — the
            // value stays in the slot until the claim validates).
            if mrec(meta) != REC_NONE {
                self.finalize_src(mrec(meta) as usize, h);
            }
            let _ = fault::inject(Site::Preempt);
            let _ = self.entries[j].compare_exchange(
                (meta, val),
                (mpack(c, msafe(meta), BOUND_BIT, i as u64), val),
            );
            return false;
        }
        if meta & (TENT_BIT | BOUND_BIT) != 0 {
            self.resolve_entry(j, meta, val);
            return false;
        }
        if mcycle(meta) < c {
            // SCQ transitions, CAS2 edition.
            let new = if val == BOTTOM {
                mpack(c, msafe(meta), 0, REC_NONE)
            } else {
                mpack(mcycle(meta), false, 0, mrec(meta))
            };
            let settled = new == meta; // an overtaken value, already unsafe
            if settled && self.head.load(Ordering::SeqCst) <= h {
                // Re-marking it would "succeed" round after round until its
                // own (possibly stalled) dequeuer consumes it: an unbounded
                // wait on a peer. Give the position up as the fast path does,
                // `head` first — an unsafe slot then refuses position `h` to
                // every enqueuer — and look again (a value placed just
                // before that is still ours to take).
                if ops::cas(&self.head, h, h + 1).is_ok() {
                    metrics::inc(Event::Faa);
                    self.threshold.fetch_sub(1, Ordering::SeqCst);
                }
                return false;
            }
            let _ = fault::inject(Site::Preempt);
            let swapped = self.entries[j].compare_exchange((meta, val), (new, val));
            if swapped.is_ok() {
                metrics::inc(if val == BOTTOM {
                    Event::EmptyTransition
                } else {
                    Event::UnsafeTransition
                });
            }
            if !(settled && swapped.is_ok()) {
                return false;
            }
            // The CAS2 changed nothing but validated the two-word snapshot
            // with `head` already past `h`: the position is dead.
        }
        // Dead position (cycle advanced / transitioned). Threshold
        // accounting must be exactly once per retired position or helpers
        // racing the fast path would exhaust it early and report a false
        // EMPTY — so only the thread whose CAS advances `head` past the
        // position decrements (a fast-path FAA that claimed the position
        // does its own accounting).
        let t = self.tail_index();
        if t <= h + 1 {
            catchup(&self.tail, &self.head, t, h + 1);
        }
        let head_now = self.head.load(Ordering::SeqCst);
        let mut cand = head_now;
        let mut advanced_by_us = false;
        if cand <= h {
            advanced_by_us = ops::cas(&self.head, h, h + 1).is_ok();
            cand = h + 1;
        }
        let empty = if advanced_by_us {
            metrics::inc(Event::Faa);
            self.threshold.fetch_sub(1, Ordering::SeqCst) <= 0 || t <= h + 1
        } else {
            self.threshold.load(Ordering::SeqCst) < 0 || t <= h + 1
        };
        if empty {
            let _ = r
                .claim
                .compare_exchange((chi, cpos), (claim_bump(chi), POS_EMPTY));
            return false;
        }
        let _ = r
            .claim
            .compare_exchange((chi, cpos), (claim_bump(chi), cand));
        false
    }

    /// Delivers the value of the bound entry at `p` to dequeue record `i`
    /// (idempotent: result CAS2, state CAS, then the scrub that frees the
    /// slot; each is seq-tagged so any subset of helpers can run it).
    fn finish_bound_dequeue(&self, i: usize, seq: u64, p: u64) {
        let c = cycle_of(p, self.array_order);
        let j = self.remap(p);
        let meta = self.entries[j].load_first();
        let val = self.entries[j].load_second();
        if mcycle(meta) == c && meta & BOUND_BIT != 0 && mrec(meta) == i as u64 {
            let r = &self.records[i];
            let _ = r
                .result
                .compare_exchange((seq << 1, 0), ((seq << 1) | 1, val));
            if ops::cas(&r.state, pack_state(seq, PH_DEQ), pack_state(seq, PH_DONE)).is_ok() {
                metrics::inc(Event::HelpFinalized);
            }
            // Scrub only after the result is published: the entry was the
            // value's only home until now.
            let _ = self.entries[j]
                .compare_exchange((meta, val), (mpack(c, msafe(meta), 0, REC_NONE), BOTTOM));
        } else {
            // Slot already scrubbed: the result was delivered first.
            let r = &self.records[i];
            if ops::cas(&r.state, pack_state(seq, PH_DEQ), pack_state(seq, PH_DONE)).is_ok() {
                metrics::inc(Event::HelpFinalized);
            }
        }
    }

    /// Consumer-side pre-finalization of a slow-path *enqueue* record
    /// whose firm entry at position `p` is about to be consumed: if the
    /// record's claim is `PLACED` at exactly `p`, complete its state
    /// transition so its helpers stop early. Positions never repeat, so a
    /// reused record can't be confused with the placer.
    fn finalize_src(&self, rec: usize, p: u64) {
        let r = &self.records[rec];
        let cpos = r.claim.load_second();
        if cpos == p | PLACED_BIT {
            let st = r.state.load(Ordering::SeqCst);
            let chi = r.claim.load_first();
            if state_phase(st) == PH_ENQ
                && (state_seq(st) & CLAIM_SEQ_MASK) == chi >> 16
                && ops::cas(&r.state, st, pack_state(state_seq(st), PH_DONE)).is_ok()
            {
                metrics::inc(Event::HelpFinalized);
            }
        }
    }

    /// Phase 2 of a slow-path enqueue placement: tent → firm at position
    /// `p`, permitted because the claim is already `PLACED` there.
    fn promote_at(&self, p: u64, i: usize) {
        let c = cycle_of(p, self.array_order);
        let j = self.remap(p);
        let meta = self.entries[j].load_first();
        let val = self.entries[j].load_second();
        if mcycle(meta) == c && meta & TENT_BIT != 0 && mrec(meta) == i as u64 {
            let _ =
                self.entries[j].compare_exchange((meta, val), (mpack(c, true, 0, i as u64), val));
        }
    }

    /// Resolves an in-flight two-phase entry (tentative placement or
    /// bound consume) found in slot `j`: helps it to its terminal state
    /// if its record's claim validates it, or rolls it back if the claim
    /// moved on. Any thread may call this; every arm is a claim-tagged
    /// CAS, so duplicated resolution is benign.
    fn resolve_entry(&self, j: usize, meta: u64, val: u64) {
        let rec = mrec(meta);
        if rec == REC_NONE || rec as usize >= REC_SLOTS {
            return;
        }
        let c = mcycle(meta);
        let p = self.pos_of(j, c);
        let r = &self.records[rec as usize];
        let chi = r.claim.load_first();
        let cpos = r.claim.load_second();
        let seq = chi >> 16;
        if meta & TENT_BIT != 0 {
            if cpos == p {
                // Claim still aims here: help it to PLACED (the claim CAS
                // decides; loser re-reads).
                let _ = r
                    .claim
                    .compare_exchange((chi, p), (claim_bump(chi), p | PLACED_BIT));
            } else if cpos == p | PLACED_BIT {
                // Validated: promote to a firm value.
                let _ =
                    self.entries[j].compare_exchange((meta, val), (mpack(c, true, 0, rec), val));
            } else {
                // The claim moved on (or the record was reused): this
                // tentative entry is an orphan. Retract it, leaving the
                // slot empty *at this cycle* so no stale placement can
                // ever land here again.
                let _ = self.entries[j]
                    .compare_exchange((meta, val), (mpack(c, msafe(meta), 0, REC_NONE), BOTTOM));
            }
            return;
        }
        if meta & BOUND_BIT != 0 {
            let st = r.state.load(Ordering::SeqCst);
            let seq_matches = (state_seq(st) & CLAIM_SEQ_MASK) == seq;
            if cpos == p | PLACED_BIT && seq_matches {
                // Validated bind: drive the delivery to completion. Works
                // for phase DEQ (deliver) and DONE (scrub) alike.
                self.finish_bound_dequeue(rec as usize, state_seq(st), p);
            } else if cpos == p && seq_matches && state_phase(st) == PH_DEQ {
                let _ = r
                    .claim
                    .compare_exchange((chi, p), (claim_bump(chi), p | PLACED_BIT));
            } else {
                // Stale bind (claim moved before validation): restore the
                // firm entry — the value was never delivered.
                let _ = self.entries[j]
                    .compare_exchange((meta, val), (mpack(c, msafe(meta), 0, REC_NONE), val));
            }
        }
    }

    // --- record lifecycle ---------------------------------------------

    /// Claims an IDLE record slot, bumping its sequence. When all records
    /// are busy the caller helps until one frees — the wait is bounded by
    /// the peers' own (bounded) completion.
    fn acquire_record(&self) -> (usize, u64) {
        loop {
            for (i, r) in self.records.iter().enumerate() {
                let st = r.state.load(Ordering::SeqCst);
                if state_phase(st) == PH_IDLE {
                    let seq = state_seq(st) + 1;
                    if ops::cas(&r.state, st, pack_state(seq, PH_INIT)).is_ok() {
                        return (i, seq);
                    }
                }
            }
            self.help_scan();
        }
    }

    /// Publishes record `i` (already INIT with claim/result/arg set) at
    /// `phase` and waits — helping all the while — until it terminates.
    fn announce_and_run(&self, i: usize, seq: u64, phase: u64) -> u64 {
        let r = &self.records[i];
        metrics::inc(Event::HelpAnnounce);
        let ticket = self.help_ticket.fetch_add(1, Ordering::SeqCst);
        metrics::inc(Event::Faa);
        r.ticket.store(ticket, Ordering::SeqCst);
        self.pending.fetch_add(1, Ordering::SeqCst);
        metrics::inc(Event::Faa);
        r.state.store(pack_state(seq, phase), Ordering::SeqCst);
        loop {
            self.help_request(i, seq);
            let st = r.state.load(Ordering::SeqCst);
            debug_assert_eq!(state_seq(st), seq, "record reused while owned");
            let ph = state_phase(st);
            if ph == PH_DONE || ph == PH_CLOSED {
                return ph;
            }
        }
    }

    /// Returns record `i` to IDLE. For a dequeue the caller must have
    /// scrubbed the bound slot first (see [`dequeue_slow`](Self::dequeue_slow)).
    fn release_record(&self, i: usize, seq: u64) {
        self.pending.fetch_sub(1, Ordering::SeqCst);
        metrics::inc(Event::Faa);
        self.records[i]
            .state
            .store(pack_state(seq, PH_IDLE), Ordering::SeqCst);
    }

    /// Announced enqueue: publishes a record and helps until it reaches
    /// DONE (placed) or CLOSED (ring finalized first).
    fn enqueue_slow(&self, value: u64) -> Result<(), CrqClosed> {
        let (i, seq) = self.acquire_record();
        let r = &self.records[i];
        r.arg.store(value, Ordering::SeqCst);
        pair_reset(&r.claim, (claim_hi(seq, 0), POS_NONE));
        pair_reset(&r.result, (seq << 1, 0));
        let ph = self.announce_and_run(i, seq, PH_ENQ);
        self.release_record(i, seq);
        if ph == PH_DONE {
            Ok(())
        } else {
            Err(CrqClosed)
        }
    }

    /// Announced dequeue. `pos0` is `POS_NONE`, or a position the caller
    /// owns from a fast-path FAA whose window expired — the claim starts
    /// there so the position is completed, not leaked.
    fn dequeue_slow(&self, pos0: u64) -> Option<u64> {
        let (i, seq) = self.acquire_record();
        let r = &self.records[i];
        pair_reset(&r.claim, (claim_hi(seq, 0), pos0));
        pair_reset(&r.result, (seq << 1, 0));
        let _ = self.announce_and_run(i, seq, PH_DEQ);
        // Before the record can be reused, the bound slot must be
        // scrubbed — otherwise a later occupant of this record could be
        // confused with the old bind and the value delivered twice.
        let cpos = r.claim.load_second();
        if claim_is_placed(cpos) {
            let p = cpos & !PLACED_BIT;
            let c = cycle_of(p, self.array_order);
            let j = self.remap(p);
            let meta = self.entries[j].load_first();
            let val = self.entries[j].load_second();
            if mcycle(meta) == c && meta & BOUND_BIT != 0 && mrec(meta) == i as u64 {
                let _ = self.entries[j]
                    .compare_exchange((meta, val), (mpack(c, msafe(meta), 0, REC_NONE), BOTTOM));
            }
        }
        let v = r.result.load_second();
        debug_assert_eq!(r.result.load_first(), (seq << 1) | 1, "DONE without result");
        self.release_record(i, seq);
        if v == BOTTOM {
            None
        } else {
            Some(v)
        }
    }
}

/// The wCQ ring's operations *are* its [`Ring`] implementation. Like the
/// SCQ it overrides only the [`rearm`](Ring::rearm) hook (same threshold
/// counter, same reason); batches keep the scalar loop because a k-wide FAA
/// would reserve k positions whose helped completion the record protocol
/// cannot express as a group.
impl<P: FaaPolicy> Ring for WcqRing<P> {
    /// An empty ring with capacity `2^order` values (`2^(order+1)`
    /// entries, matching the SCQ's 2n sizing).
    fn new(config: &LcrqConfig, order: u32) -> Self {
        metrics::inc(Event::RingAlloc);
        let order = order.clamp(1, 30);
        let array_order = order + 1;
        let slots = 1usize << array_order;
        let entries: Box<[AtomicPair]> = (0..slots)
            .map(|_| AtomicPair::new(mpack(0, true, 0, REC_NONE), BOTTOM))
            .collect();
        WcqRing {
            head: CachePadded::new(AtomicU64::new(slots as u64)),
            tail: CachePadded::new(AtomicU64::new(slots as u64)),
            threshold: CachePadded::new(AtomicI64::new(-1)),
            entries,
            array_order,
            records: (0..REC_SLOTS)
                .map(|_| CachePadded::new(Record::new()))
                .collect(),
            help_ticket: CachePadded::new(AtomicU64::new(0)),
            pending: CachePadded::new(AtomicU64::new(0)),
            // Cap below the claim's 16-bit attempt field so it can't wrap.
            starvation_limit: (config.starvation_limit as u64).min(ATT_MASK - 1),
            next: CachePadded::new(AtomicPtr::new(core::ptr::null_mut())),
            _marker: PhantomData,
        }
    }

    // --- public operations --------------------------------------------

    /// Appends `value` (must be `< BOTTOM`); fails only if the ring was
    /// finalized. Bounded: `FAST_ATTEMPTS` FAA attempts, then the
    /// announced slow path whose claim terminates within the starvation
    /// limit.
    fn enqueue(&self, value: u64) -> Result<(), CrqClosed> {
        debug_assert!(value < BOTTOM);
        self.help_scan();
        for _ in 0..FAST_ATTEMPTS {
            let t = P::fetch_add(&self.tail, 1);
            if t & FINALIZED_BIT != 0 {
                return Err(CrqClosed);
            }
            if t >= self.head.load(Ordering::SeqCst) + self.entries.len() as u64 {
                // Full lap ahead of the consumers: tantrum (CRQ-style).
                self.close();
                return Err(CrqClosed);
            }
            let c = cycle_of(t, self.array_order);
            let j = self.remap(t);
            for _ in 0..FAST_ROUNDS {
                metrics::inc(Event::NodeVisit);
                // `Fail` = lost placement window. It costs one bounded
                // round (never an unbounded retry): abandoning an enqueue
                // position only leaves a hole the dequeue-side transitions
                // absorb.
                if fault::inject(Site::WcqEnqueue) {
                    break;
                }
                let meta = self.entries[j].load_first();
                let val = self.entries[j].load_second();
                if val == BOTTOM
                    && mcycle(meta) < c
                    && meta & (TENT_BIT | BOUND_BIT) == 0
                    && (msafe(meta) || self.head.load(Ordering::SeqCst) <= t)
                {
                    let _ = fault::inject(Site::Preempt);
                    if self.entries[j]
                        .compare_exchange((meta, val), (mpack(c, true, 0, REC_NONE), value))
                        .is_ok()
                    {
                        self.arm_threshold();
                        return Ok(());
                    }
                    continue;
                }
                if meta & (TENT_BIT | BOUND_BIT) != 0 && mcycle(meta) <= c {
                    self.resolve_entry(j, meta, val);
                    continue;
                }
                break; // unusable at this cycle: next position
            }
        }
        self.enqueue_slow(value)
    }

    /// Removes the oldest value, or `None` when empty. Bounded like
    /// [`enqueue`](Self::enqueue); a fast-path position whose window
    /// expires while it may still hold our value is handed to the helpers
    /// instead of abandoned (abandoning it would strand the value).
    fn dequeue(&self) -> Option<u64> {
        self.help_scan();
        if self.threshold.load(Ordering::SeqCst) < 0 {
            metrics::inc(Event::ThresholdExhausted);
            return None;
        }
        for _ in 0..FAST_ATTEMPTS {
            let h = P::fetch_add(&self.head, 1);
            let c = cycle_of(h, self.array_order);
            let j = self.remap(h);
            // Whether position `h` may still hold a value we own the
            // right to consume.
            let mut undecided = true;
            for _ in 0..FAST_ROUNDS {
                metrics::inc(Event::NodeVisit);
                let meta = self.entries[j].load_first();
                let val = self.entries[j].load_second();
                if mcycle(meta) > c {
                    undecided = false;
                    break;
                }
                if meta & (TENT_BIT | BOUND_BIT) != 0 {
                    self.resolve_entry(j, meta, val);
                    continue;
                }
                if mcycle(meta) == c {
                    if val == BOTTOM {
                        undecided = false; // hole at our cycle
                        break;
                    }
                    // Firm entry: ours to consume. Pre-finalize a slow
                    // placer first so its record can settle.
                    if mrec(meta) != REC_NONE {
                        self.finalize_src(mrec(meta) as usize, h);
                    }
                    let _ = fault::inject(Site::Preempt);
                    if fault::inject(Site::WcqDequeue) {
                        continue; // lost window: one round, not unbounded
                    }
                    if self.entries[j]
                        .compare_exchange((meta, val), (mpack(c, msafe(meta), 0, REC_NONE), BOTTOM))
                        .is_ok()
                    {
                        return Some(val);
                    }
                    continue;
                }
                // Older cycle: SCQ transitions (empty slot up to our
                // cycle / mark an overtaken value unsafe), then dead.
                let was_empty = val == BOTTOM;
                let new = if was_empty {
                    mpack(c, msafe(meta), 0, REC_NONE)
                } else {
                    mpack(mcycle(meta), false, 0, mrec(meta))
                };
                let _ = fault::inject(Site::Preempt);
                if self.entries[j]
                    .compare_exchange((meta, val), (new, val))
                    .is_ok()
                {
                    metrics::inc(if was_empty {
                        Event::EmptyTransition
                    } else {
                        Event::UnsafeTransition
                    });
                    undecided = false;
                    break;
                }
            }
            if undecided {
                return self.dequeue_slow(h);
            }
            // Failed attempt at a dead position we FAA'd: SCQ accounting.
            let t = self.tail_index();
            if t <= h + 1 {
                catchup(&self.tail, &self.head, t, h + 1);
                metrics::inc(Event::Faa);
                self.threshold.fetch_sub(1, Ordering::SeqCst);
                return None;
            }
            metrics::inc(Event::Faa);
            if self.threshold.fetch_sub(1, Ordering::SeqCst) <= 0 {
                metrics::inc(Event::ThresholdExhausted);
                return None;
            }
        }
        self.dequeue_slow(POS_NONE)
    }

    /// Closes the ring to further enqueues (idempotent).
    fn close(&self) {
        if !ops::tas_bit(&self.tail, 63) {
            metrics::inc(Event::CrqClosed);
        }
    }

    fn is_closed(&self) -> bool {
        self.tail.load(Ordering::SeqCst) & FINALIZED_BIT != 0
    }

    fn order(&self) -> u32 {
        self.array_order - 1
    }

    fn next(&self) -> &AtomicPtr<Self> {
        &self.next
    }

    fn head_index(&self) -> u64 {
        self.head.load(Ordering::SeqCst)
    }

    /// Tail position with the finalized bit masked off.
    fn tail_index(&self) -> u64 {
        self.tail.load(Ordering::SeqCst) & !FINALIZED_BIT
    }

    fn name(_hierarchical: bool) -> &'static str {
        "wcq"
    }

    /// Re-arms the threshold; see [`Scq::reset_threshold`](crate::Scq::reset_threshold).
    fn rearm(&self) {
        self.threshold
            .store(threshold_max(self.array_order), Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring of 8 values.
    fn tiny() -> WcqRing {
        WcqRing::new(&LcrqConfig::new(), 3)
    }

    #[test]
    fn ring_fifo_sequential() {
        let r = tiny();
        for i in 0..8 {
            assert!(r.enqueue(i).is_ok());
        }
        for i in 0..8 {
            assert_eq!(r.dequeue(), Some(i));
        }
        assert_eq!(r.dequeue(), None);
    }

    #[test]
    fn ring_wraps_cycles() {
        let r = tiny();
        for round in 0..50u64 {
            for i in 0..4 {
                assert!(r.enqueue(round * 10 + i).is_ok());
            }
            for i in 0..4 {
                assert_eq!(r.dequeue(), Some(round * 10 + i));
            }
        }
        assert_eq!(r.dequeue(), None);
    }

    #[test]
    fn ring_full_tantrum_closes() {
        let r = tiny();
        let mut placed = 0u64;
        while r.enqueue(placed).is_ok() {
            placed += 1;
            assert!(placed < 1000, "full ring must eventually tantrum");
        }
        assert!(r.is_closed());
        assert!(placed >= r.capacity(), "at least nominal capacity fits");
        for i in 0..placed {
            assert_eq!(r.dequeue(), Some(i), "tantrum must not lose values");
        }
        assert_eq!(r.dequeue(), None);
    }

    #[test]
    fn ring_slow_path_roundtrip() {
        // Drive the announced paths directly: the owner is its own helper,
        // so this exercises claim candidates, tentative placement,
        // promotion, binding, and delivery without concurrency.
        let r = tiny();
        for i in 0..6 {
            assert_eq!(r.enqueue_slow(i), Ok(()));
        }
        assert_eq!(r.pending_requests(), 0, "records released");
        for i in 0..6 {
            assert_eq!(r.dequeue_slow(POS_NONE), Some(i));
        }
        assert_eq!(r.dequeue_slow(POS_NONE), None);
        assert_eq!(r.pending_requests(), 0);
    }

    #[test]
    fn ring_slow_and_fast_paths_interleave_in_fifo_order() {
        let r = WcqRing::<HardwareFaa>::new(&LcrqConfig::new(), 5);
        for i in 0..20u64 {
            if i % 2 == 0 {
                assert!(r.enqueue(i).is_ok());
            } else {
                assert_eq!(r.enqueue_slow(i), Ok(()));
            }
        }
        for i in 0..20u64 {
            let got = if i % 3 == 0 {
                r.dequeue_slow(POS_NONE)
            } else {
                r.dequeue()
            };
            assert_eq!(got, Some(i));
        }
        assert_eq!(r.dequeue(), None);
    }

    #[test]
    fn helped_dequeue_moves_past_an_overtaken_unsafe_entry() {
        // Position p holds a value whose dequeuer stalled right after its
        // F&A; a lap later a *helped* dequeue lands on the same slot. It
        // must mark the entry unsafe once and treat the position as dead,
        // not re-mark it until the stalled peer wakes. The record is driven
        // by hand so a regression fails the assert instead of spinning.
        let r = tiny();
        let slots = r.entries.len() as u64;
        let p = r.tail_index();
        r.enqueue(7).unwrap();
        r.head.store(p + slots, Ordering::SeqCst);
        r.tail.store(p + slots, Ordering::SeqCst);
        r.rearm();
        let (i, seq) = r.acquire_record();
        pair_reset(&r.records[i].claim, (claim_hi(seq, 0), POS_NONE));
        pair_reset(&r.records[i].result, (seq << 1, 0));
        let state = &r.records[i].state;
        state.store(pack_state(seq, PH_DEQ), Ordering::SeqCst);
        r.help_request(i, seq); // HELP_ROUNDS steps; it needs about six
        assert_eq!(state_phase(state.load(Ordering::SeqCst)), PH_DONE);
        assert_eq!(r.records[i].result.load_second(), BOTTOM, "EMPTY");
    }

    #[test]
    fn ring_slow_enqueue_on_closed_ring_reports_closed() {
        let r = tiny();
        r.close();
        assert_eq!(r.enqueue_slow(1), Err(CrqClosed));
        assert_eq!(r.enqueue(2), Err(CrqClosed));
    }
}
