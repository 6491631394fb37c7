#!/usr/bin/env bash
# Repository CI gate. Run from the repo root.
#
# Tier-1 (must always pass; see ROADMAP.md):
#   cargo build --release && cargo test -q
# plus lint and formatting gates. Everything runs offline — the workspace
# has no registry dependencies (DESIGN.md "Offline build").
#
# The gates, in order. "s" is wall seconds on the 2-hardware-thread CI host
# for a run after a source edit with `target/` otherwise warm.
#
# | gate            | command                                              | what it adds over the gates above it                          |  s |
# |-----------------|------------------------------------------------------|---------------------------------------------------------------|----|
# | release build   | cargo build --release                                | every lib and bench bin compiles optimised (later gates run them) | 76 |
# | tier-1          | cargo test -q                                        | default members: root integration suites + all of lcrq-bench  | 15 |
# | workspace       | cargo test --workspace --exclude lcrq --exclude lcrq-bench | the eight other crates' unit and integration suites     |  7 |
# | channel         | cargo test --release --test typed_inline             | a scalar message allocates nothing, and a queued item costs <= 20 heap bytes, in the optimised build either |  8 |
# | repeat x20      | seed_sweep channel_shutdown / fault_tolerance / reclamation (kept slots) / channel / lcrq-channel --lib | 20 runs each: a 1-in-6 flake cannot pass | 43 |
# | wCQ             | --features fault-injection wcq_records, progress step_bound (+4 seeds) | suites that only exist with the fault registry compiled in | 2 |
# | sharded         | seed_sweep sharded seeded_stress x4                  | four replay seeds; a 16 x 1000-op history delivers exactly once |  7 |
# | fault injection | -p lcrq-util --features fault-injection; stress_sweep x8 seeds | the registry's feature-only unit suite; eight pinned schedules | 3 |
# | loom            | RUSTFLAGS="--cfg loom" util/atomic/core/channel --test loom | model-checked interleavings (built only under the cfg) | 38 |
# | force-fallback  | cargo test --features force-fallback (+ fault_tolerance) | the whole root suite on the portable CAS2 path            | 16 |
# | bench smoke     | 11 bins --smoke; table2_stats armed + refused        | every bin still runs and parses its flags; every pairs run reconciles delivery; `--preempt-ppm` arms only the fault-injection build |  2 |
# | nm probe        | nm on every target/release executable                | no fault-registry symbol or `PREEMPT_PPM` in the default build (also builds the release `progress` test binary for objdump) | 12 |
# | objdump probe   | objdump -d on every target/release bin + that test binary | no `cmpxchg16b (%rbx)` anywhere, not only in `pairwise`  |  2 |
# | clippy          | cargo clippy --workspace --all-targets -- -D warnings | lints; again for the lcrq-bench bins with fault-injection, and under --cfg loom for the crates with a loom suite |  6 |
# | rustdoc         | RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps | every intra-doc link resolves: a deleted name leaves no dangling link |  4 |
# | fmt             | cargo fmt --all --check                              | formatting                                                    |  1 |
# | TSan, ASan/LSan, Miri, aarch64 | guarded by installed toolchains       | skipped on this host (no nightly, no aarch64 target)          |  0 |
set -euo pipefail
cd "$(dirname "$0")"

# Deterministic replay helper: runs one `cargo test` invocation per seed
# with LCRQ_TEST_SEED pinned, so any failure is reproducible from the
# printed seed alone.  Usage: seed_sweep "<label>" "<seeds>" <cargo-test-args...>
seed_sweep() {
    local label=$1 seeds=$2 seed
    shift 2
    for seed in $seeds; do
        echo "    $label seed=$seed"
        LCRQ_TEST_SEED=$seed cargo test "$@"
    done
}

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1)"
cargo test -q

# Tier-1 above already covers the default members (the `lcrq` package and
# `lcrq-bench`); exclude both here so the workspace pass only adds the
# other member crates instead of running those suites a second time.
echo "==> cargo test --workspace --exclude lcrq --exclude lcrq-bench -q"
cargo test --workspace --exclude lcrq --exclude lcrq-bench -q

# Channel gate: what a message costs the allocator. tests/typed_inline.rs
# (a test binary of its own: it installs a counting global allocator) ran
# in tier-1 as a debug build; the zero allocations of a scalar message rest
# on `Typed`'s type test folding away and the tag check being the only
# branch left, so the optimised build is asked too. The same binary pins
# what a queued item costs the heap, as a count beside the allocation count:
# a default `Lcrq` 2^16 deep holds <= 20 live bytes an item (a `Crq` node is
# its 16 bytes and the figure reads 16.2; the 128-byte padded node read 128.2).
echo "==> channel gate (typed_inline --release)"
cargo test --release --test typed_inline -q

# Repeat-run gate (ROADMAP "tier-1 is green on every run"): the two suites
# that used to fail one run in N each run 20 times under distinct seeds, so
# a 1-in-6 flake cannot pass review. channel_shutdown carries the
# close-race exactly-once test (fixed by the sealed close, DESIGN.md "List
# of rings"); fault_tolerance is the crash-tolerance harness. (The bench
# lib's third leg is gone with its cause: runs no longer share a metrics
# tally, which `workload::tests::concurrent_runs_count_only_their_own_threads`
# pins in tier-1.) The third leg is the list's kept hazard slots: the three
# tests that say what an idle, an emptied and an exited thread pin, and the
# `ring_count` walk against concurrent head swings with retired rings really
# freed; they take no seed, the sweep just runs them 20 times.
echo "==> repeat-run gate (x20: shutdown, fault tolerance, kept hazard slots, channel)"
REPEAT_SEEDS=$(seq 1 20 | tr '\n' ' ')
seed_sweep "channel_shutdown" "$REPEAT_SEEDS" --test channel_shutdown -q
seed_sweep "fault_tolerance" "$REPEAT_SEEDS" \
    --features fault-injection --test fault_tolerance -q
seed_sweep "reclamation: kept slots" "$REPEAT_SEEDS" \
    --test reclamation -q -- pins_ ring_count_is_safe
# The channel's wait ladder: a consumer that keeps finding nothing skips the
# watch and parks from its second wait on, so the lost-wakeup stress in
# tests/channel.rs and the crate's own parked-receiver tests (zero F&A while
# parked, the fixed F&A count of a parked recv, the watch/probe rule) run
# the park path on most messages; 20 runs each.
seed_sweep "channel" "$REPEAT_SEEDS" --test channel -q
seed_sweep "lcrq-channel lib" "$REPEAT_SEEDS" -p lcrq-channel --lib -q

# wCQ gate (DESIGN.md "wCQ helping"): the request-record state-machine
# suite, the full step-bound progress module (wcq holds the per-op step
# ceiling with 2 of 8 threads stalled; lscq's should_panic twin blows it),
# then the stall test replayed under four pinned seeds. (The wcq/lscq unit
# suites — the shared list suite in lcrq-core's `list::tests::{scqd,
# wcq_ring}` plus `scq::`/`wcq::` ring tests — and their linearizability
# and progress entries run in the tier-1 and workspace passes above.)
echo "==> wCQ gate"
cargo test --features fault-injection --test wcq_records -q
cargo test --features fault-injection --test progress -q step_bound
seed_sweep "wcq stall sweep" "0x1 0x5EED 0xC0FFEE 0xDEADBEEF" \
    --features fault-injection --test progress -q \
    step_bound::wcq_survivors

# Sharded front-end gate (DESIGN.md "Sharded front-end & semantic
# relaxation"): the seeded relaxed stress entry points replayed under four
# LCRQ_TEST_SEED values against all three inner backend families
# (sharded:inner=lcrq, =lscq, and =wcq). The lcrq entry point also records
# a 16-worker x 1000-op history on sharded:shards=8,d=2,inner=lcrq and
# fails on a duplicate, lost or invented value or a dishonest EMPTY. (It
# also scores the history against the analytic envelope, but at this size
# the envelope exceeds the history's enqueue count, so that arm cannot
# fail; nor is the removed bench bin's 500 ppm preemption reproduced.)
# (The relaxation checker's and the QueueSpec registry's unit suites ran in
# the workspace and tier-1 passes above.)
echo "==> sharded front-end gate"
seed_sweep "sharded seeded stress" "0x1 0x5EED 0xC0FFEE 0xDEADBEEF" \
    --test sharded -q seeded_stress

# Fault-injection gate (DESIGN.md "Fault injection & degradation"): the
# fail-point registry's own unit suite and a deterministic multi-seed stress
# sweep (the crash-tolerance harness itself ran x20 in the repeat-run gate).
# Each seed replays an identical schedule, so a failure here is
# reproducible with LCRQ_TEST_SEED alone.
echo "==> fault-injection gate"
cargo test -p lcrq-util --features fault-injection -q
seed_sweep "stress sweep" "0x1 0x2 0x3 0x5EED 0xC0FFEE 0xDEADBEEF 0xFA175EED 0xFFFFFFFF" \
    --features fault-injection --test fault_tolerance -q stress_sweep

# Loom gate (DESIGN.md "Weak memory & model checking"): the in-tree model
# checker explores thread interleavings of the seqlock CAS2 fallback (plus
# the planted word-0-first store twin, which it must catch pairing the new
# word 0 with the old word 1), the
# EventCount parker protocol, the RingPool slot claim (plus the planted
# load-then-store twin, which it must catch handing one ring to two
# poppers), the list of rings' sealed close against a consumer's settle
# poll (plus the planted flag-then-walk twin, which it must catch losing an
# item), the list's kept hazard slots against a concurrent retire and scan
# (plus the planted remembered-pointer twin of `Domain::protect`'s elision,
# which it must catch entering a reclaimed ring), the channel's async
# wait protocol: `poll_until` against a
# notify and `release` of a woken future against a second waiter (plus the
# no-re-attempt and no-pass-on twins, which it must catch losing a wakeup),
# and the bounded channel's capacity gate: two senders and a receiver over
# a one-slot `Credit`, waiting through the whole ladder (its watch is two
# steps under the cfg), never exceed the capacity and all finish (plus the
# planted twin that answers "full" from its stale copy of `received`, which
# it must catch stranding a sender), and a refused `try_send` racing a
# `send` wakes the sender its overdraft hid room from (plus the twin that
# does not look back).
# `--cfg loom` swaps the lcrq-util sync facade to the instrumented shims
# (the crossbeam convention); the engine's own self-tests already ran in
# tier-1 above.
echo "==> loom model-checking gate (--cfg loom)"
RUSTFLAGS="--cfg loom" cargo test -p lcrq-util --test loom -q
RUSTFLAGS="--cfg loom" cargo test -p lcrq-atomic --test loom -q
RUSTFLAGS="--cfg loom" cargo test -p lcrq-core --test loom -q
RUSTFLAGS="--cfg loom" cargo test -p lcrq-channel --test loom -q

# Force-fallback gate: route x86 CAS2 through the portable seqlock path
# and re-run the root suite (linearizability battery included) plus the
# crash-tolerance harness, so the configuration every non-x86 target
# depends on is exercised by the full protocol tests — not only by its
# own unit suite.
echo "==> force-fallback gate (portable CAS2 path under the full suite)"
cargo test --features force-fallback -q
cargo test --features force-fallback,fault-injection --test fault_tolerance -q

# Bench smoke gate (ISSUE 9 satellite): every harness binary runs once in
# --smoke mode (seconds-long shrunken defaults; artifact-writing bins
# redirect their default output under target/smoke/ so committed results/
# artifacts are never clobbered). Catches bench bit-rot — a bin that
# panics, hangs, or can no longer parse its flags fails CI even though
# nothing else links it. Every pairs run (`run_workload`, which `pairwise`
# drives too) drains the queue and reconciles count and checksum, so a
# smoke run also fails on a queue that lost an item.
echo "==> bench smoke gate (all harness bins, --smoke)"
for bin in table1_primitives fig1_counter fig2_livelock fig6_throughput \
    fig7_multiprocessor fig8_latency fig9_ringsize table2_stats \
    table3_stats batch_throughput pairwise; do
    echo "    $bin --smoke"
    cargo run --release -q -p lcrq-bench --bin "$bin" -- --smoke >/dev/null
done
# The scheduler adversary (`--preempt-ppm`) is the fail-point registry's
# `Site::Preempt` yield, compiled in only by lcrq-bench's `fault-injection`
# feature. The armed path runs once, as a debug build so the release bins
# the probes below read stay the default build; and a default bin must
# refuse a non-zero rate rather than run silently unarmed.
echo "    table2_stats --smoke --preempt-ppm 5000 (--features fault-injection)"
armed_out=$(cargo run -q -p lcrq-bench --features fault-injection \
    --bin table2_stats -- --smoke --preempt-ppm 5000)
armed_label=${armed_out%%$'\n'*}
if [ "$armed_label" != "# adversarial, preempt_ppm=5000" ]; then
    echo "armed table2_stats printed '$armed_label' first"
    exit 1
fi
echo "    table2_stats --smoke --preempt-ppm 1 (default build: must refuse)"
if cargo run --release -q -p lcrq-bench --bin table2_stats -- \
    --smoke --preempt-ppm 1 >/dev/null 2>&1; then
    echo "the default build ran --preempt-ppm 1 without the adversary"
    exit 1
fi

# Zero-cost assertion: no executable `cargo build --release` left in
# target/release may contain the fault registry — every inject() site,
# the scheduler adversary's `Site::Preempt` included, compiles to nothing,
# not even the disabled-check load — nor the deleted adversary dial
# `PREEMPT_PPM`. (Test binaries carry the registry by design: the root
# package's dev-dependencies compile it in for the adversarial tests.)
echo "==> fault registry absent from default build"
if command -v nm >/dev/null 2>&1; then
    for bin in $(find target/release -maxdepth 1 -type f -executable); do
        if nm -C "$bin" 2>/dev/null |
            grep -qi 'fault.*registry\|fault::inject\|PREEMPT_PPM'; then
            echo "$bin: fault registry symbols leaked into the default build"
            exit 1
        fi
    done
else
    echo "    (nm probe unavailable; relying on the cfg unit test)"
fi
# The release `progress` test binary, for the objdump probe below.
probe_bin=$(cargo test --release -q --test progress --no-run \
    --message-format=json 2>/dev/null |
    grep -o '"executable":"[^"]*"' | head -1 | cut -d'"' -f4)

# Register-clobber probe for the inline `lock cmpxchg16b` block
# (crates/atomic/src/pair.rs): RBX carries the low new word while the
# instruction runs, so the address operand must never be allocated there —
# `cmpxchg16b (%rbx)` in a release binary means it was swapped away before
# being dereferenced. Every release bin is probed, and the release
# `progress` test binary built above: the encoding depends on the inlining
# context, and the three bad ones benchmark/README.md Findings 1 located
# were not in `pairwise`. A hit is the `rbx` pin in pair.rs failing; fix it
# there.
echo "==> no cmpxchg16b through rbx in any release binary"
if command -v objdump >/dev/null 2>&1; then
    for bin in $(find target/release -maxdepth 1 -type f -executable) $probe_bin; do
        rbx_uses=$(objdump -d "$bin" | grep -c 'cmpxchg16b (%rbx)' || true)
        if [ "$rbx_uses" != "0" ]; then
            echo "$bin: $rbx_uses cmpxchg16b instructions address memory through rbx"
            exit 1
        fi
    done
else
    echo "    (objdump unavailable; probe skipped)"
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings
# The bins' `fault-injection` branch (`Cli::arm_preemption`) is compiled
# out of the pass above.
cargo clippy -p lcrq-bench --features fault-injection --bins -- -D warnings
# The loom suites and the `cfg(loom)` twins are compiled out of the pass
# above.
RUSTFLAGS="--cfg loom" cargo clippy -p lcrq-util -p lcrq-atomic -p lcrq-hazard \
    -p lcrq-core -p lcrq-channel --all-targets -- -D warnings

# Rustdoc gate: a broken intra-doc link is a warning, and this makes it an
# error, so deleting or renaming an item fails here until every doc that
# named it is fixed. Items that exist only under a feature (the fault
# registry's `Scenario`, `disarm`, ...) are named in code spans, not linked.
echo "==> rustdoc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo fmt --check"
cargo fmt --all --check

# ThreadSanitizer job (allowed-to-warn): needs a nightly toolchain with
# rust-src for -Zbuild-std; covers lcrq-core (the list of rings over all
# three ring families, and the rings' own unit suites) plus the channel layer. Skipped silently when
# unavailable; when it does
# run, reported data races FAIL the build — all other TSan noise (e.g.
# unsupported-platform warnings) is tolerated.
if rustup toolchain list 2>/dev/null | grep -q nightly &&
    rustup component list --toolchain nightly 2>/dev/null |
        grep -q 'rust-src (installed)'; then
    echo "==> TSan (nightly, allowed-to-warn except data races)"
    tsan_log=$(mktemp)
    if ! RUSTFLAGS="-Zsanitizer=thread" RUST_TEST_THREADS=1 \
        cargo +nightly test -Zbuild-std \
        --target x86_64-unknown-linux-gnu \
        -p lcrq-channel -p lcrq-core -q >"$tsan_log" 2>&1; then
        echo "TSan run did not pass cleanly (tolerated unless races follow)"
    fi
    if grep -q "WARNING: ThreadSanitizer: data race" "$tsan_log"; then
        echo "TSan reported data races:"
        grep -A 20 "WARNING: ThreadSanitizer: data race" "$tsan_log" | head -60
        rm -f "$tsan_log"
        exit 1
    fi
    rm -f "$tsan_log"
else
    echo "==> TSan skipped (nightly toolchain with rust-src not installed)"
fi

# AddressSanitizer + LeakSanitizer job: the ring recycling pool (DESIGN.md
# "Ring recycling") turns retire-means-free into retire-means-recycle, so
# leaks and use-after-scrub bugs are exactly what this job exists to catch.
# Same guard as TSan: runs only when a nightly toolchain with rust-src is
# installed. Unlike TSan, any sanitizer ERROR (use-after-free, leak, ...)
# FAILS the build.
if rustup toolchain list 2>/dev/null | grep -q nightly &&
    rustup component list --toolchain nightly 2>/dev/null |
        grep -q 'rust-src (installed)'; then
    echo "==> ASan/LSan (nightly): reclamation + recycle suites"
    asan_log=$(mktemp)
    if ! RUSTFLAGS="-Zsanitizer=address" ASAN_OPTIONS="detect_leaks=1" \
        cargo +nightly test -Zbuild-std \
        --target x86_64-unknown-linux-gnu \
        --test reclamation -q >"$asan_log" 2>&1; then
        echo "ASan/LSan test run failed:"
        tail -60 "$asan_log"
        rm -f "$asan_log"
        exit 1
    fi
    if grep -q "ERROR: \(Address\|Leak\)Sanitizer" "$asan_log"; then
        echo "ASan/LSan reported errors:"
        grep -A 20 "ERROR: \(Address\|Leak\)Sanitizer" "$asan_log" | head -60
        rm -f "$asan_log"
        exit 1
    fi
    rm -f "$asan_log"
else
    echo "==> ASan/LSan skipped (nightly toolchain with rust-src not installed)"
fi

# Miri job: interpret the lcrq-atomic + lcrq-util fast suites under the
# stacked-borrows/data-race checker. This is what caught the fallback's
# volatile-write data race (see fallback::cmpxchg16b in
# crates/atomic/src/pair.rs); under Miri CAS2 routes through the fallback
# automatically (inline asm cannot be interpreted) and syscall/timing
# tests carry #[cfg_attr(miri, ignore)]. Same skip pattern as the
# sanitizer jobs when the component is absent.
if rustup toolchain list 2>/dev/null | grep -q nightly &&
    rustup component list --toolchain nightly 2>/dev/null |
        grep -q 'miri.*(installed)'; then
    echo "==> Miri (nightly): lcrq-atomic + lcrq-util suites"
    MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo +nightly miri test -p lcrq-atomic -p lcrq-util -q
else
    echo "==> Miri skipped (nightly miri component not installed)"
fi

# aarch64 job: the weak-memory target the portable fallback exists for.
# Cross-compile the whole workspace; if a QEMU user-mode emulator and a
# cross linker are also present, run the atomic + util unit suites under
# emulation so the Release/Acquire pairs execute on (emulated) weak
# memory ordering rather than x86 TSO.
if rustup target list --installed 2>/dev/null | grep -q aarch64-unknown-linux-gnu; then
    echo "==> aarch64 cross-compile (workspace)"
    cargo check --workspace --target aarch64-unknown-linux-gnu
    if command -v qemu-aarch64 >/dev/null 2>&1 &&
        command -v aarch64-linux-gnu-gcc >/dev/null 2>&1; then
        echo "==> aarch64 QEMU test leg (atomic + util suites)"
        CARGO_TARGET_AARCH64_UNKNOWN_LINUX_GNU_LINKER=aarch64-linux-gnu-gcc \
            CARGO_TARGET_AARCH64_UNKNOWN_LINUX_GNU_RUNNER="qemu-aarch64 -L /usr/aarch64-linux-gnu" \
            cargo test --target aarch64-unknown-linux-gnu \
            -p lcrq-atomic -p lcrq-util -q
    else
        echo "==> aarch64 QEMU leg skipped (qemu-aarch64 / cross gcc not installed)"
    fi
else
    echo "==> aarch64 skipped (target aarch64-unknown-linux-gnu not installed)"
fi

echo "CI OK"
