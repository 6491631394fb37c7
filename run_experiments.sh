#!/bin/bash
# Regenerates every figure/table of the paper. Output lands in results/.
# Lines with --preempt-ppm arm the scheduler adversary (DESIGN.md P1/P6):
# this host has two hardware threads, and the scheduler's natural preemption
# of the oversubscribed runs is too coarse to land inside read->CAS windows,
# so it is emulated with calibrated yield injection at the fail-point
# registry's `Site::Preempt`. The registry is compiled only into the
# `fault-injection` build of the bins ($A, built below into a target dir of
# its own, so the default build in $B stays free of it); a default bin
# refuses a non-zero --preempt-ppm. Each bin that takes --preempt-ppm prints
# its configuration first:
# `# real, N hardware threads` or `# adversarial, preempt_ppm=N`.
set -x
cargo build --release -p lcrq-bench --features fault-injection --target-dir target/adversary || exit 1
B=./target/release
A=./target/adversary/release
$B/table1_primitives > results/table1.md 2>&1
$B/fig1_counter --threads 1,2,4,8,16 --increments 100000 --runs 3 > results/fig1.md 2>&1
$B/fig1_counter --threads 1,2,4,8,16 --increments 20000 --runs 2 --adversarial > results/fig1_adversarial.md 2>&1
$A/fig2_livelock --dequeuers 3 --enqueues 20000 --preempt-ppm 2000 > results/fig2_livelock.md 2>&1
$B/fig6_throughput --threads 1,2,4,8,12,16,20 --pairs 8000 --runs 3 > results/fig6a.md 2>&1
$A/fig6_throughput --oversubscribed --threads 4,8,16,32,64,128 --pairs 1500 --runs 2 --preempt-ppm 1000 > results/fig6b.md 2>&1
$B/fig7_multiprocessor --threads 4,8,16,32,48,80 --pairs 2500 --runs 2 > results/fig7b_empty.md 2>&1
$B/fig7_multiprocessor --threads 4,8,16,32,48,80 --pairs 2500 --runs 2 --prefill 65536 > results/fig7a_full.md 2>&1
$A/fig7_multiprocessor --threads 4,8,16,32,48,80 --pairs 1500 --runs 2 --preempt-ppm 2000 > results/fig7b_adversarial.md 2>&1
$B/fig8_latency --threads 20 --pairs 4000 > results/fig8_1p.md 2>&1
$B/fig8_latency --threads 80 --pairs 1200 --clusters 4 --queues lcrq+h,lcrq,h-queue,cc-queue > results/fig8_4p.md 2>&1
$A/fig8_latency --threads 32 --pairs 1500 --preempt-ppm 1000 --queues lcrq,cc-queue,fc-queue,ms > results/fig8_adversarial.md 2>&1
$B/fig9_ringsize --threads 16 --pairs 4000 --runs 2 --orders 1,3,5,7,9,11,13,15,17 > results/fig9.md 2>&1
$A/fig9_ringsize --threads 16 --pairs 2000 --runs 2 --orders 1,2,3,5,7,9,11,13 --preempt-ppm 2000 > results/fig9_adversarial.md 2>&1
$B/table2_stats --threads 1,20 --pairs 8000 > results/table2.md 2>&1
$A/table2_stats --threads 20 --pairs 2500 --preempt-ppm 5000 > results/table2_adversarial.md 2>&1
$B/table3_stats --threads 80 --pairs 800 > results/table3.md 2>&1
$A/table3_stats --threads 80 --pairs 600 --preempt-ppm 2000 > results/table3_adversarial.md 2>&1
$B/pairwise --runs 12 --warmup 3 > results/arena.md 2>&1   # also refreshes results/BENCH_arena.json
echo ALL-EXPERIMENTS-DONE
