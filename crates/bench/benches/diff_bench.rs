//! Figure 7 bench: diff accumulation (TreadMarks-style) vs the LOTS
//! per-field-timestamp scheme — bytes a fresh acquirer receives after
//! `k` migratory updates of the same object, plus raw diff
//! compute/apply/encode throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lots_core::consistency::locks::LockService;
use lots_core::consistency::SyncCtx;
use lots_core::diff::WordDiff;
use lots_core::{DiffMode, LockProtocol, ObjectId};
use lots_sim::machine::p4_fedora;
use lots_sim::run_app_tasks;

/// Bytes a fresh acquirer receives after `k` releases that each updated
/// the same 64 words of one object (the Figure 7 migratory pattern).
fn grant_bytes(mode: DiffMode, k: usize) -> usize {
    let svc = LockService::new(2, mode, LockProtocol::HomelessWriteUpdate);
    // The lock service parks its caller on the scheduler, so the
    // releases run on a (lone) engine task.
    run_app_tasks(1, |me, task, clock| {
        let c0 = SyncCtx::standalone(me, &p4_fedora(), clock.clone(), task.clone());
        for round in 0..k {
            svc.acquire(1, &c0);
            svc.release(1, &c0, |_| {
                // All 64 words rewritten against an all-ones twin: one
                // run of 64.
                let current: Vec<u8> = (0..64).flat_map(|_| (round as u32).to_le_bytes()).collect();
                vec![(ObjectId(0), WordDiff::compute(&[0xFF; 256], &current))]
            });
        }
    });
    svc.pending_grant_bytes(1)
}

fn bench_figure7(c: &mut Criterion) {
    let mut g = c.benchmark_group("figure7_grant_bytes");
    for k in [1usize, 4, 16, 64] {
        let acc = grant_bytes(DiffMode::AccumulatedDiffs, k);
        let pf = grant_bytes(DiffMode::PerFieldOnDemand, k);
        eprintln!(
            "  after {k:>2} migratory updates: accumulated {acc:>6} B vs per-field {pf:>4} B \
             ({}x reduction)",
            acc / pf.max(1)
        );
        g.bench_with_input(BenchmarkId::new("accumulated", k), &k, |b, &k| {
            b.iter(|| grant_bytes(DiffMode::AccumulatedDiffs, k))
        });
        g.bench_with_input(BenchmarkId::new("per_field", k), &k, |b, &k| {
            b.iter(|| grant_bytes(DiffMode::PerFieldOnDemand, k))
        });
    }
    g.finish();
}

fn bench_diff_compute(c: &mut Criterion) {
    let mut g = c.benchmark_group("diff_compute");
    for &size in &[4096usize, 65536] {
        let twin = vec![0u8; size];
        // Sparse: 1% of words changed; dense: all words changed.
        let mut sparse = twin.clone();
        for w in (0..size / 4).step_by(100) {
            sparse[w * 4..w * 4 + 4].copy_from_slice(&7u32.to_le_bytes());
        }
        let dense = vec![1u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("sparse", size), &size, |b, _| {
            b.iter(|| WordDiff::compute(&twin, &sparse))
        });
        g.bench_with_input(BenchmarkId::new("dense", size), &size, |b, _| {
            b.iter(|| WordDiff::compute(&twin, &dense))
        });
        let diff = WordDiff::compute(&twin, &sparse);
        g.bench_with_input(BenchmarkId::new("encode_decode", size), &size, |b, _| {
            b.iter(|| WordDiff::decode(&diff.encode()))
        });
        let mut target = twin.clone();
        g.bench_with_input(BenchmarkId::new("apply", size), &size, |b, _| {
            b.iter(|| diff.apply(&mut target))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_figure7, bench_diff_compute
}
criterion_main!(benches);
