//! Microbenchmarks of the framework's computational kernels: the
//! vector-clock happens-before engine, the online race detector, the
//! relation closure, the discrete-event queue, and the explorer with
//! and without partial-order reduction.

#[cfg(feature = "bench")]
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
#[cfg(feature = "bench")]
use std::hint::black_box;
#[cfg(feature = "bench")]
use weakord_core::{
    detect_races, hb_relation, is_execution_serializable, ExecBuilder, HappensBefore, HbMode, Loc,
    ProcId, Value,
};
#[cfg(feature = "bench")]
use weakord_mc::machines::BnrMachine;
#[cfg(feature = "bench")]
use weakord_mc::{explore, explore_seq, Limits, Reduction};
#[cfg(feature = "bench")]
use weakord_progs::delay::delay_set;
#[cfg(feature = "bench")]
use weakord_progs::litmus;
#[cfg(feature = "bench")]
use weakord_progs::workloads::{spinlock, SpinlockParams};
#[cfg(feature = "bench")]
use weakord_sim::{Cycle, EventQueue};

#[cfg(feature = "bench")]
fn chain_exec(procs: u16, per_proc: u32) -> weakord_core::IdealizedExecution {
    let mut b = ExecBuilder::new(procs);
    let lock = Loc::new(0);
    for i in 0..per_proc {
        for p in 0..procs {
            b.sync_rmw(ProcId::new(p), lock);
            b.data_write(ProcId::new(p), Loc::new(1 + p as u32), Value::new(u64::from(i)));
        }
    }
    b.finish().expect("well-formed")
}

#[cfg(feature = "bench")]
fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    for per_proc in [25u32, 100] {
        let exec = chain_exec(8, per_proc);
        group.bench_with_input(
            BenchmarkId::new("happens-before/vector-clock", exec.len()),
            &exec,
            |b, e| b.iter(|| HappensBefore::compute(black_box(e), HbMode::Drf0).len()),
        );
        group.bench_with_input(BenchmarkId::new("race-detector", exec.len()), &exec, |b, e| {
            b.iter(|| detect_races(black_box(e), HbMode::Drf0).len())
        });
    }
    // The naive closure, for contrast (small size only).
    let small = chain_exec(4, 10);
    group.bench_with_input(
        BenchmarkId::new("happens-before/naive-closure", small.len()),
        &small,
        |b, e| b.iter(|| hb_relation(black_box(e), HbMode::Drf0).len()),
    );
    let small = chain_exec(3, 6);
    group.bench_with_input(BenchmarkId::new("serializability", small.len()), &small, |b, e| {
        b.iter(|| is_execution_serializable(black_box(e)))
    });
    let dekker = litmus::fig1_dekker().program;
    let iriw = litmus::iriw().program;
    group.bench_function("delay-set/dekker", |b| {
        b.iter(|| delay_set(black_box(&dekker)).pairs.len())
    });
    group.bench_function("delay-set/iriw", |b| b.iter(|| delay_set(black_box(&iriw)).pairs.len()));
    // Explorer with and without the sleep-set/persistent-set reduction,
    // on the sync-heavy workload the reduction targets.
    let spin = spinlock(SpinlockParams {
        n_procs: 3,
        sections_per_proc: 1,
        writes_per_section: 2,
        think: 0,
    });
    group.bench_function("explore/spinlock-bnr/full", |b| {
        b.iter(|| explore_seq(&BnrMachine, black_box(&spin), Limits::default()).states)
    });
    group.bench_function("explore/spinlock-bnr/reduced", |b| {
        b.iter(|| {
            explore(&BnrMachine, black_box(&spin), Limits::with_reduction(Reduction::Sleep)).states
        })
    });
    group.bench_function("event-queue/schedule+pop 10k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u32> = EventQueue::new();
            for i in 0..10_000u32 {
                q.schedule_at(Cycle::new(u64::from(i.wrapping_mul(2_654_435_761) % 50_000)), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum += u64::from(v);
            }
            sum
        })
    });
    group.finish();
}

#[cfg(feature = "bench")]
fn config() -> Criterion {
    // Keep full-workspace bench runs quick: the quantities of interest
    // (cycle counts, message counts) are deterministic; wall-clock
    // timing is secondary.
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

#[cfg(feature = "bench")]
criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
#[cfg(feature = "bench")]
criterion_main!(benches);

/// Stub entry point for hermetic builds: the real harness needs the
/// `bench` feature (and the criterion dev-dependency it documents).
#[cfg(not(feature = "bench"))]
fn main() {
    eprintln!("bench `kernels` is a no-op without `--features bench`; see crates/bench/Cargo.toml");
}
