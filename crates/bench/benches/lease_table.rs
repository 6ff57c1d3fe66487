//! Micro-benchmarks of the server's lease table — the soft state the
//! paper sizes at "a couple of pointers" per lease (§2).
//!
//! Every group runs the shipping slab table (`table::slab`) against the
//! map+`BTreeSet` reference (`table::reference`) so the speedup — the
//! acceptance number for the slab rework — is read directly off one run.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use lease_clock::Time;
use lease_core::table::{LeaseHandle, ReferenceTable, SlabTable};
use lease_core::{ClientId, LeaseTable};

const N: u64 = 10_000;

fn record(i: u64) -> (u64, ClientId, Time) {
    (i % 256, ClientId((i % 64) as u32), Time(i + 1_000_000_000))
}

fn grant(c: &mut Criterion) {
    let mut group = c.benchmark_group("lease_table/grant");
    group.bench_with_input(BenchmarkId::from_parameter("slab"), &N, |b, &n| {
        b.iter_batched(
            SlabTable::<u64>::new,
            |mut table| {
                for i in 0..n {
                    let (r, cl, e) = record(i);
                    table.grant(r, cl, e);
                }
                black_box(table.len())
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.bench_with_input(BenchmarkId::from_parameter("reference"), &N, |b, &n| {
        b.iter_batched(
            ReferenceTable::<u64>::new,
            |mut table| {
                for i in 0..n {
                    let (r, cl, e) = record(i);
                    table.grant(r, cl, e);
                }
                black_box(table.len())
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn renewal(c: &mut Criterion) {
    // The single hottest server operation: every lease re-extended to a
    // later deadline. The slab takes the handle fast path (one slab load);
    // the reference re-probes two maps and churns its B-tree index. Each
    // iteration ends with the steady-state prune a live server performs —
    // for the slab every record's one wheel entry fires and is re-armed,
    // for the reference it finds nothing expired.
    let mut group = c.benchmark_group("lease_table/renewal");
    group.bench_with_input(BenchmarkId::from_parameter("slab"), &N, |b, &n| {
        let mut table = SlabTable::<u64>::new();
        let mut handles = Vec::with_capacity(n as usize);
        for i in 0..n {
            let (r, cl, e) = record(i);
            handles.push((r, cl, table.grant(r, cl, e)));
        }
        let mut bump = 0u64;
        b.iter(|| {
            bump += 1_000_000;
            for (i, &mut (r, cl, ref mut h)) in handles.iter_mut().enumerate() {
                *h = table.extend(*h, r, cl, Time(i as u64 + 1_000_000_000 + bump));
            }
            // Past every previous deadline, before every live one.
            table.prune(Time(1_000_000_000 + bump - 500_000));
            black_box(table.len())
        });
    });
    group.bench_with_input(BenchmarkId::from_parameter("reference"), &N, |b, &n| {
        let mut table = ReferenceTable::<u64>::new();
        for i in 0..n {
            let (r, cl, e) = record(i);
            table.grant(r, cl, e);
        }
        let mut bump = 0u64;
        b.iter(|| {
            bump += 1_000_000;
            for i in 0..n {
                let (r, cl, _) = record(i);
                table.extend(LeaseHandle::NULL, r, cl, Time(i + 1_000_000_000 + bump));
            }
            table.prune(Time(1_000_000_000 + bump - 500_000));
            black_box(table.len())
        });
    });
    group.finish();
}

fn holders_query(c: &mut Criterion) {
    let mut slab = SlabTable::<u64>::new();
    let mut reference = ReferenceTable::<u64>::new();
    for i in 0..N {
        let r = i % 128;
        let cl = ClientId((i % 100) as u32);
        let e = Time::from_secs(10 + i % 50);
        slab.grant(r, cl, e);
        reference.grant(r, cl, e);
    }
    let now = Time::from_secs(30);
    let mut group = c.benchmark_group("lease_table/holders_at");
    group.bench_function("slab_walk", |b| {
        // The allocation-free read path the approval fan-out uses.
        b.iter(|| black_box(slab.holder_count_at(black_box(64), now)));
    });
    group.bench_function("slab_vec", |b| {
        b.iter(|| black_box(slab.holders_at(black_box(64), now).len()));
    });
    group.bench_function("reference_vec", |b| {
        b.iter(|| black_box(reference.holders_at(black_box(64), now).len()));
    });
    group.finish();

    let mut group = c.benchmark_group("lease_table/max_expiry");
    group.bench_function("slab", |b| {
        b.iter(|| black_box(slab.max_expiry(black_box(64), now)));
    });
    group.bench_function("reference", |b| {
        b.iter(|| black_box(reference.max_expiry(black_box(64), now)));
    });
    group.finish();
}

fn prune(c: &mut Criterion) {
    let mut group = c.benchmark_group("lease_table/prune_half");
    group.bench_function("slab", |b| {
        b.iter_batched(
            || {
                let mut t = SlabTable::<u64>::new();
                for i in 0..N {
                    t.grant(
                        i,
                        ClientId(0),
                        Time::from_secs(if i % 2 == 0 { 1 } else { 100 }),
                    );
                }
                t
            },
            |mut t| black_box(t.prune(Time::from_secs(50))),
            criterion::BatchSize::SmallInput,
        );
    });
    group.bench_function("reference", |b| {
        b.iter_batched(
            || {
                let mut t = ReferenceTable::<u64>::new();
                for i in 0..N {
                    t.grant(
                        i,
                        ClientId(0),
                        Time::from_secs(if i % 2 == 0 { 1 } else { 100 }),
                    );
                }
                t
            },
            |mut t| black_box(t.prune(Time::from_secs(50))),
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn svc(c: &mut Criterion) {
    use lease_clock::Dur;
    use lease_svc::{shard_of, TimerWheel};

    // Sharded vs single-table grant throughput: the same 10k grants routed
    // by file-id hash into k independent tables — what the sharded service
    // does — against one monolithic table.
    let mut group = c.benchmark_group("svc/sharded_grant");
    for &k in &[1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter_batched(
                || (0..k).map(|_| LeaseTable::<u64>::new()).collect::<Vec<_>>(),
                |mut tables| {
                    for i in 0..10_000u64 {
                        let r = i % 512;
                        tables[shard_of(&r, k)].grant(
                            r,
                            ClientId((i % 64) as u32),
                            Time(i + 1_000_000),
                        );
                    }
                    black_box(tables.iter().map(|t| t.len()).sum::<usize>())
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();

    // Expiry dispatch: advancing the hierarchical timer wheel through 10k
    // scattered deadlines vs repeatedly pruning the reference table's
    // expiry index (the shipping table's prune *is* a wheel advance now).
    c.bench_function("svc/expiry/wheel_advance", |b| {
        b.iter_batched(
            || {
                let mut w = TimerWheel::new(Dur(1_000), Time::ZERO);
                for i in 0..10_000u64 {
                    w.schedule(Time(1_000 + i * 7_919), i);
                }
                w
            },
            |mut w| {
                let mut fired = 0usize;
                let mut now = 0u64;
                while !w.is_empty() {
                    now += 1_000_000;
                    fired += w.advance(Time(now)).len();
                }
                black_box(fired)
            },
            criterion::BatchSize::SmallInput,
        );
    });
    c.bench_function("svc/expiry/table_scan_prune", |b| {
        b.iter_batched(
            || {
                let mut t = ReferenceTable::<u64>::new();
                for i in 0..10_000u64 {
                    t.grant(i, ClientId(0), Time(1_000 + i * 7_919));
                }
                t
            },
            |mut t| {
                let mut fired = 0usize;
                let mut now = 0u64;
                while !t.is_empty() {
                    now += 1_000_000;
                    fired += t.prune(Time(now));
                }
                black_box(fired)
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

criterion_group!(benches, grant, renewal, holders_query, prune, svc);
criterion_main!(benches);
